(* The simulated kernel: converts CPU faults into signal deliveries.

   On real x64/Linux, an unmasked SSE exception raises #XM, the kernel's
   exception path builds a signal frame and delivers SIGFPE to the
   process's registered handler; sigreturn unwinds back. That round trip
   is the dominant cost of trap-and-emulate floating point virtualization
   (paper section 6, figure 14). Here the same structure exists but the
   costs are charged from the machine's cost model according to the
   configured deployment: classic user-level signals, an FPVM kernel
   module, or the hypothetical user->user "pipeline interrupt". *)

type deployment = Machine.Cost_model.delivery =
  | User_signal
  | Kernel_module
  | User_to_user

(* What the handler receives: the moral equivalent of siginfo + ucontext
   (full access to the faulting machine). *)
type fpe_frame = { fault_index : int; events : Ieee754.Flags.t }
type trap_frame = { trap_index : int; original : Machine.Isa.insn }

type t = {
  mutable deployment : deployment;
  mutable fpe_handler : (Machine.State.t -> fpe_frame -> unit) option;
  mutable trap_handler : (Machine.State.t -> trap_frame -> unit) option;
  (* accounting *)
  mutable fpe_count : int;
  mutable trap_count : int;
  mutable trace_exit_count : int;
  mutable hw_cycles : int;
  mutable kernel_cycles : int;
  mutable user_cycles : int;
}

let create ?(deployment = User_signal) () =
  { deployment;
    fpe_handler = None;
    trap_handler = None;
    fpe_count = 0;
    trap_count = 0;
    trace_exit_count = 0;
    hw_cycles = 0;
    kernel_cycles = 0;
    user_cycles = 0 }

let install_sigfpe t h = t.fpe_handler <- Some h
let install_sigtrap t h = t.trap_handler <- Some h

(* Charge delivery costs to the machine and record the breakdown. *)
let charge_delivery t (st : Machine.State.t) =
  let c = st.Machine.State.cost in
  match t.deployment with
  | User_signal ->
      t.hw_cycles <- t.hw_cycles + c.Machine.Cost_model.hw_trap;
      t.kernel_cycles <- t.kernel_cycles + c.Machine.Cost_model.kernel_trap;
      t.user_cycles <- t.user_cycles + c.Machine.Cost_model.user_delivery;
      Machine.State.add_cycles st
        (c.Machine.Cost_model.hw_trap + c.Machine.Cost_model.kernel_trap
        + c.Machine.Cost_model.user_delivery)
  | Kernel_module ->
      t.hw_cycles <- t.hw_cycles + c.Machine.Cost_model.hw_trap;
      t.kernel_cycles <- t.kernel_cycles + c.Machine.Cost_model.kernel_delivery;
      Machine.State.add_cycles st (c.Machine.Cost_model.hw_trap + c.Machine.Cost_model.kernel_delivery)
  | User_to_user ->
      t.hw_cycles <- t.hw_cycles + c.Machine.Cost_model.uu_delivery;
      Machine.State.add_cycles st c.Machine.Cost_model.uu_delivery

(* Sequence emulation: a handler that stayed resident past the faulting
   instruction must restore the full native context when its trace
   ends. That restore is part of the delivery round trip, so its cost
   lands in the same bucket as the handler-side delivery work. *)
let charge_trace_exit t (st : Machine.State.t) =
  let c = st.Machine.State.cost in
  let cyc = c.Machine.Cost_model.trace_exit in
  t.trace_exit_count <- t.trace_exit_count + 1;
  (match t.deployment with
  | User_signal | User_to_user -> t.user_cycles <- t.user_cycles + cyc
  | Kernel_module -> t.kernel_cycles <- t.kernel_cycles + cyc);
  Machine.State.add_cycles st cyc

exception Unhandled_sigfpe of int
exception Unhandled_sigtrap of int

(* The process main loop: step the CPU, deliver faults as signals. *)
let run ?(max_insns = max_int) t (st : Machine.State.t) =
  let rec go n =
    if n >= max_insns then failwith "trapkern: instruction budget exceeded"
    else
      match Machine.Cpu.step st with
      | Machine.Cpu.Halted -> ()
      | Machine.Cpu.Running -> go (n + 1)
      | Machine.Cpu.Fp_fault { index; events } -> begin
          t.fpe_count <- t.fpe_count + 1;
          charge_delivery t st;
          match t.fpe_handler with
          | None -> raise (Unhandled_sigfpe index)
          | Some h ->
              h st { fault_index = index; events };
              go (n + 1)
        end
      | Machine.Cpu.Correctness_fault { index; original } -> begin
          t.trap_count <- t.trap_count + 1;
          charge_delivery t st;
          match t.trap_handler with
          | None -> raise (Unhandled_sigtrap index)
          | Some h ->
              h st { trap_index = index; original };
              go (n + 1)
        end
  in
  go 0

(* ---- record/replay identifiers (lib/replay) -------------------------- *)

(* Stable event-kind ids for the on-disk event log. These are part of
   the log format: never renumber, only append. *)
let ev_fp_trap = 1
let ev_absorbed = 2
let ev_correctness = 3
let ev_gc = 4
let ev_ext_call = 5

(* Stable deployment ids for config fingerprints and checkpoints. *)
let deployment_id = function
  | User_signal -> 0
  | Kernel_module -> 1
  | User_to_user -> 2

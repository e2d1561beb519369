(** The simulated kernel: exception-to-signal delivery.

    On real x64/Linux an unmasked SSE exception raises #XM; the kernel
    builds a signal frame and delivers SIGFPE to the registered handler,
    and sigreturn unwinds back — the dominant cost of trap-and-emulate
    floating point virtualization (paper §6, Figure 14). This module
    reproduces that structure over the VX64 CPU and charges delivery
    costs from the machine's cost model according to the configured
    deployment. *)

type deployment = Machine.Cost_model.delivery =
  | User_signal  (** classic LD_PRELOAD FPVM: full user-level signal *)
  | Kernel_module  (** FPVM as a kernel module (§6.1) *)
  | User_to_user  (** the hypothetical "pipeline interrupt" (§6.2) *)

type fpe_frame = { fault_index : int; events : Ieee754.Flags.t }
(** What a SIGFPE handler receives: the moral equivalent of
    siginfo + ucontext (the handler also gets the whole machine). *)

type trap_frame = { trap_index : int; original : Machine.Isa.insn }
(** Delivered for correctness traps inserted by the static analysis. *)

type t = {
  mutable deployment : deployment;
  mutable fpe_handler : (Machine.State.t -> fpe_frame -> unit) option;
  mutable trap_handler : (Machine.State.t -> trap_frame -> unit) option;
  mutable fpe_count : int;
  mutable trap_count : int;
  mutable trace_exit_count : int;
      (** traces ended (handler stayed resident past the fault) *)
  mutable hw_cycles : int;  (** hardware exception + dispatch cycles *)
  mutable kernel_cycles : int;  (** kernel-side handling cycles *)
  mutable user_cycles : int;  (** signal-frame + sigreturn cycles *)
}

val create : ?deployment:deployment -> unit -> t

val charge_trace_exit : t -> Machine.State.t -> unit
(** Charge the context-restore cost of ending a sequence-emulation
    trace (the handler resuming native execution). Booked into the
    bucket where the handler lives, so Fig-9-style delivery accounting
    stays honest. *)

val install_sigfpe : t -> (Machine.State.t -> fpe_frame -> unit) -> unit
(** Register the process's SIGFPE handler (what FPVM's LD_PRELOAD shim
    does at startup). The handler must advance RIP or otherwise resolve
    the fault before returning. *)

val install_sigtrap : t -> (Machine.State.t -> trap_frame -> unit) -> unit

exception Unhandled_sigfpe of int
exception Unhandled_sigtrap of int

val run : ?max_insns:int -> t -> Machine.State.t -> unit
(** The process main loop: step the CPU until it halts, delivering
    faults to the installed handlers and charging delivery costs.
    Raises the [Unhandled_*] exceptions if a fault occurs with no
    handler (a real process would die of SIGFPE). *)

(** {1 Record/replay identifiers (lib/replay)}

    Stable integer ids used by the on-disk event log and checkpoint
    formats. Part of the wire format: never renumber, only append. *)

val ev_fp_trap : int
val ev_absorbed : int
val ev_correctness : int
val ev_gc : int
val ev_ext_call : int

val deployment_id : deployment -> int

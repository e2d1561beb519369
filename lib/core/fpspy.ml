(* FPSpy mode (Dinda et al., HPDC'20 — the tool the paper's
   trap-and-emulate core "leverages the ideas behind", section 4.1).

   Where FPVM emulates a faulting instruction with alternative
   arithmetic, FPSpy merely *records* it — which instruction, which
   events (rounding, overflow, underflow, denormal, NaN) — and then lets
   it execute on the hardware as normal. The program's results are
   untouched; the output is a floating point event profile: exactly the
   reconnaissance an analyst runs before deciding whether a code is
   worth virtualizing. *)

module Isa = Machine.Isa
module State = Machine.State
module Cpu = Machine.Cpu
module Program = Machine.Program
module Mx = Ieee754.Mxcsr
module F = Ieee754.Flags

type site = {
  index : int; (* instruction index *)
  mnemonic : string;
  mutable hits : int;
  mutable events : F.t; (* union of events observed here *)
}

type profile = {
  mutable total_traps : int;
  mutable rounded : int;
  mutable overflowed : int;
  mutable underflowed : int;
  mutable denormal : int;
  mutable invalid : int;
  mutable div_by_zero : int;
  sites : (int, site) Hashtbl.t;
}

type result = {
  run : Engine.result;
  profile : profile;
}

let count profile (events : F.t) =
  profile.total_traps <- profile.total_traps + 1;
  let bump flag cell = if F.mem ~flag events then cell () in
  bump F.inexact (fun () -> profile.rounded <- profile.rounded + 1);
  bump F.overflow (fun () -> profile.overflowed <- profile.overflowed + 1);
  bump F.underflow (fun () -> profile.underflowed <- profile.underflowed + 1);
  bump F.denormal (fun () -> profile.denormal <- profile.denormal + 1);
  bump F.invalid (fun () -> profile.invalid <- profile.invalid + 1);
  bump F.div_by_zero (fun () -> profile.div_by_zero <- profile.div_by_zero + 1)

(* Run a binary under FPSpy: unmask everything, record each event, then
   re-execute the faulting instruction with exceptions masked (the
   "execute as normal" step) and restore the unmasked state. *)
let run (prog : Program.t) : result =
  let c = Engine.default_config in
  let prog = Program.copy prog in
  let st = State.create ~cost:c.Engine.cost prog in
  let kern = Trapkern.create ~deployment:c.Engine.deployment () in
  let profile =
    { total_traps = 0; rounded = 0; overflowed = 0; underflowed = 0;
      denormal = 0; invalid = 0; div_by_zero = 0; sites = Hashtbl.create 64 }
  in
  Mx.unmask_all st.State.mxcsr;
  Trapkern.install_sigfpe kern (fun st frame ->
      let idx = frame.Trapkern.fault_index in
      let events = frame.Trapkern.events in
      count profile events;
      let site =
        match Hashtbl.find_opt profile.sites idx with
        | Some s -> s
        | None ->
            let s =
              { index = idx;
                mnemonic =
                  Format.asprintf "%a" Isa.pp_insn
                    prog.Program.insns.(idx);
                hits = 0;
                events = F.none }
            in
            Hashtbl.replace profile.sites idx s;
            s
      in
      site.hits <- site.hits + 1;
      site.events <- F.union site.events events;
      (* let the instruction run on the "hardware" with events masked *)
      Mx.clear_flags st.State.mxcsr;
      Mx.mask_all st.State.mxcsr;
      (match Cpu.dispatch st idx prog.Program.insns.(idx) with
      | Cpu.Running | Cpu.Halted -> ()
      | Cpu.Fp_fault _ | Cpu.Correctness_fault _ ->
          (* masked re-execution cannot fault *)
          assert false);
      Mx.clear_flags st.State.mxcsr;
      Mx.unmask_all st.State.mxcsr);
  Trapkern.run ~max_insns:c.Engine.max_insns kern st;
  let run_result : Engine.result =
    { Engine.output = State.output st;
      serialized = State.serialized_output st;
      stats = Stats.create ();
      cycles = st.State.cycles;
      insns = st.State.insn_count;
      fp_insns = st.State.fp_insn_count;
      st }
  in
  { run = run_result; profile }

(* Top event sites by hit count. *)
let top_sites ?(n = 10) (p : profile) : site list =
  Hashtbl.fold (fun _ s acc -> s :: acc) p.sites []
  |> List.sort (fun a b -> compare b.hits a.hits)
  |> List.filteri (fun i _ -> i < n)

let pp_profile fmt (p : profile) =
  Format.fprintf fmt
    "@[<v>fp traps: %d@,rounded: %d@,overflowed: %d@,underflowed: %d@,denormal: %d@,invalid: %d@,divide-by-zero: %d@,distinct sites: %d@]"
    p.total_traps p.rounded p.overflowed p.underflowed p.denormal p.invalid
    p.div_by_zero (Hashtbl.length p.sites)

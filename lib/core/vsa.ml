(* Static binary analysis (paper section 4.2) — thin façade.

   The actual work lives in lib/analysis: the precision-tiered pipeline
   (real CFG + strided-interval domain + flow-sensitive taint with
   strong updates, Analysis.Pipeline) produces the sinks, from the one
   fixpoint it shares with the FP tier (Analysis.Fpa.analyze).  This module
   adapts the pipeline's result to the record shape the engine, tests
   and bench consume, and owns the e9patch-style patch application. *)

module Isa = Machine.Isa
module Program = Machine.Program

type analysis = {
  sinks : int list; (* instruction indices needing correctness traps *)
  sources : int list;
  total_int_loads : int;
  proven_safe_loads : int;
  iterations : int;
  pipeline : Analysis.Pipeline.t; (* the full tiered-analysis result *)
  fpa : Analysis.Fpa.t; (* fourth tier: FP special-value verdicts *)
}

(* Bumped whenever a tier is added or a domain changes shape, so fact
   consumers (the fleet's shared Facts store) can key on it and never
   read facts produced by an older analysis. Tiers: 1 strided-interval
   VSA, 2 flow-sensitive taint, 3 traceability, 4 FP special-value.
   Tier 3 is no longer a static table (the engine's trace loop
   classifies each instruction as it reaches it), but it produced no
   facts; the value stays 4 so fleet fact keys and artifact-cache
   session keys do not move. *)
let tier_version = 4

let analyze (prog : Program.t) : analysis =
  let p, fpa = Analysis.Fpa.analyze prog in
  { sinks = List.map (fun s -> s.Analysis.Pipeline.sink_index) p.Analysis.Pipeline.sinks;
    sources = p.Analysis.Pipeline.sources;
    total_int_loads = p.Analysis.Pipeline.total_int_loads;
    proven_safe_loads = p.Analysis.Pipeline.proven_safe_loads;
    iterations = p.Analysis.Pipeline.iterations;
    pipeline = p;
    fpa }

(* e9patch stand-in: rewrite every sink in place with an explicit trap
   to FPVM.  Idempotent: an already-instrumented site (correctness trap
   from a previous application, checked stub, or trap-and-patch rewrite)
   is never wrapped a second time. *)
let apply_patches (prog : Program.t) (a : analysis) =
  List.iter
    (fun i ->
      match prog.Program.insns.(i) with
      | Isa.Correctness_trap _ | Isa.Checked _ | Isa.Patched _ -> ()
      | insn -> prog.Program.insns.(i) <- Isa.Correctness_trap insn)
    a.sinks

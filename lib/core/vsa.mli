(** Static binary analysis and patching (paper section 4.2) — façade
    over the precision-tiered pipeline in [lib/analysis].

    The pipeline ([Analysis.Pipeline], run by [Analysis.Fpa.analyze]
    in one fixpoint with the FP tier) is a forward abstract
    interpretation over the binary's real CFG with a strided-interval
    value domain and flow-sensitive taint, finding the instructions that
    can move floating point data where the hardware cannot trap on it:
    integer loads of FP-written memory ({e sinks} of the Figure 6/7
    idioms), gpr<-xmm bit moves, and xmm bitwise logic.
    {!apply_patches} rewrites each sink with an explicit correctness
    trap (the e9patch stand-in); the engine's trap handler then demotes
    any NaN-boxed operand and single-steps the original instruction. *)

type analysis = {
  sinks : int list;  (** instruction indices needing correctness traps *)
  sources : int list;  (** instructions that taint memory with FP data *)
  total_int_loads : int;
  proven_safe_loads : int;  (** loads the analysis discharged *)
  iterations : int;
      (** block transfers until the abstract fixpoint, which both tiers
          share *)
  pipeline : Analysis.Pipeline.t;
      (** the full tiered-analysis result: sink kinds, taint provenance
          chains, elision and CFG statistics *)
  fpa : Analysis.Fpa.t;
      (** fourth tier: flow-sensitive FP special-value analysis —
          per-site NaN/Inf-birth and subnormal-freedom verdicts with
          provenance, consumed by the JIT (unguarded fusion), numprof
          (shadow-check elision) and [fpvm_run lint] *)
}

val tier_version : int
(** Version of the analysis tier stack; part of the fleet's shared
    [Facts] key so consumers never read facts from an older analysis. *)

val analyze : Machine.Program.t -> analysis
(** Run the tiered pipeline. Pure: does not modify the program.
    Instrumentation wrappers are analyzed through to the original
    instruction. *)

val apply_patches : Machine.Program.t -> analysis -> unit
(** Rewrite every sink instruction in place with
    [Correctness_trap original]. Idempotent: already-instrumented sites
    (Correctness_trap / Checked / Patched) are never wrapped again. *)

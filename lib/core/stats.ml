(* Per-run accounting for the evaluation figures.

   Cycle buckets mirror Figure 9's breakdown: hardware trap cost, kernel
   cost, (user) delivery cost, decode, bind, emulate, garbage collection,
   correctness-trap overhead and correctness-handler work. GC behavior
   (Figure 10) is tracked as pass-by-pass alive/freed counts and
   wall-clock latency. *)

type t = {
  mutable fp_traps : int;
  mutable correctness_traps : int;
  mutable correctness_demotions : int;
  (* correctness-trap deliveries split by what the handler found: the
     wrapped instruction's operand actually held a NaN-boxed value (the
     demotion did work) vs. it was already clean (the conservative
     patch fired for nothing) *)
  mutable corr_demote_boxed : int;
  mutable corr_demote_clean : int;
  mutable patch_invocations : int;
  mutable checked_invocations : int;
  mutable emulated_ops : int;
  mutable emulated_insns : int;
  (* sequence (trace) emulation *)
  mutable traces : int; (* trap deliveries that started a trace *)
  mutable trace_insns : int;
      (* instructions executed while resident, incl. the delivered one *)
  mutable traps_avoided : int;
      (* in-trace FP faults absorbed without a kernel delivery *)
  mutable math_calls : int;
  mutable printf_hijacks : int;
  mutable serialize_demotions : int;
  (* decode cache *)
  mutable decode_hits : int;
  mutable decode_misses : int;
  (* site specialization (binding-plan cache) *)
  mutable plan_hits : int; (* emulations served by a cached superop *)
  mutable plan_misses : int; (* first visits that compiled a plan *)
  mutable plan_invalidations : int;
      (* plans discarded when their site was rewritten (trap-and-patch) *)
  (* in-trace shadow-temp elision *)
  mutable temps_elided : int;
      (* intermediate results kept in the trace scratch buffer instead
         of a fresh Arena.alloc + Nanbox.box round trip *)
  mutable temps_materialized : int;
      (* scratch temps still live at trace exit, promoted to real boxes;
         temps_elided - temps_materialized = arena allocations avoided *)
  (* trace JIT (compiled guarded superblocks). Deterministic for a given
     config, but — like the telemetry gauges — excluded from the
     architectural fingerprint: the fingerprint's 42 fields predate the
     JIT and additive observation/optimization gauges must not churn
     recorded goldens. The cycle bucket [cyc_jit] *is* part of
     [total_fpvm_cycles] (it is real modeled work). *)
  mutable jit_compiles : int; (* hot traces compiled *)
  mutable jit_hits : int; (* trap deliveries served by a superblock *)
  mutable jit_links : int;
      (* compiled-to-compiled back-edge transfers (no delivery paid) *)
  mutable jit_guard_exits : int;
      (* side exits back to the interpreter (shape/taint/patch guards) *)
  mutable jit_invalidations : int;
      (* superblocks dropped when a contained site was rewritten *)
  mutable cyc_jit : int;
      (* superblock compile + entry + per-step + link charges *)
  (* cycle buckets *)
  mutable cyc_hw : int;
  mutable cyc_kernel : int;
  mutable cyc_delivery : int;
  mutable cyc_decode : int;
  mutable cyc_bind : int;
  mutable cyc_plan : int; (* plan compiles + plan-table hits *)
  mutable cyc_emulate : int;
  mutable cyc_emu_dispatch : int;
      (* the op_map-dispatch share of cyc_emulate (a subset, not an
         additional bucket): what site specialization eliminates *)
  mutable cyc_trace : int;
      (* per-instruction trace residency cost; trace-exit context
         restores land in the delivery buckets *)
  mutable cyc_gc : int;
  mutable cyc_correctness : int;
  mutable cyc_correctness_handler : int;
  mutable cyc_patch_checks : int;
  (* gc *)
  mutable gc_passes : int;
  mutable gc_full_passes : int; (* full scans among gc_passes *)
  mutable gc_freed : int;
  mutable gc_alive_last : int;
  mutable gc_words_scanned : int; (* words examined across all passes *)
  mutable gc_latency_s : float;
  (* allocator *)
  mutable boxes_allocated : int;
  mutable eager_frees : int;
      (* shadow values freed by compiler hints rather than the GC *)
  (* record/replay (lib/replay); written by the recorder, not the engine *)
  mutable replay_events : int; (* events appended to the log *)
  mutable replay_checkpoints : int;
  mutable replay_checkpoint_bytes : int; (* total serialized checkpoint size *)
  mutable replay_log_bytes : int;
  (* static-analysis gauges (set once at prepare time) and soundness
     oracle counters. Like the replay_* fields these are excluded from
     the fingerprint and from checkpoints: the oracle is optional
     instrumentation and must not perturb determinism comparisons. *)
  mutable patched_sites : int; (* correctness traps installed by the VSA *)
  mutable patched_sites_boxed : int;
      (* distinct patched sites that ever saw a boxed operand *)
  mutable trap_checks_elided : int;
      (* int loads the analysis proved clean (no patch installed) *)
  mutable oracle_loads_checked : int;
  mutable oracle_boxed_loads : int;
      (* unpatched integer loads that observed a live NaN-boxed word:
         any nonzero value is a soundness violation *)
  (* telemetry gauges (lib/telemetry); written by Telemetry.finalize,
     never by the engine. Like the oracle and replay_* gauges they are
     excluded from the fingerprint and from checkpoints: telemetry is
     optional instrumentation and a run must fingerprint identically
     with it on or off. *)
  mutable tel_events : int; (* telemetry events observed *)
  mutable tel_dropped : int; (* ring-buffer events overwritten (drop-oldest) *)
  (* FP special-value analysis (lib/analysis Fpa tier) gauges. Like the
     VSA/oracle/telemetry gauges: fingerprint- and checkpoint-excluded —
     the analysis must not perturb determinism comparisons (outputs are
     bit-identical with it on or off). *)
  mutable fpa_sites_proven : int;
      (* FP sites with a static proof (subnormal-free or birth-free) *)
  mutable fused_unguarded : int;
      (* fused JIT steps executed without the runtime subnormal scan *)
  mutable shadow_elided : int;
      (* numprof/shadow-check records skipped at proven birth-free sites *)
  mutable jit_fused_steps : int;
      (* superblock steps taking the fused path (emulate_fused) rather
         than a guard exit; the FPA fusion-widening metric *)
  mutable fpa_sub_violations : int;
      (* subnormal raw input seen at a proven-subnormal-free site: any
         nonzero value is a soundness violation (oracle exit 5) *)
  mutable fpa_nan_violations : int;
      (* dynamic NaN/Inf birth at a proven birth-free site: any nonzero
         value is a soundness violation (oracle exit 5) *)
  (* compilation-artifact cache gauges (lib/core Artifact). Like the
     jit_* gauges these are fingerprint- and checkpoint-excluded: the
     cache moves compile charges off-guest but never perturbs the
     architectural counters (warm and cold runs fingerprint
     identically). *)
  mutable blocks_shared : int;
      (* superblocks compiled from a shared recipe (one published by
         another guest, or preloaded from disk); their compile charge
         was elided off-guest *)
  mutable cyc_compile_shared : int;
      (* jit compile cycles elided because the artifact was already
         charged elsewhere (another guest, or a previous run via the
         persistent cache) — the off-guest compile bucket *)
  (* FP-exception flight-recorder gauges (lib/telemetry Flowrec);
     written by Telemetry.finalize. Like tel_* they are fingerprint-
     and checkpoint-excluded: the recorder is pure observation and a
     run must fingerprint identically with it on or off. *)
  mutable flows_open : int; (* NaN/Inf flows still live at run end *)
  mutable flows_completed : int; (* flows that reached a kill/sink *)
  mutable flows_dropped : int;
      (* flows whose chain links were overwritten in the drop-oldest
         ring (the whole chain is dropped atomically) *)
  mutable flows_real : int;
      (* flows the interval ground-truth pass confirmed (the interval
         port also excepts at the birth site, or its enclosure is
         unbounded there) *)
  mutable flows_spurious : int;
      (* flows the interval port refutes: an artifact of the primary
         port's finite precision, not a real numerical failure *)
}

let create () =
  { fp_traps = 0; correctness_traps = 0; correctness_demotions = 0;
    corr_demote_boxed = 0; corr_demote_clean = 0;
    patch_invocations = 0; checked_invocations = 0; emulated_ops = 0;
    emulated_insns = 0; traces = 0; trace_insns = 0; traps_avoided = 0;
    math_calls = 0; printf_hijacks = 0;
    serialize_demotions = 0; decode_hits = 0; decode_misses = 0;
    plan_hits = 0; plan_misses = 0; plan_invalidations = 0;
    temps_elided = 0; temps_materialized = 0;
    jit_compiles = 0; jit_hits = 0; jit_links = 0; jit_guard_exits = 0;
    jit_invalidations = 0; cyc_jit = 0;
    cyc_hw = 0; cyc_kernel = 0; cyc_delivery = 0; cyc_decode = 0;
    cyc_bind = 0; cyc_plan = 0; cyc_emulate = 0; cyc_emu_dispatch = 0;
    cyc_trace = 0; cyc_gc = 0;
    cyc_correctness = 0;
    cyc_correctness_handler = 0; cyc_patch_checks = 0; gc_passes = 0;
    gc_full_passes = 0;
    gc_freed = 0; gc_alive_last = 0; gc_words_scanned = 0;
    gc_latency_s = 0.0;
    boxes_allocated = 0; eager_frees = 0;
    replay_events = 0; replay_checkpoints = 0; replay_checkpoint_bytes = 0;
    replay_log_bytes = 0;
    patched_sites = 0; patched_sites_boxed = 0; trap_checks_elided = 0;
    oracle_loads_checked = 0; oracle_boxed_loads = 0;
    tel_events = 0; tel_dropped = 0;
    fpa_sites_proven = 0; fused_unguarded = 0; shadow_elided = 0;
    jit_fused_steps = 0; fpa_sub_violations = 0; fpa_nan_violations = 0;
    blocks_shared = 0;
    cyc_compile_shared = 0;
    flows_open = 0; flows_completed = 0; flows_dropped = 0;
    flows_real = 0; flows_spurious = 0 }

(* The metric table: every int field of [t] once, with its name and
   class, in checkpoint order. Everything that lists the fields (the
   fingerprint, the checkpoint stats tail, [pp], [to_json]) iterates
   this table, so a new metric is one line here plus its record field.

   - [Counter]: deterministic engine work; in the fingerprint and the
     checkpoint. The fingerprint is the Counters in table order.
   - [Checkpointed]: in the checkpoint only (the recorder's replay_*
     bookkeeping and the trace JIT's counters, which a resumed run must
     continue from but which the fingerprint predates).
   - [Gauge]: in neither (analysis, oracle, telemetry, cache and flow
     observations, which must not perturb determinism comparisons).

   Adding a Counter or Checkpointed entry changes the checkpoint format
   (bump Snapshot.version); adding a Gauge does not. [gc_latency_s], the
   one float, is host time: it is in neither the table nor the
   checkpoint, so two recordings of one run write the same bytes. *)
type cls = Counter | Checkpointed | Gauge

type metric = {
  name : string;
  cls : cls;
  get : t -> int;
  set : t -> int -> unit;
}

let metrics =
  let m name cls get set = { name; cls; get; set } in
  [
    m "fp_traps" Counter (fun t -> t.fp_traps) (fun t v -> t.fp_traps <- v);
    m "correctness_traps" Counter (fun t -> t.correctness_traps) (fun t v -> t.correctness_traps <- v);
    m "correctness_demotions" Counter (fun t -> t.correctness_demotions) (fun t v -> t.correctness_demotions <- v);
    m "patch_invocations" Counter (fun t -> t.patch_invocations) (fun t v -> t.patch_invocations <- v);
    m "checked_invocations" Counter (fun t -> t.checked_invocations) (fun t v -> t.checked_invocations <- v);
    m "emulated_ops" Counter (fun t -> t.emulated_ops) (fun t v -> t.emulated_ops <- v);
    m "emulated_insns" Counter (fun t -> t.emulated_insns) (fun t v -> t.emulated_insns <- v);
    m "traces" Counter (fun t -> t.traces) (fun t v -> t.traces <- v);
    m "trace_insns" Counter (fun t -> t.trace_insns) (fun t v -> t.trace_insns <- v);
    m "traps_avoided" Counter (fun t -> t.traps_avoided) (fun t v -> t.traps_avoided <- v);
    m "math_calls" Counter (fun t -> t.math_calls) (fun t v -> t.math_calls <- v);
    m "printf_hijacks" Counter (fun t -> t.printf_hijacks) (fun t v -> t.printf_hijacks <- v);
    m "serialize_demotions" Counter (fun t -> t.serialize_demotions) (fun t v -> t.serialize_demotions <- v);
    m "decode_hits" Counter (fun t -> t.decode_hits) (fun t v -> t.decode_hits <- v);
    m "decode_misses" Counter (fun t -> t.decode_misses) (fun t v -> t.decode_misses <- v);
    m "cyc_hw" Counter (fun t -> t.cyc_hw) (fun t v -> t.cyc_hw <- v);
    m "cyc_kernel" Counter (fun t -> t.cyc_kernel) (fun t v -> t.cyc_kernel <- v);
    m "cyc_delivery" Counter (fun t -> t.cyc_delivery) (fun t v -> t.cyc_delivery <- v);
    m "cyc_decode" Counter (fun t -> t.cyc_decode) (fun t v -> t.cyc_decode <- v);
    m "cyc_bind" Counter (fun t -> t.cyc_bind) (fun t v -> t.cyc_bind <- v);
    m "cyc_emulate" Counter (fun t -> t.cyc_emulate) (fun t v -> t.cyc_emulate <- v);
    m "cyc_trace" Counter (fun t -> t.cyc_trace) (fun t v -> t.cyc_trace <- v);
    m "cyc_gc" Counter (fun t -> t.cyc_gc) (fun t v -> t.cyc_gc <- v);
    m "cyc_correctness" Counter (fun t -> t.cyc_correctness) (fun t v -> t.cyc_correctness <- v);
    m "cyc_correctness_handler" Counter (fun t -> t.cyc_correctness_handler) (fun t v -> t.cyc_correctness_handler <- v);
    m "cyc_patch_checks" Counter (fun t -> t.cyc_patch_checks) (fun t v -> t.cyc_patch_checks <- v);
    m "gc_passes" Counter (fun t -> t.gc_passes) (fun t v -> t.gc_passes <- v);
    m "gc_full_passes" Counter (fun t -> t.gc_full_passes) (fun t v -> t.gc_full_passes <- v);
    m "gc_freed" Counter (fun t -> t.gc_freed) (fun t v -> t.gc_freed <- v);
    m "gc_alive_last" Counter (fun t -> t.gc_alive_last) (fun t v -> t.gc_alive_last <- v);
    m "gc_words_scanned" Counter (fun t -> t.gc_words_scanned) (fun t v -> t.gc_words_scanned <- v);
    m "boxes_allocated" Counter (fun t -> t.boxes_allocated) (fun t v -> t.boxes_allocated <- v);
    m "eager_frees" Counter (fun t -> t.eager_frees) (fun t v -> t.eager_frees <- v);
    (* the recorder's own bookkeeping *)
    m "replay_events" Checkpointed (fun t -> t.replay_events) (fun t v -> t.replay_events <- v);
    m "replay_checkpoints" Checkpointed (fun t -> t.replay_checkpoints) (fun t v -> t.replay_checkpoints <- v);
    m "replay_checkpoint_bytes" Checkpointed (fun t -> t.replay_checkpoint_bytes) (fun t v -> t.replay_checkpoint_bytes <- v);
    m "replay_log_bytes" Checkpointed (fun t -> t.replay_log_bytes) (fun t v -> t.replay_log_bytes <- v);
    (* appended: the correctness-demotion split *)
    m "corr_demote_boxed" Counter (fun t -> t.corr_demote_boxed) (fun t v -> t.corr_demote_boxed <- v);
    m "corr_demote_clean" Counter (fun t -> t.corr_demote_clean) (fun t v -> t.corr_demote_clean <- v);
    (* v2: site specialization *)
    m "plan_hits" Counter (fun t -> t.plan_hits) (fun t v -> t.plan_hits <- v);
    m "plan_misses" Counter (fun t -> t.plan_misses) (fun t v -> t.plan_misses <- v);
    m "plan_invalidations" Counter (fun t -> t.plan_invalidations) (fun t v -> t.plan_invalidations <- v);
    m "temps_elided" Counter (fun t -> t.temps_elided) (fun t v -> t.temps_elided <- v);
    m "temps_materialized" Counter (fun t -> t.temps_materialized) (fun t v -> t.temps_materialized <- v);
    m "cyc_plan" Counter (fun t -> t.cyc_plan) (fun t v -> t.cyc_plan <- v);
    m "cyc_emu_dispatch" Counter (fun t -> t.cyc_emu_dispatch) (fun t v -> t.cyc_emu_dispatch <- v);
    (* v3: trace JIT *)
    m "jit_compiles" Checkpointed (fun t -> t.jit_compiles) (fun t v -> t.jit_compiles <- v);
    m "jit_hits" Checkpointed (fun t -> t.jit_hits) (fun t v -> t.jit_hits <- v);
    m "jit_links" Checkpointed (fun t -> t.jit_links) (fun t v -> t.jit_links <- v);
    m "jit_guard_exits" Checkpointed (fun t -> t.jit_guard_exits) (fun t v -> t.jit_guard_exits <- v);
    m "jit_invalidations" Checkpointed (fun t -> t.jit_invalidations) (fun t v -> t.jit_invalidations <- v);
    m "cyc_jit" Checkpointed (fun t -> t.cyc_jit) (fun t v -> t.cyc_jit <- v);
    (* gauges, never checkpointed *)
    m "patched_sites" Gauge (fun t -> t.patched_sites) (fun t v -> t.patched_sites <- v);
    m "patched_sites_boxed" Gauge (fun t -> t.patched_sites_boxed) (fun t v -> t.patched_sites_boxed <- v);
    m "trap_checks_elided" Gauge (fun t -> t.trap_checks_elided) (fun t v -> t.trap_checks_elided <- v);
    m "oracle_loads_checked" Gauge (fun t -> t.oracle_loads_checked) (fun t v -> t.oracle_loads_checked <- v);
    m "oracle_boxed_loads" Gauge (fun t -> t.oracle_boxed_loads) (fun t v -> t.oracle_boxed_loads <- v);
    m "tel_events" Gauge (fun t -> t.tel_events) (fun t v -> t.tel_events <- v);
    m "tel_dropped" Gauge (fun t -> t.tel_dropped) (fun t v -> t.tel_dropped <- v);
    m "fpa_sites_proven" Gauge (fun t -> t.fpa_sites_proven) (fun t v -> t.fpa_sites_proven <- v);
    m "fused_unguarded" Gauge (fun t -> t.fused_unguarded) (fun t v -> t.fused_unguarded <- v);
    m "shadow_elided" Gauge (fun t -> t.shadow_elided) (fun t v -> t.shadow_elided <- v);
    m "jit_fused_steps" Gauge (fun t -> t.jit_fused_steps) (fun t v -> t.jit_fused_steps <- v);
    m "fpa_sub_violations" Gauge (fun t -> t.fpa_sub_violations) (fun t v -> t.fpa_sub_violations <- v);
    m "fpa_nan_violations" Gauge (fun t -> t.fpa_nan_violations) (fun t v -> t.fpa_nan_violations <- v);
    m "blocks_shared" Gauge (fun t -> t.blocks_shared) (fun t v -> t.blocks_shared <- v);
    m "cyc_compile_shared" Gauge (fun t -> t.cyc_compile_shared) (fun t v -> t.cyc_compile_shared <- v);
    m "flows_open" Gauge (fun t -> t.flows_open) (fun t v -> t.flows_open <- v);
    m "flows_completed" Gauge (fun t -> t.flows_completed) (fun t v -> t.flows_completed <- v);
    m "flows_dropped" Gauge (fun t -> t.flows_dropped) (fun t v -> t.flows_dropped <- v);
    m "flows_real" Gauge (fun t -> t.flows_real) (fun t v -> t.flows_real <- v);
    m "flows_spurious" Gauge (fun t -> t.flows_spurious) (fun t v -> t.flows_spurious <- v);
  ]

let in_fingerprint m = m.cls = Counter
let in_checkpoint m = m.cls <> Gauge

(* ---- checkpoints ------------------------------------------------------ *)

(* Every checkpointed metric as an i64, in table order (the order is the
   format). *)
let checkpointed = List.filter in_checkpoint metrics

let encode b t =
  List.iter (fun m -> Wire.i64 b (Int64.of_int (m.get t))) checkpointed

let restore s pos t =
  List.iter (fun m -> m.set t (Int64.to_int (Wire.r_i64 s pos))) checkpointed

(* Deterministic counters only: excludes wall-clock GC latency, the
   recorder's own bookkeeping and every gauge, so a recorded run, its
   replay, and a checkpoint-resumed run all fingerprint identically. *)
let fingerprint t =
  String.concat ","
    (List.filter_map
       (fun m -> if in_fingerprint m then Some (string_of_int (m.get t)) else None)
       metrics)

(* Arena allocations avoided by shadow-temp elision: every elided temp
   skipped a box; those still live at trace exit were boxed after all. *)
let allocs_avoided t = t.temps_elided - t.temps_materialized

let total_fpvm_cycles t =
  t.cyc_hw + t.cyc_kernel + t.cyc_delivery + t.cyc_decode + t.cyc_bind
  + t.cyc_plan
  + t.cyc_emulate + t.cyc_trace + t.cyc_jit + t.cyc_gc + t.cyc_correctness
  + t.cyc_correctness_handler
  + t.cyc_patch_checks

(* Mean dynamic length of an emulation trace (>= 1; exactly 1 when
   sequence emulation is off). *)
let mean_trace_len t =
  if t.traces = 0 then 0.0
  else float_of_int t.trace_insns /. float_of_int t.traces

(* Average cost of virtualizing one floating point instruction (the Fig 9
   metric), with its component breakdown. *)
type breakdown = {
  events : int;
  avg_total : float;
  avg_hw : float;
  avg_kernel : float;
  avg_delivery : float;
  avg_decode : float;
  avg_bind : float;
  avg_plan : float;
  avg_emulate : float;
  avg_emu_dispatch : float;
  avg_trace : float;
  avg_jit : float;
  avg_gc : float;
  avg_correctness : float;
  avg_correctness_handler : float;
}

let breakdown t =
  let n = max 1 (t.fp_traps + t.checked_invocations + t.patch_invocations) in
  let f v = float_of_int v /. float_of_int n in
  { events = n;
    avg_total = f (total_fpvm_cycles t);
    avg_hw = f t.cyc_hw;
    avg_kernel = f t.cyc_kernel;
    avg_delivery = f t.cyc_delivery;
    avg_decode = f t.cyc_decode;
    avg_bind = f t.cyc_bind;
    avg_plan = f t.cyc_plan;
    avg_emulate = f t.cyc_emulate;
    avg_emu_dispatch = f t.cyc_emu_dispatch;
    avg_trace = f t.cyc_trace;
    avg_jit = f t.cyc_jit;
    avg_gc = f t.cyc_gc;
    avg_correctness = f t.cyc_correctness;
    avg_correctness_handler = f t.cyc_correctness_handler }

(* Every metric, one "name value" line each, in table order. *)
let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list (fun fmt m ->
         Format.fprintf fmt "%-24s %d" m.name (m.get t)))
    metrics

(* Every metric as a JSON member under its own name, in table order. *)
let to_json t = List.map (fun m -> (m.name, Json.Int (m.get t))) metrics

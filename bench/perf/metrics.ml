(* The benchmark's metrics: names, units and directions (mirrored in
   BENCHMARK.json, which adds the bounds), and the order statistics
   that summarize them. *)

type better = Lower | Higher

type def = { name : string; unit : string; better : better }

let def name unit better = { name; unit; better }

(* Measured with tracing off. Every one but set-up is a ratio of
   measurements taken side by side, so the machine's drifting speed
   cancels out of it. *)
let end_to_end =
  [ def "setup_s" "s" Lower;
    def "host_slowdown" "x" Lower;
    def "modeled_slowdown" "x" Lower;
    def "peak_rss_mb" "MB" Lower ]

(* Measured in a traced run (see [Runner.per_layer]). A layer a
   workload does not exercise reads 0. *)
let per_layer =
  [ def "host.run_s" "s" Lower;
    def "host.run_s_p75" "s" Lower;
    def "host.guest_mips" "Minsn/s" Higher;
    def "analysis.s" "s" Lower;
    def "analysis.calls" "count" Lower;
    def "analysis.us_per_insn" "us/insn" Lower;
    def "analysis.iterations" "count" Lower;
    def "engine.prepare_s" "s" Lower;
    def "engine.self_s" "s" Lower;
    def "engine.ns_per_insn" "ns/insn" Lower;
    def "engine.fp_traps" "count" Lower;
    def "engine.traces" "count" Lower;
    def "engine.plan_hit_ratio" "ratio" Higher;
    def "engine.jit_hit_ratio" "ratio" Higher;
    def "engine.jit_compiles" "count" Lower;
    def "engine.guard_exit_ratio" "ratio" Lower;
    def "arith.calls" "count" Lower;
    def "arith.s" "s" Lower;
    def "arith.share" "ratio" Lower;
    def "arith.ns_per_call" "ns/call" Lower;
    def "arith.basic.ns_per_call" "ns/call" Lower;
    def "arith.sqrt_fma.ns_per_call" "ns/call" Lower;
    def "arith.libm.ns_per_call" "ns/call" Lower;
    def "arith.convert.ns_per_call" "ns/call" Lower;
    def "arith.compare.ns_per_call" "ns/call" Lower;
    def "arena.gc_s" "s" Lower;
    def "arena.gc_passes" "count" Lower;
    def "arena.words_scanned" "count" Lower;
    def "arena.freed_ratio" "ratio" Higher;
    def "arena.boxes_per_fp_insn" "boxes/insn" Lower;
    def "machine.native_s" "s" Lower;
    def "machine.ns_per_insn" "ns/insn" Lower;
    def "ocaml.minor_words_per_insn" "words/insn" Lower;
    def "ocaml.promoted_words_per_insn" "words/insn" Lower;
    def "ocaml.major_collections" "count" Lower;
    def "replay.record_s" "s" Lower;
    def "replay.replay_s" "s" Lower;
    def "replay.restore_s" "s" Lower;
    def "replay.events" "count" Lower;
    def "replay.log_bytes_per_event" "B/event" Lower;
    def "replay.checkpoints" "count" Lower;
    def "replay.checkpoint_kb" "KB" Lower;
    def "replay.record_overhead" "x" Lower;
    def "replay.debug_overhead" "x" Lower;
    def "telemetry.profile_s" "s" Lower;
    def "telemetry.numprof_s" "s" Lower;
    def "telemetry.flowrec_s" "s" Lower;
    def "telemetry.events" "count" Lower;
    def "telemetry.ns_per_event" "ns/event" Lower;
    def "telemetry.flows" "count" Lower;
    def "artifact.blocks_published" "count" Lower;
    def "artifact.blocks_shared" "count" Higher;
    def "artifact.share_ratio" "ratio" Higher;
    def "fleet.serve_s" "s" Lower;
    def "fleet.guests_per_s" "guests/s" Higher;
    def "fleet.switches" "count" Lower;
    def "fleet.facts_misses" "count" Lower;
    def "bench.trace_overhead" "x" Lower ]

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("better must be lower or higher: " ^ s)

let string_of_better = function Lower -> "lower" | Higher -> "higher"

(* ---- order statistics --------------------------------------------------- *)

let sorted l = List.sort Float.compare l |> Array.of_list

(* Quartile [i] (1, 2 or 3) as Python's [statistics.quantiles l ~n:4]
   computes it (the default "exclusive" method), so spreads computed
   here match the ones computed there. *)
let quartile i (l : float list) =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let iqr l = quartile 3 l -. quartile 1 l

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per-site hot-spot attribution.

   Every structural telemetry event carries the exact modeled-cycle
   charge the engine applied, keyed by instruction index, so the
   profile is an exact decomposition: summing every site's buckets
   plus the run-global GC bucket reproduces Stats.total_fpvm_cycles
   with no remainder (the engine's charge sites and the probe's
   emission sites are paired one-to-one).

   Site buckets:
   - delivery     trap round trips + correctness-trap round trips +
                  trace-exit context restores charged at this site
   - emulate      decode + bind + plan + emulate (incl. dispatch) for
                  every emulation whose faulting/served index is here,
                  and interposed math calls at this call site
   - trace        per-instruction residency charges of trace windows
                  headed here
   - jit          trace-JIT charges of windows headed here: superblock
                  compiles, entry guards, per-step charges and
                  compiled-to-compiled link transfers
   - correctness  correctness handler (single-step) work
   - patch        trap-and-patch inline check charges *)

type site = {
  mutable traps : int;
  mutable absorbed : int;
  mutable emulations : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_invalidations : int;
  mutable temps_elided : int;
  mutable demotions : int;
  mutable corr_traps : int;
  mutable patch_checks : int;
  mutable traces : int;
  mutable trace_insns : int;
  mutable jit_compiles : int;
  mutable jit_execs : int;
  mutable jit_insns : int; (* instructions run compiled, windows headed here *)
  mutable jit_invalidations : int;
  mutable cyc_delivery : int;
  mutable cyc_emulate : int;
  mutable cyc_trace : int;
  mutable cyc_jit : int;
  mutable cyc_correctness : int;
  mutable cyc_patch : int;
}

type t = {
  sites : site Store.Sites.t;
  mutable gc_cycles : int; (* run-global: the one untracked-by-site bucket *)
  mutable gc_passes : int;
  mutable checkpoints : int;
}

let fresh_site () =
  { traps = 0; absorbed = 0; emulations = 0; plan_hits = 0; plan_misses = 0;
    plan_invalidations = 0; temps_elided = 0; demotions = 0; corr_traps = 0;
    patch_checks = 0; traces = 0; trace_insns = 0;
    jit_compiles = 0; jit_execs = 0; jit_insns = 0; jit_invalidations = 0;
    cyc_delivery = 0; cyc_emulate = 0; cyc_trace = 0; cyc_jit = 0;
    cyc_correctness = 0; cyc_patch = 0 }

let create () =
  { sites = Store.Sites.create fresh_site; gc_cycles = 0; gc_passes = 0;
    checkpoints = 0 }

let site_for t i = Store.Sites.get t.sites i

let record t (ev : Fpvm.Probe.tel) =
  match ev with
  | Fpvm.Probe.T_trap { index; delivery; _ } ->
      let s = site_for t index in
      s.traps <- s.traps + 1;
      s.cyc_delivery <- s.cyc_delivery + delivery
  | Fpvm.Probe.T_absorbed { index; _ } ->
      let s = site_for t index in
      s.absorbed <- s.absorbed + 1
  | Fpvm.Probe.T_trace_enter _ -> ()
  | Fpvm.Probe.T_trace_exit { index; insns; step_cycles; exit_cycles } ->
      let s = site_for t index in
      s.traces <- s.traces + 1;
      s.trace_insns <- s.trace_insns + insns;
      s.cyc_trace <- s.cyc_trace + step_cycles;
      s.cyc_delivery <- s.cyc_delivery + exit_cycles
  | Fpvm.Probe.T_plan_hit { index } ->
      (site_for t index).plan_hits <- (site_for t index).plan_hits + 1
  | Fpvm.Probe.T_plan_miss { index } ->
      (site_for t index).plan_misses <- (site_for t index).plan_misses + 1
  | Fpvm.Probe.T_plan_invalidate { index } ->
      let s = site_for t index in
      s.plan_invalidations <- s.plan_invalidations + 1
  | Fpvm.Probe.T_emulate { index; cycles; elided } ->
      let s = site_for t index in
      s.emulations <- s.emulations + 1;
      s.cyc_emulate <- s.cyc_emulate + cycles;
      s.temps_elided <- s.temps_elided + elided
  | Fpvm.Probe.T_patch_check { index; cycles } ->
      let s = site_for t index in
      s.patch_checks <- s.patch_checks + 1;
      s.cyc_patch <- s.cyc_patch + cycles
  | Fpvm.Probe.T_jit_compile { index; cycles; _ } ->
      let s = site_for t index in
      s.jit_compiles <- s.jit_compiles + 1;
      s.cyc_jit <- s.cyc_jit + cycles
  | Fpvm.Probe.T_jit_exec { index; steps; cycles } ->
      let s = site_for t index in
      s.jit_execs <- s.jit_execs + 1;
      s.jit_insns <- s.jit_insns + steps;
      s.cyc_jit <- s.cyc_jit + cycles
  | Fpvm.Probe.T_jit_invalidate { index } ->
      let s = site_for t index in
      s.jit_invalidations <- s.jit_invalidations + 1
  | Fpvm.Probe.T_gc { cycles; _ } ->
      t.gc_passes <- t.gc_passes + 1;
      t.gc_cycles <- t.gc_cycles + cycles
  | Fpvm.Probe.T_correctness { index; delivery; handler } ->
      let s = site_for t index in
      s.corr_traps <- s.corr_traps + 1;
      s.cyc_delivery <- s.cyc_delivery + delivery;
      s.cyc_correctness <- s.cyc_correctness + handler
  | Fpvm.Probe.T_demote { index; count } ->
      let s = site_for t index in
      s.demotions <- s.demotions + count
  | Fpvm.Probe.T_checkpoint _ -> t.checkpoints <- t.checkpoints + 1

let site_cycles s =
  s.cyc_delivery + s.cyc_emulate + s.cyc_trace + s.cyc_jit
  + s.cyc_correctness + s.cyc_patch

(* Cycles the profile attributes anywhere: per-site buckets plus the
   run-global GC bucket. Equals [Stats.total_fpvm_cycles] exactly. *)
let tracked_cycles t =
  Store.Sites.fold (fun _ s sum -> sum + site_cycles s) t.sites t.gc_cycles

(* Top [n] sites by attributed cycles, hottest first. *)
let top t n =
  Store.Sites.fold
    (fun i s all ->
      if site_cycles s > 0 || s.absorbed > 0 then (i, s) :: all else all)
    t.sites []
  |> List.sort (fun (i1, s1) (i2, s2) ->
         match compare (site_cycles s2) (site_cycles s1) with
         | 0 -> compare i1 i2
         | c -> c)
  |> List.filteri (fun k _ -> k < n)

let schema_version = 1

let report_text ?(n = 10) t (stats : Fpvm.Stats.t) bb =
  let total = Fpvm.Stats.total_fpvm_cycles stats in
  let tracked = tracked_cycles t in
  Buffer.add_string bb
    (Printf.sprintf
       "hot sites (top %d by attributed cycles; total fpvm %d, attributed %d + gc %d, remainder %d)\n"
       n total (tracked - t.gc_cycles) t.gc_cycles (total - tracked));
  Buffer.add_string bb
    "  site     cycles  %fpvm    traps absorbed     emul plan h/m  deliv_cyc    emu_cyc  trace_cyc    jit_cyc corr patch\n";
  List.iter
    (fun (i, s) ->
      Buffer.add_string bb
        (Printf.sprintf
           "  %4d %10d %5.1f%% %8d %8d %8d %4d/%-4d %10d %10d %10d %10d %4d %5d\n"
           i (site_cycles s)
           (if total = 0 then 0.0
            else 100.0 *. float_of_int (site_cycles s) /. float_of_int total)
           s.traps s.absorbed s.emulations s.plan_hits s.plan_misses
           s.cyc_delivery s.cyc_emulate s.cyc_trace s.cyc_jit s.corr_traps
           s.patch_checks))
    (top t n)

let report_json ?(n = 10) t (stats : Fpvm.Stats.t) =
  let module J = Fpvm.Json in
  let site (i, s) =
    J.Obj
      (J.ints
         [ ("site", i); ("cycles", site_cycles s); ("traps", s.traps);
           ("absorbed", s.absorbed); ("emulations", s.emulations);
           ("plan_hits", s.plan_hits); ("plan_misses", s.plan_misses);
           ("plan_invalidations", s.plan_invalidations);
           ("temps_elided", s.temps_elided); ("demotions", s.demotions);
           ("corr_traps", s.corr_traps); ("patch_checks", s.patch_checks);
           ("traces", s.traces); ("trace_insns", s.trace_insns);
           ("jit_compiles", s.jit_compiles); ("jit_execs", s.jit_execs);
           ("jit_insns", s.jit_insns);
           ("jit_invalidations", s.jit_invalidations);
           ("cyc_delivery", s.cyc_delivery); ("cyc_emulate", s.cyc_emulate);
           ("cyc_trace", s.cyc_trace); ("cyc_jit", s.cyc_jit);
           ("cyc_correctness", s.cyc_correctness);
           ("cyc_patch", s.cyc_patch) ])
  in
  J.Obj
    (J.ints
       [ ("schema_version", schema_version);
         ("total_fpvm_cycles", Fpvm.Stats.total_fpvm_cycles stats);
         ("tracked_cycles", tracked_cycles t); ("gc_cycles", t.gc_cycles);
         ("gc_passes", t.gc_passes); ("checkpoints", t.checkpoints) ]
    @ [ ("sites", J.Arr (List.map site (top t n))) ])

(* Telemetry subsystem tests.

   The contract under test: telemetry is pure observation. A run's
   deterministic fingerprint is identical with collectors attached or
   not, on every arithmetic port and both GC modes; the per-site
   profile plus the run-global GC bucket reproduces total_fpvm_cycles
   exactly; the shadow numerical check is zero by construction on the
   vanilla port and nonzero under low-precision MPFR; and instrumented
   checkpoint/restore neither perturbs replay nor loses telemetry.

   Also pinned here (satellite): the exact field set and order of
   Stats.fingerprint — the replay/divergence machinery depends on that
   string, so growing it (or reordering it) must be a conscious,
   test-breaking act — and the breakdown divisor/bucket arithmetic. *)

module W = Workloads

let scale = W.Test

let cfg ?(use_plans = true) ?(incremental_gc = true)
    ?(approach = Fpvm.Engine.Trap_and_emulate) ?(trace_len = 16) () =
  { Fpvm.Engine.default_config with
    Fpvm.Engine.approach; use_plans; incremental_gc;
    Fpvm.Engine.max_trace_len = trace_len }

let lorenz () =
  match W.find "lorenz" with
  | Some e -> e.W.program scale
  | None -> failwith "no lorenz workload"

(* Run a program on port [A], optionally with collectors attached.
   Returns (stats, telemetry). *)
module Probe_run (A : Fpvm.Arith.S) = struct
  module E = Fpvm.Engine.Make (A)

  let go ?(trace = false) ?(profile = false) ?(shadow = false) ~config prog =
    let ses = E.prepare ~config prog in
    let tel =
      if trace || profile || shadow then
        Some (Telemetry.create ~trace ~profile ~shadow ())
      else None
    in
    (match tel with
    | Some t -> Telemetry.attach t (E.probe ses.E.eng)
    | None -> ());
    let r = E.resume ses in
    (match tel with
    | Some t -> Telemetry.finalize t r.Fpvm.Engine.stats
    | None -> ());
    (r.Fpvm.Engine.stats, tel)
end

module R_vanilla = Probe_run (Fpvm.Alt_vanilla)
module R_mpfr = Probe_run (Fpvm.Alt_mpfr)

let profile_of tel =
  match tel with
  | Some { Telemetry.profile = Some p; _ } -> p
  | _ -> Alcotest.fail "expected a profile collector"

let numprof_of tel =
  match tel with
  | Some { Telemetry.numprof = Some np; _ } -> np
  | _ -> Alcotest.fail "expected a numprof collector"

(* ---- Stats.fingerprint golden --------------------------------------- *)

(* Every covered field set to a distinct value, in fingerprint order.
   If the field set, the order, or the encoding changes, this exact
   string changes with it. *)
let test_fingerprint_golden () =
  let s = Fpvm.Stats.create () in
  s.Fpvm.Stats.fp_traps <- 1;
  s.Fpvm.Stats.correctness_traps <- 2;
  s.Fpvm.Stats.correctness_demotions <- 3;
  s.Fpvm.Stats.patch_invocations <- 4;
  s.Fpvm.Stats.checked_invocations <- 5;
  s.Fpvm.Stats.emulated_ops <- 6;
  s.Fpvm.Stats.emulated_insns <- 7;
  s.Fpvm.Stats.traces <- 8;
  s.Fpvm.Stats.trace_insns <- 9;
  s.Fpvm.Stats.traps_avoided <- 10;
  s.Fpvm.Stats.math_calls <- 11;
  s.Fpvm.Stats.printf_hijacks <- 12;
  s.Fpvm.Stats.serialize_demotions <- 13;
  s.Fpvm.Stats.decode_hits <- 14;
  s.Fpvm.Stats.decode_misses <- 15;
  s.Fpvm.Stats.cyc_hw <- 16;
  s.Fpvm.Stats.cyc_kernel <- 17;
  s.Fpvm.Stats.cyc_delivery <- 18;
  s.Fpvm.Stats.cyc_decode <- 19;
  s.Fpvm.Stats.cyc_bind <- 20;
  s.Fpvm.Stats.cyc_emulate <- 21;
  s.Fpvm.Stats.cyc_trace <- 22;
  s.Fpvm.Stats.cyc_gc <- 23;
  s.Fpvm.Stats.cyc_correctness <- 24;
  s.Fpvm.Stats.cyc_correctness_handler <- 25;
  s.Fpvm.Stats.cyc_patch_checks <- 26;
  s.Fpvm.Stats.gc_passes <- 27;
  s.Fpvm.Stats.gc_full_passes <- 28;
  s.Fpvm.Stats.gc_freed <- 29;
  s.Fpvm.Stats.gc_alive_last <- 30;
  s.Fpvm.Stats.gc_words_scanned <- 31;
  s.Fpvm.Stats.boxes_allocated <- 32;
  s.Fpvm.Stats.eager_frees <- 33;
  s.Fpvm.Stats.corr_demote_boxed <- 34;
  s.Fpvm.Stats.corr_demote_clean <- 35;
  s.Fpvm.Stats.plan_hits <- 36;
  s.Fpvm.Stats.plan_misses <- 37;
  s.Fpvm.Stats.plan_invalidations <- 38;
  s.Fpvm.Stats.temps_elided <- 39;
  s.Fpvm.Stats.temps_materialized <- 40;
  s.Fpvm.Stats.cyc_plan <- 41;
  s.Fpvm.Stats.cyc_emu_dispatch <- 42;
  (* Lock membership and order of the 42 covered fields while
     tolerating additive growth: new deterministic counters may be
     appended (a conscious, reviewed act records them here), but the
     existing prefix must never reorder, drop, or re-encode — the
     replay/divergence machinery compares these strings. Appended
     fields must read 0 for counters this test never set. *)
  let locked = List.init 42 (fun i -> string_of_int (i + 1)) in
  let check_fp label =
    let fields = String.split_on_char ',' (Fpvm.Stats.fingerprint s) in
    let n = List.length fields in
    Alcotest.(check bool)
      (label ^ ": at least the 42 locked fields") true (n >= 42);
    Alcotest.(check (list string))
      (label ^ ": locked prefix intact") locked
      (List.filteri (fun i _ -> i < 42) fields);
    List.iteri
      (fun i v ->
        if i >= 42 then
          Alcotest.(check string)
            (Printf.sprintf "%s: appended field %d untouched" label i)
            "0" v)
      fields
  in
  check_fp "fingerprint field set and order";
  (* The observation-only gauges must NOT contribute. *)
  s.Fpvm.Stats.tel_events <- 999999;
  s.Fpvm.Stats.tel_dropped <- 888;
  s.Fpvm.Stats.gc_latency_s <- 3.14;
  s.Fpvm.Stats.replay_events <- 77;
  s.Fpvm.Stats.replay_checkpoints <- 7;
  s.Fpvm.Stats.replay_checkpoint_bytes <- 7777;
  s.Fpvm.Stats.replay_log_bytes <- 77777;
  s.Fpvm.Stats.patched_sites <- 5;
  s.Fpvm.Stats.patched_sites_boxed <- 4;
  s.Fpvm.Stats.trap_checks_elided <- 3;
  s.Fpvm.Stats.oracle_loads_checked <- 2;
  s.Fpvm.Stats.oracle_boxed_loads <- 1;
  (* ... nor the trace-JIT gauges: jit traffic moves cycles between
     buckets the fingerprint already covers, and the jit counters
     themselves are reporting surface (see Stats), not identity. *)
  s.Fpvm.Stats.jit_compiles <- 9;
  s.Fpvm.Stats.jit_hits <- 8;
  s.Fpvm.Stats.jit_links <- 7;
  s.Fpvm.Stats.jit_guard_exits <- 6;
  s.Fpvm.Stats.jit_invalidations <- 5;
  s.Fpvm.Stats.cyc_jit <- 12345;
  check_fp "gauges excluded from fingerprint"

(* ---- the metric table ------------------------------------------------ *)

(* The table declares every int field of Stats.t exactly once: it has
   one entry per field but gc_latency_s, no two entries share a name or
   a field, and the classes split the way the fingerprint (42 Counters)
   and the checkpoint (those plus 10 Checkpointed) expect. *)
let test_metric_table () =
  let module S = Fpvm.Stats in
  let ms = S.metrics in
  let n = List.length ms in
  Alcotest.(check int) "one entry per int field (+ gc_latency_s)"
    (Obj.size (Obj.repr (S.create ()))) (n + 1);
  let names = List.map (fun (m : S.metric) -> m.S.name) ms in
  Alcotest.(check int) "names are unique" n
    (List.length (List.sort_uniq compare names));
  let s = S.create () in
  List.iteri (fun i (m : S.metric) -> m.S.set s (i + 1)) ms;
  List.iteri
    (fun i (m : S.metric) ->
      Alcotest.(check int) (m.S.name ^ " reads its own field") (i + 1) (m.S.get s))
    ms;
  let count c = List.length (List.filter (fun (m : S.metric) -> m.S.cls = c) ms) in
  Alcotest.(check (list int)) "Counter / Checkpointed / Gauge" [ 42; 10; 20 ]
    [ count S.Counter; count S.Checkpointed; count S.Gauge ]

(* ---- the JSON writer --------------------------------------------------- *)

let test_json () =
  let module J = Fpvm.Json in
  let pin label expected v = Alcotest.(check string) label expected (J.to_string v) in
  pin "escapes" {|"q\"b\\n\nc\u0001"|} (J.Str "q\"b\\n\nc\001");
  pin "non-finite floats" "[null,null,null,0.5,-3,1e+300]"
    (J.Arr
       [ J.Float Float.nan; J.Float Float.infinity; J.Float Float.neg_infinity;
         J.Float 0.5; J.Float (-3.0); J.Float 1e300 ]);
  pin "empty containers" {|[[],{}]|} (J.Arr [ J.Arr []; J.Obj [] ]);
  pin "nested" {|{"a":[1,{"b":null,"c":true}],"d":{"e":[]},"f":"x"}|}
    (J.Obj
       [ ("a", J.Arr [ J.Int 1; J.Obj [ ("b", J.Null); ("c", J.Bool true) ] ]);
         ("d", J.Obj [ ("e", J.Arr []) ]);
         ("f", J.Str "x") ])

(* ---- breakdown arithmetic ------------------------------------------- *)

let test_breakdown () =
  let s = Fpvm.Stats.create () in
  s.Fpvm.Stats.fp_traps <- 3;
  s.Fpvm.Stats.checked_invocations <- 4;
  s.Fpvm.Stats.patch_invocations <- 5;
  s.Fpvm.Stats.cyc_hw <- 100;
  s.Fpvm.Stats.cyc_kernel <- 200;
  s.Fpvm.Stats.cyc_delivery <- 300;
  s.Fpvm.Stats.cyc_decode <- 400;
  s.Fpvm.Stats.cyc_bind <- 500;
  s.Fpvm.Stats.cyc_plan <- 600;
  s.Fpvm.Stats.cyc_emulate <- 700;
  s.Fpvm.Stats.cyc_trace <- 800;
  s.Fpvm.Stats.cyc_gc <- 900;
  s.Fpvm.Stats.cyc_correctness <- 1000;
  s.Fpvm.Stats.cyc_correctness_handler <- 1100;
  s.Fpvm.Stats.cyc_patch_checks <- 1200;
  let total = 100 + 200 + 300 + 400 + 500 + 600 + 700 + 800 + 900
              + 1000 + 1100 + 1200 in
  Alcotest.(check int)
    "total_fpvm_cycles sums all twelve buckets" total
    (Fpvm.Stats.total_fpvm_cycles s);
  let b = Fpvm.Stats.breakdown s in
  Alcotest.(check int)
    "events = fp_traps + checked + patch" 12 b.Fpvm.Stats.events;
  Alcotest.(check (float 1e-9))
    "avg_total = total / events"
    (float_of_int total /. 12.0)
    b.Fpvm.Stats.avg_total;
  Alcotest.(check (float 1e-9))
    "avg_gc = cyc_gc / events" 75.0 b.Fpvm.Stats.avg_gc;
  (* Zero events must not divide by zero. *)
  let z = Fpvm.Stats.create () in
  let bz = Fpvm.Stats.breakdown z in
  Alcotest.(check int) "events floor is 1" 1 bz.Fpvm.Stats.events;
  Alcotest.(check (float 0.0)) "empty avg_total" 0.0 bz.Fpvm.Stats.avg_total

(* ---- fingerprint identity: telemetry on vs off ----------------------- *)

let test_identity () =
  let prog = lorenz () in
  let run name go_off go_on =
    List.iter
      (fun inc ->
        let config = cfg ~incremental_gc:inc () in
        let s_off, _ = go_off ~config prog in
        let s_on, _ = go_on ~config prog in
        Alcotest.(check string)
          (Printf.sprintf "%s incremental_gc=%b" name inc)
          (Fpvm.Stats.fingerprint s_off)
          (Fpvm.Stats.fingerprint s_on))
      [ true; false ]
  in
  run "vanilla"
    (fun ~config p -> R_vanilla.go ~config p)
    (fun ~config p ->
      R_vanilla.go ~trace:true ~profile:true ~shadow:true ~config p);
  run "mpfr"
    (fun ~config p -> R_mpfr.go ~config p)
    (fun ~config p ->
      R_mpfr.go ~trace:true ~profile:true ~shadow:true ~config p)

(* ---- profile reconciliation ------------------------------------------ *)

let test_profile_exact () =
  let prog = lorenz () in
  List.iter
    (fun (name, config) ->
      let s, tel = R_mpfr.go ~profile:true ~config prog in
      let p = profile_of tel in
      Alcotest.(check int)
        (name ^ ": tracked == total_fpvm_cycles")
        (Fpvm.Stats.total_fpvm_cycles s)
        (Telemetry.Profile.tracked_cycles p))
    [ ("emulate/incremental", cfg ());
      ("emulate/full-gc", cfg ~incremental_gc:false ());
      ("emulate/no-plans", cfg ~use_plans:false ());
      ("patch", cfg ~approach:Fpvm.Engine.Trap_and_patch ()) ]

(* ---- ring trace export ----------------------------------------------- *)

let test_trace_export () =
  let prog = lorenz () in
  let _, tel = R_vanilla.go ~trace:true ~config:(cfg ()) prog in
  match tel with
  | Some { Telemetry.trace = Some tr; _ } ->
      Alcotest.(check bool) "events recorded" true
        (Telemetry.Trace.recorded tr > 0);
      let body = Fpvm.Json.to_string (Telemetry.Trace.export_json tr) in
      let has needle =
        let n = String.length needle and m = String.length body in
        let rec at i =
          i + n <= m && (String.sub body i n = needle || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) "object" true (body.[0] = '{');
      Alcotest.(check bool) "schema_version" true
        (has "\"schema_version\"");
      Alcotest.(check bool) "traceEvents array" true
        (has "\"traceEvents\"");
      Alcotest.(check bool) "phase fields" true (has "\"ph\"")
  | _ -> Alcotest.fail "expected a trace collector"

(* A tiny ring must drop oldest, never crash, and keep counting. *)
let test_trace_bounded () =
  let prog = lorenz () in
  let ses = R_vanilla.E.prepare ~config:(cfg ()) prog in
  let t = Telemetry.create ~trace:true ~trace_capacity:8 () in
  Telemetry.attach t (R_vanilla.E.probe ses.R_vanilla.E.eng);
  let _ = R_vanilla.E.resume ses in
  match t.Telemetry.trace with
  | Some tr ->
      Alcotest.(check bool) "ring stayed bounded" true
        (Telemetry.Trace.length tr <= 8);
      Alcotest.(check int) "recorded = length + dropped"
        (Telemetry.Trace.recorded tr)
        (Telemetry.Trace.length tr + Telemetry.Trace.dropped tr);
      Alcotest.(check bool) "oldest were dropped" true
        (Telemetry.Trace.dropped tr > 0)
  | None -> Alcotest.fail "expected a trace collector"

(* ---- shadow numerical check ------------------------------------------ *)

let test_shadow_vanilla_zero () =
  let prog = lorenz () in
  let _, tel = R_vanilla.go ~shadow:true ~config:(cfg ()) prog in
  Alcotest.(check (float 0.0))
    "vanilla max relative error is exactly zero" 0.0
    (Telemetry.Numprof.max_rel_err (numprof_of tel))

let test_shadow_mpfr_low_prec () =
  let prog = lorenz () in
  let module R8 = Probe_run (Fpvm.Alt_mpfr.Make (struct let prec = 8 end)) in
  let _, tel = R8.go ~shadow:true ~config:(cfg ()) prog in
  Alcotest.(check bool)
    "8-bit mpfr shows nonzero error at sinks" true
    (Telemetry.Numprof.max_rel_err (numprof_of tel) > 0.0)

(* An infinity against a finite value or the opposite infinity is an
   infinite divergence: it lands in the last histogram bucket and sets
   the run's maximum error. *)
let test_relerr_infinite () =
  let module N = Telemetry.Numprof in
  let b = Int64.bits_of_float in
  let inf = Float.infinity and ninf = Float.neg_infinity in
  List.iter
    (fun (label, x, y) ->
      Alcotest.(check (float 0.0)) label inf (N.relerr (b x) (b y)))
    [ ("inf vs 1", inf, 1.0); ("1 vs inf", 1.0, inf); ("inf vs -inf", inf, ninf);
      ("-inf vs 0", ninf, 0.0) ];
  Alcotest.(check (float 0.0)) "inf vs inf" 0.0 (N.relerr (b inf) (b inf));
  Alcotest.(check int) "bucket_of inf" (N.n_buckets - 1) (N.bucket_of inf);
  let t = N.create ~shadow:true () in
  N.observe_sink t 7 (N.relerr (b inf) (b 1.0));
  Alcotest.(check (float 0.0)) "max_rel_err" inf (N.max_rel_err t);
  Alcotest.(check int) "max_err_site" 7 t.N.max_err_site;
  Alcotest.(check int) "last bucket" 1 t.N.hist.(N.n_buckets - 1);
  Alcotest.(check int) "one sink, nothing else binned" 1
    (Array.fold_left ( + ) 0 t.N.hist)

(* ---- NaN / Inf flow tracking ----------------------------------------- *)

let exceptional_src : Fpvm_ir.Ast.program =
  let open Fpvm_ir.Ast in
  { name = "exceptional";
    decls =
      [ Fscalar ("x", 1.0); Fscalar ("z", 0.0); Fscalar ("inf", 0.0);
        Fscalar ("nan", 0.0) ];
    body =
      [ Fset ("inf", fv "x" /: fv "z"); (* inf birth *)
        Fset ("nan", fv "inf" -: fv "inf"); (* nan birth from inf-inf *)
        Fset ("nan", fv "nan" +: f 1.0); (* nan propagation *)
        Print_f (fv "inf");
        Print_f (fv "nan") ] }

let test_nan_inf_births () =
  let prog = Fpvm_ir.Codegen.compile_program exceptional_src in
  let _, tel = R_vanilla.go ~shadow:true ~config:(cfg ()) prog in
  let np = numprof_of tel in
  let nb, np_, _nk, ib, _ip, _ik = Telemetry.Numprof.totals np in
  Alcotest.(check bool) "saw an Inf birth" true (ib >= 1);
  Alcotest.(check bool) "saw a NaN birth" true (nb >= 1);
  Alcotest.(check bool) "saw NaN propagation" true (np_ >= 1)

(* ---- checkpoint/restore under instrumentation ------------------------ *)

module RS = Replay.Session.Make (Fpvm.Alt_mpfr)

let test_checkpoint_instrumented () =
  let prog = lorenz () in
  let config = cfg () in
  let meta = { Replay.Log.workload = "lorenz"; scale = "test";
               arith = "mpfr:200"; config = "telemetry-test" } in
  (* Instrumented recording fingerprints identically to a bare one. *)
  let bare = RS.record ~checkpoint_every:50 ~meta ~config prog in
  let tel = Telemetry.create ~trace:true ~profile:true () in
  let rec_ =
    RS.record ~checkpoint_every:50
      ~instrument:(fun sink -> Telemetry.attach tel sink)
      ~meta ~config prog
  in
  Alcotest.(check string) "instrumented record fingerprint"
    (Fpvm.Stats.fingerprint bare.Replay.Session.result.Fpvm.Engine.stats)
    (Fpvm.Stats.fingerprint rec_.Replay.Session.result.Fpvm.Engine.stats);
  (* The checkpoint events reached the profile. *)
  let p = profile_of (Some tel) in
  Alcotest.(check bool) "profile saw checkpoints" true
    (p.Telemetry.Profile.checkpoints > 0);
  (* Restore from a mid-run checkpoint with fresh telemetry: same
     machine result as an uninstrumented restore, and the fresh
     collectors start from the restore point (telemetry survives
     restore by reattachment, not by serialization). *)
  Alcotest.(check bool) "recording produced checkpoints" true
    (rec_.Replay.Session.checkpoints <> []);
  let n = List.length rec_.Replay.Session.checkpoints in
  let _, mid = List.nth rec_.Replay.Session.checkpoints (n / 2) in
  let plain = RS.resume_from ~config prog mid in
  let tel2 = Telemetry.create ~profile:true () in
  let instr =
    RS.resume_from
      ~instrument:(fun sink -> Telemetry.attach tel2 sink)
      ~config prog mid
  in
  Alcotest.(check string) "instrumented restore fingerprint"
    (Fpvm.Stats.fingerprint plain.Fpvm.Engine.stats)
    (Fpvm.Stats.fingerprint instr.Fpvm.Engine.stats);
  Alcotest.(check string) "instrumented restore output"
    plain.Fpvm.Engine.output instr.Fpvm.Engine.output;
  (* Restored stats are cumulative from the original run's start, while
     the fresh collectors only saw the post-restore suffix: attributed
     cycles must be positive and strictly within the cumulative total. *)
  let p2 = profile_of (Some tel2) in
  let tracked = Telemetry.Profile.tracked_cycles p2 in
  let total = Fpvm.Stats.total_fpvm_cycles instr.Fpvm.Engine.stats in
  Alcotest.(check bool) "post-restore profile saw the suffix" true
    (tracked > 0 && tracked < total)

let () =
  Alcotest.run "telemetry"
    [ ("stats",
       [ Alcotest.test_case "fingerprint golden" `Quick
           test_fingerprint_golden;
         Alcotest.test_case "metric table covers the record" `Quick
           test_metric_table;
         Alcotest.test_case "breakdown arithmetic" `Quick test_breakdown ]);
      ("json", [ Alcotest.test_case "pinned output" `Quick test_json ]);
      ("determinism",
       [ Alcotest.test_case "fingerprint on == off" `Slow test_identity ]);
      ("profile",
       [ Alcotest.test_case "exact reconciliation" `Slow
           test_profile_exact ]);
      ("trace",
       [ Alcotest.test_case "perfetto export shape" `Quick
           test_trace_export;
         Alcotest.test_case "bounded ring" `Quick test_trace_bounded ]);
      ("numerical",
       [ Alcotest.test_case "vanilla shadow error zero" `Quick
           test_shadow_vanilla_zero;
         Alcotest.test_case "mpfr-8 shadow error nonzero" `Quick
           test_shadow_mpfr_low_prec;
         Alcotest.test_case "nan/inf births" `Quick test_nan_inf_births;
         Alcotest.test_case "infinite relative error" `Quick
           test_relerr_infinite ]);
      ("replay",
       [ Alcotest.test_case "instrumented checkpoint/restore" `Slow
           test_checkpoint_instrumented ]) ]

(* lib/fleet: manifest parsing, serve validation, fleet scheduling
   sanity, and checkpoint/restore of a guest recorded *inside* a
   fleet run. *)

module W = Workloads
module E = Fpvm.Engine
module CM = Machine.Cost_model

let dc = E.default_config

(* Every front-end key off its default: fpvm_run's --approach patch
   --deployment kernel --no-fpa --oracle --gc-interval 500 --full-gc
   --trace-len 8 --no-plans --no-jit --jit-threshold 2 --machine r730xd. *)
let off_default =
  [ ("approach", "patch"); ("deployment", "kernel"); ("fpa", "off");
    ("oracle", "on"); ("gc-interval", "500"); ("gc", "full");
    ("trace-len", "8"); ("plans", "off"); ("jit", "off");
    ("jit-threshold", "2"); ("machine", "r730xd") ]

let off_default_config =
  { dc with
    E.approach = E.Trap_and_patch; deployment = Trapkern.Kernel_module;
    use_fpa = false; oracle = true; gc_interval = 500; incremental_gc = false;
    max_trace_len = 8; use_plans = false; use_jit = false; jit_threshold = 2;
    cost = CM.r730xd }

let set_all c kvs =
  List.fold_left
    (fun c (k, v) ->
      match E.set c k v with Ok c -> c | Error m -> Alcotest.fail m)
    c kvs

let mk ?(arith = "vanilla") ?(prec = 200) ?(posit = 32) workload =
  match Fleet.Port.of_flags ~arith ~prec ~posit with
  | Error m -> Alcotest.fail m
  | Ok port ->
      { Fleet.g_id = 0; g_workload = workload; g_scale = W.Test;
        g_port = port; g_config = Fpvm.Engine.default_config }

(* ---- manifest ---------------------------------------------------------- *)

let check_err pat content =
  match Fleet.Manifest.parse content with
  | Ok _ -> Alcotest.failf "expected parse error matching %S" pat
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" m pat)
        true
        (try
           ignore (Str.search_forward (Str.regexp_string pat) m 0);
           true
         with Not_found -> false)

let manifest_tests =
  [ Alcotest.test_case "parse: defaults, count, comments" `Quick (fun () ->
        match
          Fleet.Manifest.parse
            "# a fleet\n\
             workload=lorenz arith=mpfr prec=80 count=2\n\
             \n\
             workload=lorenz gc=full jit=off # trailing comment\n"
        with
        | Error m -> Alcotest.fail m
        | Ok gs ->
            Alcotest.(check int) "three guests (count expands)" 3
              (List.length gs);
            Alcotest.(check (list int)) "ids are manifest order" [ 0; 1; 2 ]
              (List.map (fun g -> g.Fleet.g_id) gs);
            let g0 = List.nth gs 0 and g2 = List.nth gs 2 in
            Alcotest.(check string) "mpfr:80" "mpfr:80" (Fleet.guest_arith g0);
            Alcotest.(check string) "vanilla default" "vanilla"
              (Fleet.guest_arith g2);
            Alcotest.(check bool) "gc=full parsed" false
              g2.Fleet.g_config.Fpvm.Engine.incremental_gc;
            Alcotest.(check bool) "jit=off parsed" false
              g2.Fleet.g_config.Fpvm.Engine.use_jit;
            Alcotest.(check bool) "inc gc default" true
              g0.Fleet.g_config.Fpvm.Engine.incremental_gc);
    Alcotest.test_case "parse: '-'/'_' stand in for spaces in names" `Quick
      (fun () ->
        match
          Fleet.Manifest.parse "workload=nas-cg\nworkload=NAS_CG arith=mpfr\n"
        with
        | Error m -> Alcotest.fail m
        | Ok gs ->
            List.iter
              (fun g ->
                Alcotest.(check string) "resolves to NAS CG" "NAS CG"
                  g.Fleet.g_workload)
              gs);
    Alcotest.test_case "parse: errors carry line and reason" `Quick (fun () ->
        check_err "unknown workload" "workload=not-a-workload\n";
        check_err "missing workload" "arith=mpfr\n";
        check_err "unknown key" "workload=lorenz fish=1\n";
        check_err "count must be >= 1" "workload=lorenz count=0\n";
        (* counts expand before any guest runs: bounded per line and in
           total, each a line error raised before the expansion *)
        let before = (Gc.quick_stat ()).Gc.major_words in
        check_err "count must be <= 4096"
          "workload=lorenz count=1000000000\n";
        let words = (Gc.quick_stat ()).Gc.major_words -. before in
        if words >= 1e5 then
          Alcotest.failf "parse allocated %.0f major words" words;
        check_err "line 17: the manifest has more than 65536 guests"
          (String.concat "" (List.init 17 (fun _ -> "workload=lorenz count=4096\n")));
        check_err "prec must be >= 2" "workload=lorenz arith=mpfr prec=1\n";
        check_err "posit must be 8, 16 or 32"
          "workload=lorenz arith=posit posit=24\n";
        check_err "must be on or off" "workload=lorenz jit=yes\n";
        check_err "trace-len must be between 1 and 4096 (got \"4097\")"
          "workload=lorenz trace-len=4097\n";
        check_err "machine must be r815 or 7220 or r730xd"
          "workload=lorenz machine=r900\n";
        check_err "expected key=value" "workload=lorenz whoops\n";
        check_err "line 2" "workload=lorenz\nworkload=lorenz gc=sometimes\n";
        check_err "no guests" "# empty\n\n");
    Alcotest.test_case "parse: a line setting every config key" `Quick
      (fun () ->
        Alcotest.(check (list string)) "off_default names every key"
          (List.map (fun (f : E.front) -> f.E.key) E.config_fronts)
          (List.map fst off_default);
        let line =
          String.concat " "
            ("workload=lorenz"
            :: List.map (fun (k, v) -> k ^ "=" ^ v) off_default)
        in
        match Fleet.Manifest.parse line with
        | Ok [ g ] ->
            Alcotest.(check bool) "the record fpvm_run's flags build" true
              (g.Fleet.g_config = off_default_config)
        | Ok _ -> Alcotest.fail "one guest expected"
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "validate_serve mirrors flag validation" `Quick
      (fun () ->
        let validate ?(switch_cost = Fleet.default_switch_cost) domains batch =
          Fleet.validate_serve ~domains ~batch ~switch_cost
        in
        (match validate 0 8 with
        | Error m ->
            Alcotest.(check string) "domains message"
              "--domains must be >= 1 (got 0)" m
        | Ok () -> Alcotest.fail "domains=0 accepted");
        (match validate (-3) 8 with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "domains=-3 accepted");
        (* each domain is an OS thread, spawned before any guest runs *)
        (match validate (Fleet.max_domains + 1) 8 with
        | Error m ->
            Alcotest.(check string) "domains bound message"
              "--domains must be <= 64 (got 65)" m
        | Ok () -> Alcotest.fail "domains above the bound accepted");
        (match validate Fleet.max_domains 8 with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        (match validate 2 0 with
        | Error m ->
            Alcotest.(check string) "batch message"
              "--batch must be >= 1 (got 0)" m
        | Ok () -> Alcotest.fail "batch=0 accepted");
        (* a negative charge would bring a makespan below its guests'
           own cycles; serve checks it before it looks at the guests *)
        (match validate ~switch_cost:(-5) 1 8 with
        | Error m ->
            Alcotest.(check string) "switch cost message"
              "--switch-cost must be >= 0 (got -5)" m
        | Ok () -> Alcotest.fail "switch_cost=-5 accepted");
        Alcotest.check_raises "serve rejects a negative switch cost"
          (Invalid_argument "fleet: --switch-cost must be >= 0 (got -5)")
          (fun () -> ignore (Fleet.serve ~switch_cost:(-5) []));
        (match validate ~switch_cost:0 1 8 with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        match validate 4 16 with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
    (* fpvm_run's --scale and a manifest's scale= read a spelling
       through the same function *)
    Alcotest.test_case "scale: one reader for flags and manifests" `Quick
      (fun () ->
        List.iter
          (fun (v, want) ->
            Alcotest.(check (option string)) v want
              (Result.to_option (Fleet.scale_of_string v)
              |> Option.map Fleet.scale_string))
          [ ("test", Some "test"); ("TEST", Some "test"); ("s", Some "s");
            ("S", Some "s"); ("x", None); ("", None) ];
        (match Fleet.Manifest.parse "workload=lorenz scale=S\n" with
        | Ok [ g ] ->
            Alcotest.(check string) "scale=S" "s"
              (Fleet.scale_string g.Fleet.g_scale)
        | Ok _ -> Alcotest.fail "one guest expected"
        | Error m -> Alcotest.fail m);
        check_err "scale must be test or s (got \"x\")"
          "workload=lorenz scale=x\n") ]

(* ---- the log's config line ---------------------------------------------- *)

(* Replay compares a log's config line byte for byte, so logs recorded
   by earlier builds replay only while a run writes the same line. *)
let config_tests =
  [ Alcotest.test_case "a default run writes the committed config line" `Quick
      (fun () ->
        Alcotest.(check string) "config line"
          "approach=emulate;deploy=0;vsa=true;fpa=true;orc=false;gc=20000;\
           inc=true;full=8;cache=true;alw=false;trace=64;plans=true;jit=true;\
           jthr=8;jmtl=64;mach=r815"
          (E.config_line dc));
    Alcotest.test_case "every row off its default: line and session key"
      `Quick (fun () ->
        let c = set_all dc off_default in
        Alcotest.(check bool) "the keys build the record" true
          (c = off_default_config);
        Alcotest.(check string) "config line, every flag off its default"
          "approach=patch;deploy=1;vsa=true;fpa=false;orc=true;gc=500;\
           inc=false;full=8;cache=true;alw=false;trace=8;plans=false;\
           jit=false;jthr=2;jmtl=64;mach=r730xd"
          (E.config_line c);
        let c = { c with E.full_scan_every = 3; always_emulate = true } in
        Alcotest.(check string) "config line, every field off its default"
          "approach=patch;deploy=1;vsa=true;fpa=false;orc=true;gc=500;\
           inc=false;full=3;cache=true;alw=true;trace=8;plans=false;\
           jit=false;jthr=2;jmtl=64;mach=r730xd"
          (E.config_line c);
        Alcotest.(check string) "session key flags"
          "approach=patch;fpa=false;alw=true;trace=8;plans=false;jit=false;\
           jthr=2;jmtl=64;mach=r730xd"
          (E.config_flags c));
    Alcotest.test_case "every machine spelling writes the canonical name"
      `Quick (fun () ->
        (* --machine R815 and --machine r815 select one cost model, so a
           log recorded under either replays under the other *)
        List.iter
          (fun (m : CM.t) ->
            let line = E.config_line { dc with E.cost = m } in
            Alcotest.(check bool) "canonical segment" true
              (String.ends_with line
                 ~suffix:(";mach=" ^ String.lowercase_ascii m.CM.name));
            List.iter
              (fun spelling ->
                Alcotest.(check string) spelling line
                  (E.config_line (set_all dc [ ("machine", spelling) ])))
              [ m.CM.name; String.lowercase_ascii m.CM.name;
                String.uppercase_ascii m.CM.name ])
          CM.profiles);
    Alcotest.test_case "a spelling changes its own segment alone" `Quick
      (fun () ->
        (* Each non-default spelling a row accepts moves exactly that
           row's segment of the line, and the session key exactly when
           the row is part of it. *)
        let segments c = String.split_on_char ';' (E.config_line c) in
        List.iteri
          (fun i (r : E.row) ->
            match r.E.front with
            | None -> ()
            | Some f ->
                let spellings =
                  match f.E.accepts with
                  | E.Names l -> l
                  | E.Ints (lo, hi) -> List.map string_of_int [ lo; lo + 1; hi ]
                in
                let moved =
                  List.filter_map
                    (fun v ->
                      match f.E.parse dc v with
                      | Error m -> Alcotest.fail m
                      | Ok c when f.E.spell c = f.E.spell dc -> None
                      | Ok c -> Some c)
                    spellings
                in
                Alcotest.(check bool) (f.E.key ^ " has another spelling") true
                  (moved <> []);
                List.iter
                  (fun c ->
                    List.iteri
                      (fun j (a, b) ->
                        Alcotest.(check bool)
                          (Printf.sprintf "%s moves segment %d" f.E.key j)
                          (i = j) (a <> b))
                      (List.combine (segments dc) (segments c));
                    Alcotest.(check bool)
                      (f.E.key ^ " moves the session key")
                      r.E.session
                      (E.config_flags c <> E.config_flags dc))
                  moved)
          E.config_table) ]

(* ---- partition --------------------------------------------------------- *)

let partition_tests =
  [ Alcotest.test_case "LPT covers every guest exactly once" `Quick (fun () ->
        let shards = Fleet.partition ~domains:3 [| 5; 1; 9; 2; 7; 7 |] in
        let all = Array.to_list shards |> List.concat |> List.sort compare in
        Alcotest.(check (list int)) "exact cover" [ 0; 1; 2; 3; 4; 5 ] all);
    Alcotest.test_case "LPT balances the lorenz/CG mix" `Quick (fun () ->
        (* 4 heavy + 4 light over 4 domains: each shard gets one of each *)
        let shards =
          Fleet.partition ~domains:4 [| 100; 100; 100; 100; 10; 10; 10; 10 |]
        in
        Array.iter
          (fun shard ->
            Alcotest.(check int) "one heavy + one light" 2 (List.length shard))
          shards) ]

(* ---- serve ------------------------------------------------------------- *)

let serve_tests =
  [ Alcotest.test_case "results return in guest order, accounting adds up"
      `Quick
      (fun () ->
        let guests =
          List.mapi
            (fun i g -> { g with Fleet.g_id = i })
            [ mk "lorenz"; mk ~arith:"mpfr" "lorenz"; mk "lorenz";
              mk ~arith:"posit" "lorenz" ]
        in
        let streamed = ref 0 in
        let f =
          Fleet.serve ~domains:2 ~batch:4
            ~on_result:(fun _ -> incr streamed)
            guests
        in
        Alcotest.(check int) "streamed every guest" 4 !streamed;
        Alcotest.(check (list int)) "guest order" [ 0; 1; 2; 3 ]
          (List.map (fun r -> r.Fleet.r_guest.Fleet.g_id) f.Fleet.f_results);
        Alcotest.(check int) "total = sum of guests"
          (List.fold_left (fun a r -> a + r.Fleet.r_cycles) 0 f.Fleet.f_results)
          f.Fleet.f_total_cycles;
        Alcotest.(check bool) "makespan >= heaviest shard's work" true
          (Array.for_all (fun c -> c <= f.Fleet.f_makespan) f.Fleet.f_domain_cycles);
        (* same pristine binary analyzed once, shared thereafter *)
        Alcotest.(check int) "one analysis" 1 f.Fleet.f_facts_misses;
        Alcotest.(check bool) "facts shared" true (f.Fleet.f_facts_hits >= 3));
    Alcotest.test_case "fleet guests bit-identical to solo" `Quick (fun () ->
        let guests =
          List.mapi
            (fun i g -> { g with Fleet.g_id = i })
            [ mk "lorenz"; mk ~arith:"mpfr" ~prec:80 "lorenz";
              mk ~arith:"interval" "lorenz";
              { (mk "lorenz") with
                Fleet.g_config =
                  { Fpvm.Engine.default_config with
                    Fpvm.Engine.incremental_gc = false } } ]
        in
        let f = Fleet.serve ~domains:2 ~batch:2 guests in
        List.iter
          (fun (r : Fleet.guest_result) ->
            let solo = Fleet.run_solo r.Fleet.r_guest in
            Alcotest.(check string)
              (Printf.sprintf "guest %d fingerprint" r.Fleet.r_guest.Fleet.g_id)
              (Fpvm.Stats.fingerprint solo.Fpvm.Engine.stats)
              r.Fleet.r_fingerprint;
            Alcotest.(check string) "output" solo.Fpvm.Engine.output
              r.Fleet.r_output)
          f.Fleet.f_results);
    Alcotest.test_case "flows gauges land in the guest's stats" `Quick
      (fun () ->
        (* --flows attaches a per-guest recorder through Telemetry: its
           gauges fill the guest's Stats.t, and the fingerprint stays
           the solo run's *)
        let g = mk "lorenz" in
        let plain = Fleet.serve [ g ] and flows = Fleet.serve ~flows:true [ g ] in
        match (plain.Fleet.f_results, flows.Fleet.f_results) with
        | [ p ], [ r ] ->
            Alcotest.(check int) "no recorder, no events" 0
              p.Fleet.r_stats.Fpvm.Stats.tel_events;
            Alcotest.(check bool) "the recorder saw the guest's ops" true
              (r.Fleet.r_stats.Fpvm.Stats.tel_events > 0);
            Alcotest.(check string) "fingerprint unchanged" p.Fleet.r_fingerprint
              r.Fleet.r_fingerprint;
            Alcotest.(check string) "fingerprint of r_stats" r.Fleet.r_fingerprint
              (Fpvm.Stats.fingerprint r.Fleet.r_stats)
        | _ -> Alcotest.fail "one guest, one result");
    Alcotest.test_case "invalid fleets rejected" `Quick (fun () ->
        Alcotest.check_raises "no guests"
          (Invalid_argument "fleet: no guests") (fun () ->
            ignore (Fleet.serve []));
        Alcotest.check_raises "bad domains"
          (Invalid_argument "fleet: --domains must be >= 1 (got 0)") (fun () ->
            ignore (Fleet.serve ~domains:0 [ mk "lorenz" ]))) ]

(* ---- ports ------------------------------------------------------------- *)

let port_tests =
  [ Alcotest.test_case "slash runs take no birth-freedom verdicts" `Quick
      (fun () ->
        (* the FP tier proves NAS IS's x * 5^13 finite under binary64;
           slash:64 saturates it to infinity past 2^64 *)
        let prog = (Option.get (W.find "NAS IS")).W.program W.Test in
        let a = Fpvm.Vsa.analyze prog in
        let slash = Fleet.Port.Slash 64 in
        let violations clean =
          let tel = Telemetry.create ~numprof:true ?clean () in
          let r =
            (Fleet.port_driver slash).Fleet.d_run ~facts:a
              ~instrument:(Telemetry.attach tel) ~config:dc prog
          in
          Telemetry.finalize tel r.Fpvm.Engine.stats;
          r.Fpvm.Engine.stats.Fpvm.Stats.fpa_nan_violations
        in
        Alcotest.(check bool) "binary64 verdicts overclaim under slash:64" true
          (violations (Fleet.Port.clean Fleet.Port.Vanilla a prog) > 0);
        Alcotest.(check int) "slash's own predicate" 0
          (violations (Fleet.Port.clean slash a prog))) ]

(* ---- checkpoint/restore inside a fleet --------------------------------- *)

(* Satellite (c): a guest recorded mid-fleet — scheduler hooks live on
   its probe sink, other guests interleaving on the same domain —
   still checkpoints and restores bit-exactly, and the blob resumes
   correctly even while *another* session is mid-flight. *)
let checkpoint_tests =
  [ Alcotest.test_case "record+checkpoint a guest inside a fleet" `Slow
      (fun () ->
        let prog = (Option.get (W.find "lorenz")).W.program W.Test in
        let config = Fpvm.Engine.default_config in
        let meta =
          { Replay.Log.workload = "lorenz"; scale = "test"; arith = "mpfr:200";
            config = "fleet-ckpt" }
        in
        let d = Fleet.port_driver (Fleet.Port.Mpfr 200) in
        (* baseline: uninterrupted solo recording *)
        let solo = d.Fleet.d_record ~checkpoint_every:64 ~meta ~config prog in
        let base =
          Fpvm.Stats.fingerprint solo.Replay.Session.result.Fpvm.Engine.stats
        in
        Alcotest.(check bool) "checkpoints taken" true
          (solo.Replay.Session.checkpoints <> []);
        (* the same recording made inside a two-guest fleet shard *)
        let fleet_rec = ref None in
        let other = ref None in
        Fleet.Sched.run
          [ (fun () ->
              fleet_rec :=
                Some
                  (d.Fleet.d_record ~checkpoint_every:64
                     ~instrument:(fun sink ->
                       Fpvm.Probe.add_quiesce sink (fun _ ->
                           Fleet.Sched.yield ()))
                     ~meta ~config prog));
            (fun () ->
              let dv = Fleet.port_driver Fleet.Port.Vanilla in
              other :=
                Some
                  (dv.Fleet.d_run
                     ~instrument:(fun sink ->
                       Fpvm.Probe.add_quiesce sink (fun _ ->
                           Fleet.Sched.yield ()))
                     ~config prog)) ];
        let fr = Option.get !fleet_rec in
        Alcotest.(check string) "in-fleet recording fingerprints like solo"
          base
          (Fpvm.Stats.fingerprint fr.Replay.Session.result.Fpvm.Engine.stats);
        Alcotest.(check string) "in-fleet log byte-identical"
          solo.Replay.Session.log_bytes fr.Replay.Session.log_bytes;
        Alcotest.(check bool) "co-guest finished" true (!other <> None);
        (* every in-fleet checkpoint restores to the identical end state *)
        List.iter
          (fun (seq, blob) ->
            let r = d.Fleet.d_resume ~config prog blob in
            if Fpvm.Stats.fingerprint r.Fpvm.Engine.stats <> base then
              Alcotest.failf "resume from in-fleet checkpoint@%d differs" seq)
          fr.Replay.Session.checkpoints;
        (* ... and restores correctly while another session is live:
           interleave the resume with a fresh mpfr run on one domain *)
        let _, blob =
          List.nth fr.Replay.Session.checkpoints
            (List.length fr.Replay.Session.checkpoints / 2)
        in
        let resumed = ref None in
        Fleet.Sched.run
          [ (fun () ->
              resumed :=
                Some
                  (d.Fleet.d_resume
                     ~instrument:(fun sink ->
                       Fpvm.Probe.add_quiesce sink (fun _ ->
                           Fleet.Sched.yield ()))
                     ~config prog blob));
            (fun () ->
              ignore
                (d.Fleet.d_run
                   ~instrument:(fun sink ->
                     Fpvm.Probe.add_quiesce sink (fun _ ->
                         Fleet.Sched.yield ()))
                   ~config prog)) ];
        let r = Option.get !resumed in
        Alcotest.(check string) "interleaved resume bit-identical" base
          (Fpvm.Stats.fingerprint r.Fpvm.Engine.stats);
        (* and the in-fleet log replays clean from that checkpoint *)
        match
          d.Fleet.d_replay ~checkpoint:blob ~config fr.Replay.Session.log prog
        with
        | Replay.Session.Match _ -> ()
        | Replay.Session.Diverged dv ->
            Alcotest.failf "in-fleet checkpoint replay diverged at %d"
              dv.Replay.Session.at) ]

let () =
  Alcotest.run "fleet"
    [ ("manifest", manifest_tests);
      ("config", config_tests);
      ("partition", partition_tests);
      ("serve", serve_tests);
      ("port", port_tests);
      ("checkpoint", checkpoint_tests) ]

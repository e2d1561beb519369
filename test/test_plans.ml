(* Site-specialization (binding-plan) differential tests.

   Plans are a pure performance optimization: for every workload, every
   arithmetic port and both GC modes, the program-visible results
   (printed output and the serialized Write_f64 channel) must be
   bit-identical with plans on and off. Beyond bit-identity we pin the
   accounting contract (plans only move cycles between buckets), the
   soundness of in-trace shadow-temp elision (the oracle never sees a
   leaked temp), and the two invalidation paths: trap-and-patch site
   rewrites and checkpoint restore. *)

module W = Workloads

let scale = W.Test

(* The JIT is off throughout: this suite pins interpretive-layer
   invariants (every emulation is a plan hit or miss; plans on/off
   leaves the trap stream untouched) that the fused superblock paths
   intentionally change. test_jit.ml owns the JIT differentials. *)
let cfg ?(use_plans = true) ?(incremental_gc = true)
    ?(approach = Fpvm.Engine.Trap_and_emulate) ?(trace_len = 16)
    ?(oracle = false) () =
  { Fpvm.Engine.default_config with
    Fpvm.Engine.approach; oracle; use_plans; incremental_gc;
    Fpvm.Engine.use_jit = false;
    Fpvm.Engine.max_trace_len = trace_len }

let ports :
    (string * ((config:Fpvm.Engine.config -> Machine.Program.t ->
                Fpvm.Engine.result) * (unit -> unit))) list =
  let module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
  let module E_mpfr = Fpvm.Engine.Make (Fpvm.Alt_mpfr) in
  let module E_posit = Fpvm.Engine.Make (Fpvm.Alt_posit) in
  let module E_interval = Fpvm.Engine.Make (Fpvm.Alt_interval) in
  let module E_slash = Fpvm.Engine.Make (Fpvm.Alt_slash) in
  [ ("vanilla", ((fun ~config p -> E_vanilla.run ~config p), ignore));
    ("mpfr",
     ((fun ~config p -> E_mpfr.run ~config p),
      ignore));
    ("posit", ((fun ~config p -> E_posit.run ~config p), ignore));
    ("interval", ((fun ~config p -> E_interval.run ~config p), ignore));
    ("slash", ((fun ~config p -> E_slash.run ~config p), ignore)) ]

(* ---- plans on == plans off, everywhere -------------------------------- *)

let differential =
  List.concat_map
    (fun (port, (run, setup)) ->
      List.concat_map
        (fun (gc_name, incremental_gc) ->
          List.map
            (fun (e : W.entry) ->
              Alcotest.test_case
                (Printf.sprintf "%s/%s/%s: plans == no-plans" e.W.name port
                   gc_name)
                `Quick
                (fun () ->
                  setup ();
                  let prog = e.W.program scale in
                  let off =
                    run ~config:(cfg ~use_plans:false ~incremental_gc ()) prog
                  and on =
                    run ~config:(cfg ~incremental_gc ()) prog
                  in
                  Alcotest.(check string) "output bit-identical"
                    off.Fpvm.Engine.output on.Fpvm.Engine.output;
                  Alcotest.(check string) "serialized bit-identical"
                    off.Fpvm.Engine.serialized on.Fpvm.Engine.serialized;
                  let so = off.Fpvm.Engine.stats
                  and sn = on.Fpvm.Engine.stats in
                  Alcotest.(check int) "same emulations"
                    so.Fpvm.Stats.emulated_insns sn.Fpvm.Stats.emulated_insns;
                  Alcotest.(check int) "same traps" so.Fpvm.Stats.fp_traps
                    sn.Fpvm.Stats.fp_traps;
                  (* plans only fire with plans on *)
                  Alcotest.(check int) "no plan traffic when disabled" 0
                    (so.Fpvm.Stats.plan_hits + so.Fpvm.Stats.plan_misses
                   + so.Fpvm.Stats.temps_elided);
                  Alcotest.(check bool) "plans fire when enabled" true
                    (sn.Fpvm.Stats.plan_hits > 0
                    || sn.Fpvm.Stats.emulated_insns = 0)))
            W.all)
        [ ("incremental-gc", true); ("full-gc", false) ])
    ports

(* ---- accounting: revisits hit, bind+dispatch collapses ---------------- *)

let accounting_tests =
  [ Alcotest.test_case "revisited sites hit the plan table" `Quick (fun () ->
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let s = (E.run ~config:(cfg ()) prog).Fpvm.Engine.stats in
        let hits = s.Fpvm.Stats.plan_hits
        and misses = s.Fpvm.Stats.plan_misses in
        Alcotest.(check int) "every emulation is a hit or a miss"
          s.Fpvm.Stats.emulated_insns (hits + misses);
        Alcotest.(check bool) "hit rate above 95%" true
          (float_of_int hits /. float_of_int (hits + misses) > 0.95);
        Alcotest.(check bool) "plan cycles charged" true
          (s.Fpvm.Stats.cyc_plan > 0));
    Alcotest.test_case "bind+dispatch cycles collapse" `Quick (fun () ->
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let cost s =
          s.Fpvm.Stats.cyc_bind + s.Fpvm.Stats.cyc_emu_dispatch
        in
        let off =
          cost (E.run ~config:(cfg ~use_plans:false ()) prog).Fpvm.Engine.stats
        and on = cost (E.run ~config:(cfg ()) prog).Fpvm.Engine.stats in
        Alcotest.(check bool) "at least 3x cheaper" true
          (float_of_int off /. float_of_int (max 1 on) >= 3.0)) ]

(* ---- oracle: cycle identity, and no temp ever leaks ------------------- *)

let oracle_tests =
  [ Alcotest.test_case "--oracle runs cycle-identical" `Quick (fun () ->
        (* the oracle observes; it must not perturb the decode cache or
           any other charged counter (its own counters are outside the
           fingerprint) *)
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let plain = E.run ~config:(cfg ()) prog
        and spied = E.run ~config:(cfg ~oracle:true ()) prog in
        Alcotest.(check int) "same modeled cycles" plain.Fpvm.Engine.cycles
          spied.Fpvm.Engine.cycles;
        Alcotest.(check string) "same stats fingerprint"
          (Fpvm.Stats.fingerprint plain.Fpvm.Engine.stats)
          (Fpvm.Stats.fingerprint spied.Fpvm.Engine.stats);
        Alcotest.(check string) "same output" plain.Fpvm.Engine.output
          spied.Fpvm.Engine.output);
    Alcotest.test_case "temp elision never leaks (oracle clean)" `Quick
      (fun () ->
        (* trap-heavy workloads with long traces exercise elision hard;
           a temp box escaping a trace would surface as a boxed load *)
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        List.iter
          (fun name ->
            let e = Option.get (W.find name) in
            let prog = e.W.program scale in
            let r =
              E.run ~config:(cfg ~oracle:true ~trace_len:64 ()) prog
            in
            let s = r.Fpvm.Engine.stats in
            Alcotest.(check int)
              (name ^ ": no boxed value reached native code") 0
              s.Fpvm.Stats.oracle_boxed_loads;
            Alcotest.(check bool) (name ^ ": elision exercised") true
              (s.Fpvm.Stats.temps_elided > 0))
          [ "lorenz"; "three-body"; "NAS CG" ]);
    Alcotest.test_case "elision strictly reduces arena boxes" `Quick
      (fun () ->
        (* a temp's allocation is avoided only if every spill word is
           overwritten before the trace exits, so the win needs traces
           deep enough to span a loop iteration *)
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let prog = (Option.get (W.find "NAS CG")).W.program scale in
        let boxes use_plans =
          (E.run ~config:(cfg ~use_plans ~trace_len:256 ()) prog)
            .Fpvm.Engine.stats.Fpvm.Stats.boxes_allocated
        in
        Alcotest.(check bool) "fewer allocations with plans" true
          (boxes true < boxes false)) ]

(* ---- invalidation: trap-and-patch and checkpoint restore -------------- *)

let invalidation_tests =
  [ Alcotest.test_case "trap-and-patch invalidates rewritten sites" `Quick
      (fun () ->
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let run approach use_plans =
          E.run ~config:(cfg ~approach ~use_plans ()) prog
        in
        let patched = run Fpvm.Engine.Trap_and_patch true in
        let s = patched.Fpvm.Engine.stats in
        Alcotest.(check bool) "sites were patched" true
          (s.Fpvm.Stats.patch_invocations > 0);
        (* a site traced through before its own first fault has a plan
           at patch time; the rewrite must drop it *)
        Alcotest.(check bool) "stale plans were dropped" true
          (s.Fpvm.Stats.plan_invalidations > 0);
        Alcotest.(check bool) "at most one drop per rewrite" true
          (s.Fpvm.Stats.plan_invalidations <= s.Fpvm.Stats.fp_traps);
        let off = run Fpvm.Engine.Trap_and_patch false in
        Alcotest.(check string) "patched output still plan-invariant"
          off.Fpvm.Engine.output patched.Fpvm.Engine.output);
    Alcotest.test_case "checkpoint restore reseeds the plan table" `Quick
      (fun () ->
        let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let meta =
          { Replay.Log.workload = "lorenz"; scale = "test";
            arith = "vanilla"; config = "plans" }
        in
        let config = cfg () in
        let rec_ = S.record ~checkpoint_every:64 ~meta ~config prog in
        let base = rec_.Replay.Session.result in
        Alcotest.(check bool) "checkpoints taken" true
          (rec_.Replay.Session.checkpoints <> []);
        (* resumed runs must replay the original plan hit/miss cycle
           stream: the fingerprint covers plan_hits/misses and cyc_plan,
           so a cold plan table after restore would show up here *)
        List.iter
          (fun (seq, blob) ->
            let r = S.resume_from ~config prog blob in
            if
              r.Fpvm.Engine.output <> base.Fpvm.Engine.output
              || r.Fpvm.Engine.cycles <> base.Fpvm.Engine.cycles
              || Fpvm.Stats.fingerprint r.Fpvm.Engine.stats
                 <> Fpvm.Stats.fingerprint base.Fpvm.Engine.stats
            then Alcotest.failf "resume from checkpoint@%d differs" seq)
          rec_.Replay.Session.checkpoints) ]

(* ---- the exit sweep's store order is checkpoint bytes ----------------- *)

(* One window, delivered at the first divide, that leaves the sweep
   three kinds of leftovers: temp 0 (1/3) in two xmm registers, and
   both temps in spill words on four distinct 64-byte cards, stored
   interleaved (0, 1, 0, 1). The sweep re-boxes temp 0 from a register
   and temp 1 from its newest spill word; temp 0's second spill word
   is overwritten first, so it takes no store. The third divide's GC
   pass (gc_interval 1) clears the dirty set just before the exit, so
   the cards a checkpoint records are exactly the sweep's stores, in
   the sweep's order. The program then prints every leftover. *)
let sweep_prog () =
  let open Machine in
  let b = Program.create ~name:"exit-sweep" () in
  let k = Program.data_f64 b [| 1.0; 3.0; 7.0 |] in
  let spills = Program.data_zero b 320 in
  let one = Isa.Mem (Isa.addr k)
  and three = Isa.Mem (Isa.addr (k + 8))
  and seven = Isa.Mem (Isa.addr (k + 16))
  and spill i = Isa.Mem (Isa.addr (spills + (64 * i))) in
  let movsd dst src = Program.emit b (Isa.Mov_f { w = Isa.F64; dst; src }) in
  let divsd dst src =
    Program.emit b
      (Isa.Fp_arith { op = Isa.FDIV; w = Isa.F64; packed = false; dst; src })
  in
  let print () = Program.emit b (Isa.Call_ext Isa.Print_f64) in
  movsd (Isa.Xmm 0) one;
  divsd (Isa.Xmm 0) three;
  movsd (Isa.Xmm 1) one;
  divsd (Isa.Xmm 1) seven;
  movsd (Isa.Xmm 2) (Isa.Xmm 0);
  movsd (Isa.Xmm 3) (Isa.Xmm 0);
  movsd (spill 0) (Isa.Xmm 0);
  movsd (spill 1) (Isa.Xmm 1);
  movsd (spill 2) (Isa.Xmm 0);
  movsd (spill 3) (Isa.Xmm 1);
  movsd (Isa.Xmm 0) one;
  movsd (spill 2) (Isa.Xmm 0);
  movsd (Isa.Xmm 1) one;
  movsd (Isa.Xmm 4) one;
  divsd (Isa.Xmm 4) three;
  print ();
  List.iter
    (fun src ->
      movsd (Isa.Xmm 0) src;
      print ())
    [ Isa.Xmm 2; Isa.Xmm 3; spill 0; spill 1; spill 2; spill 3; Isa.Xmm 4 ];
  Program.emit b Isa.Halt;
  Program.finish b

let sweep_tests =
  [ Alcotest.test_case "exit sweep order pinned in checkpoint bytes" `Quick
      (fun () ->
        let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
        let prog = sweep_prog () in
        let meta =
          { Replay.Log.workload = "exit-sweep"; scale = "test";
            arith = "vanilla"; config = "default" }
        in
        let config =
          { Fpvm.Engine.default_config with Fpvm.Engine.gc_interval = 1 }
        in
        let r = S.record ~checkpoint_every:1 ~meta ~config prog in
        let res = r.Replay.Session.result in
        let s = res.Fpvm.Engine.stats in
        let md5 x = Digest.to_hex (Digest.string x) in
        Alcotest.(check int) "two temps elided" 2 s.Fpvm.Stats.temps_elided;
        Alcotest.(check int) "both re-boxed at exit" 2
          s.Fpvm.Stats.temps_materialized;
        let off =
          S.E.run ~config:{ config with Fpvm.Engine.use_plans = false } prog
        in
        Alcotest.(check string) "output equals --no-plans"
          off.Fpvm.Engine.output res.Fpvm.Engine.output;
        Alcotest.(check string) "log" "83f538f5fdefe4ec477c12678bd9a7ac"
          (md5 r.Replay.Session.log_bytes);
        Alcotest.(check (list string)) "checkpoints" [ "13da168e4a18a469c8d6b246ca9c8c31" ]
          (List.map (fun (_, blob) -> md5 blob) r.Replay.Session.checkpoints);
        Alcotest.(check string) "fingerprint" "93af3962512733db13fe1139e19efd03"
          (md5 (Fpvm.Stats.fingerprint s))) ]

(* ---- a pop of a spilled temp ------------------------------------------ *)

(* [pop] is an 8-byte integer load of [rsp]. Here it carries the temp
   1/3, spilled to [rsp] in the window the divide opens, into rbx,
   which the trace exit does not sweep; after the window the value
   goes back through the stack into an add. The guard must give the
   temp a real box before the pop reads it, or the add unboxes a
   dead slot and prints the default NaN. *)
let pop_prog () =
  let open Machine in
  let b = Program.create ~name:"pop-temp" () in
  let k = Program.data_f64 b [| 1.0; 3.0; 0.0 |] in
  let one = Isa.Mem (Isa.addr k)
  and three = Isa.Mem (Isa.addr (k + 8))
  and zero = Isa.Mem (Isa.addr (k + 16))
  and top = Isa.Mem (Isa.addr ~base:Isa.RSP 0) in
  let emit = Program.emit b in
  let movsd dst src = emit (Isa.Mov_f { w = Isa.F64; dst; src }) in
  let arith op dst src =
    emit (Isa.Fp_arith { op; w = Isa.F64; packed = false; dst; src })
  in
  movsd (Isa.Xmm 0) one;
  arith Isa.FDIV (Isa.Xmm 0) three;
  emit (Isa.Push (Isa.Reg Isa.RAX));
  movsd top (Isa.Xmm 0);
  emit (Isa.Pop (Isa.Reg Isa.RBX));
  movsd (Isa.Xmm 0) zero;
  emit (Isa.Call_ext Isa.Print_f64);
  emit (Isa.Push (Isa.Reg Isa.RBX));
  movsd (Isa.Xmm 1) top;
  arith Isa.FADD (Isa.Xmm 1) one;
  movsd (Isa.Xmm 0) (Isa.Xmm 1);
  emit (Isa.Call_ext Isa.Print_f64);
  emit Isa.Halt;
  Program.finish b

let pop_tests =
  [ Alcotest.test_case "a popped spill word carries a real box" `Quick
      (fun () ->
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let prog = pop_prog () in
        let native = (Fpvm.Engine.run_native prog).Fpvm.Engine.output in
        Alcotest.(check string) "native output" "0\n1.3333333333333333\n"
          native;
        List.iter
          (fun (gc, incremental_gc) ->
            List.iter
              (fun (name, config) ->
                let r =
                  E.run
                    ~config:
                      { config with
                        Fpvm.Engine.incremental_gc; oracle = true }
                    prog
                in
                Alcotest.(check string)
                  (Printf.sprintf "%s, %s: output" name gc)
                  native r.Fpvm.Engine.output;
                Alcotest.(check int)
                  (Printf.sprintf "%s, %s: oracle clean" name gc)
                  0 r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads)
              [ ("default", Fpvm.Engine.default_config);
                ("--no-jit",
                 { Fpvm.Engine.default_config with
                   Fpvm.Engine.use_jit = false });
                ("--no-plans",
                 { Fpvm.Engine.default_config with
                   Fpvm.Engine.use_plans = false }) ])
          [ ("incremental-gc", true); ("full-gc", false) ]) ]

let () =
  Alcotest.run "plans"
    [ ("differential", differential);
      ("accounting", accounting_tests);
      ("oracle", oracle_tests);
      ("invalidation", invalidation_tests);
      ("exit sweep", sweep_tests);
      ("pop", pop_tests) ]

(* FP special-value analysis tests.

   Property layer (QCheck): the Fpdomain lattice is a real join
   semilattice (commutative / associative / idempotent joins), the
   transfer functions are monotone in each argument, widening chains
   terminate, and — the load-bearing property — every transfer is a
   *sound* abstraction of the concrete binary64 operation: for random
   concrete operands (normals, subnormals, zeros, infinities, NaNs),
   the classification of the concrete result is always below the
   abstract result of the corresponding transfer on the operand
   classifications.

   Integration layer: the Fpa pass terminates on every workload with
   consistent verdict bookkeeping, proves a strictly positive number of
   subnormal-free sites on at least one workload (the JIT's
   fused-unguarded win), and the engine's outputs are bit-identical
   with the tier consumed or disabled.  The static/dynamic soundness
   oracle (violation counters) is exercised across ports in test_fleet
   and CI; here we pin the vanilla port. *)

module D = Analysis.Fpdomain
module Fpa = Analysis.Fpa
module W = Workloads

let q ?(count = 500) name arb law =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0xF9A5EED |])
    (QCheck.Test.make ~count ~name arb law)

(* ---- generators -------------------------------------------------------- *)

(* random abstract value: random class flags plus a random (possibly
   empty) exponent interval; mk normalizes spills so every generated
   value is a canonical lattice element *)
let gen_v =
  QCheck.Gen.(
    let* nan = bool in
    let* pinf = bool in
    let* ninf = bool in
    let* zero = bool in
    let* sub = bool in
    let* pos = bool in
    let* neg = bool in
    let* lo = int_range (D.emin - 8) (D.emax + 8) in
    let* span = int_range 0 64 in
    return
      (D.mk ~nan ~pinf ~ninf ~zero ~sub ~pos ~neg ~lo ~hi:(lo + span)
         ~srcs:Analysis.Ptree.Set.empty))

let print_v (v : D.v) =
  Printf.sprintf
    "{nan=%b pinf=%b ninf=%b zero=%b sub=%b pos=%b neg=%b [%d,%d]}" v.D.nan
    v.D.pinf v.D.ninf v.D.zero v.D.sub v.D.pos v.D.neg v.D.lo v.D.hi

let arb_v = QCheck.make ~print:print_v gen_v

(* random concrete binary64: specials, subnormals and zeros appear with
   substantial probability so the soundness property actually visits
   the interesting rows of the transfer tables *)
let gen_f =
  QCheck.Gen.(
    frequency
      [ (4, float);
        (2, float_range (-4.0) 4.0);
        (1, return 0.0);
        (1, return (-0.0));
        (1, return infinity);
        (1, return neg_infinity);
        (1, return nan);
        (1, return 4.9e-324);
        (1, return (-4.9e-324));
        (1, return 1e-310);
        (1, return 2.2250738585072014e-308);
        (1, return 1.7976931348623157e308);
        (1, map Int64.float_of_bits int64) ])

let arb_f = QCheck.make ~print:(Printf.sprintf "%h") gen_f
let arb_ff = QCheck.pair arb_f arb_f
let arb_vv = QCheck.pair arb_v arb_v
let arb_vvv = QCheck.triple arb_v arb_v arb_v

let classify f = D.classify_bits (Int64.bits_of_float f)

(* ---- lattice laws ------------------------------------------------------ *)

let lattice_tests =
  [ q "join commutative" arb_vv (fun (a, b) ->
        D.equal (D.join a b) (D.join b a));
    q "join associative" arb_vvv (fun (a, b, c) ->
        D.equal (D.join a (D.join b c)) (D.join (D.join a b) c));
    q "join idempotent" arb_v (fun a -> D.equal (D.join a a) a);
    q "join is an upper bound" arb_vv (fun (a, b) ->
        D.leq a (D.join a b) && D.leq b (D.join a b));
    q "leq reflexive" arb_v (fun a -> D.leq a a);
    q "widen covers join" arb_vv (fun (a, b) ->
        D.leq (D.join a b) (D.widen a b));
    q "join and widen return an upper bound itself" arb_vv (fun (b, c) ->
        let b = { b with D.srcs = Analysis.Ptree.Set.of_list [ 1; 5 ] }
        and c = { c with D.srcs = Analysis.Ptree.Set.of_list [ 5; 9 ] } in
        let a = D.join b c in
        D.join a b == a && D.widen a b == a && D.join a a == a) ]

(* ---- transfer monotonicity --------------------------------------------- *)

(* a <= a' (by construction a' = join a b) implies f(a,c) <= f(a',c) *)
let mono2 name f =
  q (Printf.sprintf "%s monotone" name) arb_vvv (fun (a, b, c) ->
      let a' = D.join a b in
      D.leq (fst (f a c)) (fst (f a' c)) && D.leq (fst (f c a)) (fst (f c a')))

let mono1 name f =
  q (Printf.sprintf "%s monotone" name) arb_vv (fun (a, b) ->
      D.leq (fst (f a)) (fst (f (D.join a b))))

let monotone_tests =
  [ mono2 "fadd" D.fadd;
    mono2 "fsub" D.fsub;
    mono2 "fmul" D.fmul;
    mono2 "fdiv" D.fdiv;
    mono2 "fminmax" D.fminmax;
    mono1 "fsqrt" D.fsqrt;
    mono1 "fround" D.fround ]

(* ---- widening termination ---------------------------------------------- *)

let widening_tests =
  [ q ~count:200 "widening chains terminate"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 40) arb_v)
      (fun vs ->
        (* accumulate the whole chain through widen; then re-feeding any
           element must reach a fixpoint within a small bound *)
        let w = ref D.bot in
        List.iter (fun v -> w := D.widen !w (D.join !w v)) vs;
        let steps = ref 0 in
        let stable = ref false in
        while (not !stable) && !steps < 64 do
          incr steps;
          let w' =
            List.fold_left (fun acc v -> D.widen acc (D.join acc v)) !w vs
          in
          if D.equal w' !w then stable := true else w := w'
        done;
        !stable) ]

(* ---- concrete soundness ------------------------------------------------ *)

(* gamma-soundness of one binary transfer: classify (a op b) is below
   transfer (classify a) (classify b) *)
let sound_tests =
  let s2 name op f =
    q ~count:3000 (Printf.sprintf "%s sound vs binary64" name) arb_ff
      (fun (x, y) ->
        D.leq (classify (op x y)) (fst (f (classify x) (classify y))))
  in
  [ s2 "fadd" ( +. ) D.fadd;
    s2 "fsub" ( -. ) D.fsub;
    s2 "fmul" ( *. ) D.fmul;
    s2 "fdiv" ( /. ) D.fdiv;
    s2 "fmin" min D.fminmax;
    q ~count:3000 "fsqrt sound vs binary64" arb_f (fun x ->
        D.leq (classify (sqrt x)) (fst (D.fsqrt (classify x))));
    q ~count:3000 "fround sound vs binary64" arb_f (fun x ->
        D.leq (classify (Float.round x)) (fst (D.fround (classify x))));
    q ~count:3000 "classify_bits never bot" arb_f (fun x ->
        not (D.is_bot (classify x))) ]

(* ---- whole-program pass ------------------------------------------------ *)

let pass_tests =
  List.map
    (fun (e : W.entry) ->
      Alcotest.test_case (Printf.sprintf "%s: pass consistent" e.W.name)
        `Quick (fun () ->
          let prog = e.W.program W.Test in
          let _, f = Fpa.analyze prog in
          Alcotest.(check int)
            "sites = |verdicts|" f.Fpa.sites
            (Array.length f.Fpa.verdicts);
          Alcotest.(check bool) "proven <= sites" true (f.Fpa.proven <= f.Fpa.sites);
          Alcotest.(check bool)
            "sub_free/born_free consistent" true
            (f.Fpa.sub_free <= f.Fpa.sites && f.Fpa.born_free <= f.Fpa.sites);
          let sorted = ref true and last = ref (-1) in
          Array.iter
            (fun (v : Fpa.verdict) ->
              if v.Fpa.v_index <= !last then sorted := false;
              last := v.Fpa.v_index;
              (* verdict counters agree with the flags *)
              if v.Fpa.v_born_free then
                List.iter
                  (fun r ->
                    List.iter
                      (fun p ->
                        if
                          String.length r >= String.length p
                          && String.sub r 0 (String.length p) = p
                        then
                          Alcotest.failf "%s: born-free site %d carries %s"
                            e.W.name v.Fpa.v_index r)
                      [ "nan:"; "inf:"; "unknown:"; "unproven:" ])
                  v.Fpa.v_risks)
            f.Fpa.verdicts;
          Alcotest.(check bool) "verdicts sorted by index" true !sorted))
    W.all

let workload name =
  match W.find name with Some e -> e | None -> Alcotest.failf "no workload %s" name

let proves_something =
  [ Alcotest.test_case "fbench proves subnormal-free sites" `Quick (fun () ->
        let _, f = Fpa.analyze ((workload "fbench").W.program W.Test) in
        Alcotest.(check bool) "sub_free > 0" true (f.Fpa.sub_free > 0);
        Alcotest.(check bool) "born_free > 0" true (f.Fpa.born_free > 0));
    Alcotest.test_case "NAS IS proves birth-free sites" `Quick (fun () ->
        let _, f = Fpa.analyze ((workload "NAS IS").W.program W.Test) in
        Alcotest.(check bool) "born_free = sites" true
          (f.Fpa.born_free = f.Fpa.sites)) ]

(* ---- engine differential: fpa on == fpa off ---------------------------- *)

module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)

let cfg ?(use_fpa = true) ?(oracle = false) () =
  { Fpvm.Engine.default_config with
    Fpvm.Engine.use_fpa; oracle; jit_threshold = 2 }

let differential =
  List.map
    (fun (e : W.entry) ->
      Alcotest.test_case (Printf.sprintf "%s: fpa == no-fpa" e.W.name) `Quick
        (fun () ->
          let prog = e.W.program W.Test in
          let on = E_vanilla.run ~config:(cfg ()) prog in
          let off = E_vanilla.run ~config:(cfg ~use_fpa:false ()) prog in
          Alcotest.(check string)
            "printed output" off.Fpvm.Engine.output on.Fpvm.Engine.output;
          Alcotest.(check string)
            "serialized channel" off.Fpvm.Engine.serialized
            on.Fpvm.Engine.serialized))
    W.all

(* ---- static/dynamic soundness oracle (vanilla port) -------------------- *)

let vanilla_driver =
  match Fleet.Port.of_flags ~arith:"vanilla" ~prec:200 ~posit:32 with
  | Ok p -> Fleet.port_driver p
  | Error m -> failwith m

let oracle_tests =
  List.map
    (fun (e : W.entry) ->
      Alcotest.test_case (Printf.sprintf "%s: oracle clean" e.W.name) `Quick
        (fun () ->
          let prog = e.W.program W.Test in
          let a = Fpvm.Vsa.analyze prog in
          let born =
            Fpa.born_free_array a.Fpvm.Vsa.fpa
              (Array.length prog.Machine.Program.insns)
          in
          let tel =
            Telemetry.create ~numprof:true
              ~clean:(fun i -> i >= 0 && i < Array.length born && born.(i))
              ()
          in
          let r =
            vanilla_driver.Fleet.d_run ~facts:a
              ~instrument:(fun sink -> Telemetry.attach tel sink)
              ~config:(cfg ~oracle:true ()) prog
          in
          Telemetry.finalize tel r.Fpvm.Engine.stats;
          Alcotest.(check int)
            "no subnormal at proven-sub-free site" 0
            r.Fpvm.Engine.stats.Fpvm.Stats.fpa_sub_violations;
          Alcotest.(check int)
            "no NaN/Inf birth at proven-clean site" 0
            r.Fpvm.Engine.stats.Fpvm.Stats.fpa_nan_violations))
    W.all

let () =
  Alcotest.run "fpa"
    [ ("lattice", lattice_tests);
      ("monotone", monotone_tests);
      ("widening", widening_tests);
      ("soundness", sound_tests);
      ("pass", pass_tests);
      ("proves", proves_something);
      ("differential", differential);
      ("oracle", oracle_tests) ]

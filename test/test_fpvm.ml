(* FPVM engine tests: NaN-boxing, arena/GC, trap-and-emulate
   transparency (Vanilla == native), precision effects (MPFR), the
   correctness-trap path, and the alternative approaches. *)

open Machine
module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)
module E_mpfr = Fpvm.Engine.Make (Fpvm.Alt_mpfr)
module E_posit = Fpvm.Engine.Make (Fpvm.Alt_posit)

let xmm n = Isa.Xmm n
let reg r = Isa.Reg r
let immi v = Isa.Imm (Int64.of_int v)

(* ---- nanbox unit + property tests ---- *)

let nanbox_tests =
  let q name ?(count = 2000) arb law =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED5 |])
 (QCheck.Test.make ~count ~name arb law)
  in
  [ Alcotest.test_case "box roundtrip basics" `Quick (fun () ->
        List.iter
          (fun i ->
            let b = Fpvm.Nanbox.box i in
            Alcotest.(check bool) "is_boxed" true (Fpvm.Nanbox.is_boxed b);
            Alcotest.(check int) "unbox" i (Fpvm.Nanbox.unbox b);
            (* boxed values are signaling NaNs *)
            Alcotest.(check bool) "snan" true (Ieee754.Soft64.is_snan b))
          [ 0; 1; 42; 65535; Fpvm.Nanbox.max_index ]);
    Alcotest.test_case "box rejects out-of-range" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Nanbox.box: index")
          (fun () -> ignore (Fpvm.Nanbox.box (-1))));
    q "ordinary doubles are never boxed" QCheck.float (fun f ->
        QCheck.assume (not (Float.is_nan f));
        not (Fpvm.Nanbox.is_boxed (Int64.bits_of_float f)));
    q "box roundtrip (random index)" (QCheck.int_range 0 1000000) (fun i ->
        Fpvm.Nanbox.unbox (Fpvm.Nanbox.box i) = i);
    (* The engine's one-compare live-temp test: any box of index
       [temp_base + k], k below [temp_base], with either sign; the top
       bits of a payload, the quiet bit and the tag are flipped in. *)
    q "temp mask = is_temp_box below 2^47"
      QCheck.(
        quad bool (int_range 0 15) (int_range 0 3)
          (oneof [ int_range 0 64; int_range 0 (Fpvm.Plan.temp_base - 1) ]))
      (fun (neg, top, qt, k) ->
        let bits =
          Int64.(
            logor
              (logor (shift_left (of_int top) 46) (of_int k))
              (logor 0x7FF0_0000_0000_0000L (shift_left (of_int qt) 50)))
        in
        let bits = if neg then Int64.logor bits Int64.min_int else bits in
        let masked =
          Int64.equal
            (Int64.logand bits Fpvm.Plan.temp_mask)
            (Fpvm.Plan.box_temp 0)
        in
        masked
        = (Fpvm.Plan.is_temp_box bits
          && Fpvm.Plan.temp_slot bits < Fpvm.Plan.temp_base)
        && ((not masked) || Fpvm.Plan.temp_slot bits = k));
    Alcotest.test_case "quiet NaN is not boxed" `Quick (fun () ->
        Alcotest.(check bool) "qnan" false
          (Fpvm.Nanbox.is_boxed (Int64.bits_of_float Float.nan)));
    Alcotest.test_case "foreign snan detected" `Quick (fun () ->
        let s = Ieee754.Soft64.make_snan ~payload:3L in
        Alcotest.(check bool) "foreign" true (Fpvm.Nanbox.is_foreign_snan s);
        Alcotest.(check bool) "not ours" false (Fpvm.Nanbox.is_boxed s))
  ]

(* A reference model of the arena: a record per cell, and the free and
   young sets as lists (push = cons, pop = head), the representation the
   arena had before its cells became arrays. Arena indices become NaN-box
   payloads, which every fingerprint depends on, so the arena must hand
   out and free exactly the indices the model does. *)
module Arena_model = struct
  module M = Map.Make (Int)

  type cell = { v : int option; mark : bool; young : bool }

  type t = {
    mutable cells : cell M.t; (* every index below next_fresh *)
    mutable next_fresh : int;
    mutable free : int list;
    mutable young : int list;
    mutable live : int;
    mutable total_alloc : int;
    mutable total_freed : int;
    mutable high_water : int;
  }

  let create () =
    { cells = M.empty; next_fresh = 0; free = []; young = []; live = 0;
      total_alloc = 0; total_freed = 0; high_water = 0 }

  let cell m i = M.find i m.cells
  let set m i c = m.cells <- M.add i c m.cells

  let alloc m v =
    let i =
      match m.free with
      | i :: rest ->
          m.free <- rest;
          i
      | [] ->
          let i = m.next_fresh in
          m.next_fresh <- i + 1;
          set m i { v = None; mark = false; young = false };
          i
    in
    if not (cell m i).young then m.young <- i :: m.young;
    set m i { v = Some v; mark = false; young = true };
    m.live <- m.live + 1;
    m.total_alloc <- m.total_alloc + 1;
    m.high_water <- max m.high_water m.live;
    i

  let get m i = if i < 0 || i >= m.next_fresh then None else (cell m i).v

  let mark m i = if get m i <> None then set m i { (cell m i) with mark = true }

  let clear_marks m =
    m.cells <- M.map (fun c -> { c with mark = false }) m.cells

  let release m i =
    set m i { (cell m i) with v = None; mark = false };
    m.free <- i :: m.free;
    m.live <- m.live - 1;
    m.total_freed <- m.total_freed + 1

  let free m i = if get m i <> None then release m i

  (* one sweep visit: free if live and unmarked, then clear mark and
     young *)
  let visit m freed i =
    let c = cell m i in
    if c.v <> None && not c.mark then begin
      release m i;
      incr freed
    end;
    set m i { (cell m i) with mark = false; young = false }

  let sweep m =
    let freed = ref 0 in
    for i = 0 to m.next_fresh - 1 do
      visit m freed i
    done;
    m.young <- [];
    !freed

  let sweep_young m =
    let freed = ref 0 in
    List.iter (visit m freed) m.young;
    m.young <- [];
    !freed
end

type arena_op =
  | Alloc
  | Alloc_many of int
  | Free of int
  | Mark of int
  | Clear_marks
  | Sweep
  | Sweep_young
  | Get of int

let show_arena_op = function
  | Alloc -> "alloc"
  | Alloc_many n -> Printf.sprintf "alloc x%d" n
  | Free i -> Printf.sprintf "free %d" i
  | Mark i -> Printf.sprintf "mark %d" i
  | Clear_marks -> "clear_marks"
  | Sweep -> "sweep"
  | Sweep_young -> "sweep_young"
  | Get i -> Printf.sprintf "get %d" i

(* Capacities 1 and 2 make [grow] run early; 4,096 is the engine's
   start, and [Alloc_many] can take it past that. Indices reach below 0
   and past the cells handed out. *)
let arb_arena_ops =
  let open QCheck.Gen in
  let index = frequency [ (8, int_range (-1) 40); (1, int_range 0 6000) ] in
  let op =
    frequency
      [ (12, return Alloc);
        (1, map (fun n -> Alloc_many n) (int_range 1 5000));
        (6, map (fun i -> Free i) index);
        (12, map (fun i -> Mark i) index);
        (2, return Clear_marks);
        (2, return Sweep);
        (4, return Sweep_young);
        (6, map (fun i -> Get i) index) ]
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map show_arena_op ops)))
    (pair (oneofl [ 1; 2; 4096 ]) (list_size (int_range 1 150) op))

let arena_counters a =
  Fpvm.Arena.
    [ live_count a; young_count a; total_alloc a; total_freed a;
      high_water a ]

let model_counters (m : Arena_model.t) =
  [ m.live; List.length m.young; m.total_alloc; m.total_freed; m.high_water ]

let arena_model_test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xA7E4A |])
    (QCheck.Test.make ~count:200 ~name:"indices and counters match the model"
       arb_arena_ops (fun (capacity, ops) ->
         let a = Fpvm.Arena.create ~capacity 0 and m = Arena_model.create () in
         let next = ref 0 in
         let same what x y =
           if x <> y then QCheck.Test.fail_reportf "%s differs" what
         in
         let alloc () =
           incr next;
           same "alloc index" (Fpvm.Arena.alloc a !next)
             (Arena_model.alloc m !next)
         in
         List.iter
           (fun op ->
             (match op with
             | Alloc -> alloc ()
             | Alloc_many n ->
                 for _ = 1 to n do
                   alloc ()
                 done
             | Free i ->
                 Fpvm.Arena.free a i;
                 Arena_model.free m i
             | Mark i ->
                 Fpvm.Arena.mark a i;
                 Arena_model.mark m i
             | Clear_marks ->
                 Fpvm.Arena.clear_marks a;
                 Arena_model.clear_marks m
             | Sweep -> same "sweep" (Fpvm.Arena.sweep a) (Arena_model.sweep m)
             | Sweep_young ->
                 same "sweep_young" (Fpvm.Arena.sweep_young a)
                   (Arena_model.sweep_young m)
             | Get i -> same "get" (Fpvm.Arena.get a i) (Arena_model.get m i));
             same
               ("counters after " ^ show_arena_op op)
               (arena_counters a) (model_counters m))
           ops;
         for i = -1 to m.next_fresh + 1 do
           same (Printf.sprintf "get %d" i) (Fpvm.Arena.get a i)
             (Arena_model.get m i)
         done;
         true))

let arena_tests =
  [ Alcotest.test_case "alloc/get/sweep" `Quick (fun () ->
        let a = Fpvm.Arena.create ~capacity:2 0.0 in
        let i1 = Fpvm.Arena.alloc a 1.5 in
        let i2 = Fpvm.Arena.alloc a 2.5 in
        let i3 = Fpvm.Arena.alloc a 3.5 in
        Alcotest.(check (option (float 0.0))) "get" (Some 2.5) (Fpvm.Arena.get a i2);
        Alcotest.(check int) "live" 3 (Fpvm.Arena.live_count a);
        Fpvm.Arena.clear_marks a;
        Fpvm.Arena.mark a i1;
        Fpvm.Arena.mark a i3;
        let freed = Fpvm.Arena.sweep a in
        Alcotest.(check int) "freed" 1 freed;
        Alcotest.(check (option (float 0.0))) "gone" None (Fpvm.Arena.get a i2);
        Alcotest.(check (option (float 0.0))) "kept" (Some 3.5) (Fpvm.Arena.get a i3);
        (* freed index is reused *)
        let i4 = Fpvm.Arena.alloc a 9.0 in
        Alcotest.(check int) "reuse" i2 i4);
    Alcotest.test_case "stats" `Quick (fun () ->
        let a = Fpvm.Arena.create 0.0 in
        for i = 0 to 99 do
          ignore (Fpvm.Arena.alloc a (float_of_int i))
        done;
        Alcotest.(check int) "total" 100 (Fpvm.Arena.total_alloc a);
        Alcotest.(check int) "high water" 100 (Fpvm.Arena.high_water a);
        Fpvm.Arena.clear_marks a;
        let freed = Fpvm.Arena.sweep a in
        Alcotest.(check int) "all freed" 100 freed);
    Alcotest.test_case "an empty arena grows" `Quick (fun () ->
        let a = Fpvm.Arena.create ~capacity:0 0.0 in
        Alcotest.(check (list int)) "indices" [ 0; 1; 2 ]
          (List.map (Fpvm.Arena.alloc a) [ 1.5; 2.5; 3.5 ]);
        Alcotest.(check (option (float 0.0))) "get" (Some 3.5)
          (Fpvm.Arena.get a 2));
    arena_model_test
  ]

(* ---- a rounding-heavy test program ---- *)

(* Computes x <- x * 1.1 + 0.3 iterated n times starting from 0.1, then
   s = sqrt(x), prints both. Nearly every operation rounds, so under
   FPVM everything gets promoted. *)
let build_iter_prog n =
  let b = Program.create ~name:"iter" () in
  let c = Program.data_f64 b [| 0.1; 1.1; 0.3 |] in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi n });
  let loop = Program.new_label b in
  Program.place b loop;
  Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 16)) });
  Program.emit b (Isa.Dec (reg Isa.RCX));
  Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 0 });
  Program.jcc b Isa.Jg loop;
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b (Isa.Fp_arith { op = Isa.FSQRT; w = Isa.F64; packed = false; dst = xmm 0; src = xmm 0 });
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

(* The logistic map x <- r x (1-x) at r = 3.9: chaotic, so trajectories
   computed at different precisions fully decorrelate within ~60 steps. *)
let build_logistic_prog n =
  let b = Program.create ~name:"logistic" () in
  let c = Program.data_f64 b [| 0.2; 3.9; 1.0 |] in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi n });
  let loop = Program.new_label b in
  Program.place b loop;
  (* xmm1 = 1 - x *)
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 1; src = Isa.Mem (Isa.addr (c + 16)) });
  Program.emit b (Isa.Fp_arith { op = Isa.FSUB; w = Isa.F64; packed = false; dst = xmm 1; src = xmm 0 });
  Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = xmm 1 });
  Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  Program.emit b (Isa.Dec (reg Isa.RCX));
  Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 0 });
  Program.jcc b Isa.Jg loop;
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

(* A program exercising the correctness-trap path: stores a rounded
   double to memory, reads its bits back as an integer (the Figure 6
   idiom), and uses them to decide a branch. *)
let build_bits_prog () =
  let b = Program.create ~name:"bits" () in
  let c = Program.data_f64 b [| 0.1; 0.2 |] in
  let slot = Program.data_zero b 8 in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  (* store the (promoted!) result, then reinterpret as int *)
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
  Program.emit b (Isa.Call_ext Isa.Print_i64);
  (* and the value still works as a float afterwards *)
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr slot) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

(* ---- the Vanilla port against the soft core ---- *)

(* add, sub, mul, div, sqrt and fma run on the host's binary64 unit and
   hand NaN results to the soft core, which the machine's native steps
   run. The port must equal the soft core bit for bit, NaN payload, sign
   and default NaN included, whatever the host's own NaN rules are. *)
let vanilla_tests =
  let module V = Fpvm.Alt_vanilla in
  let module S = Ieee754.Soft64 in
  let rne = Ieee754.Softfp.Nearest_even in
  let bits = Int64.bits_of_float in
  let hex = Printf.sprintf "0x%016Lx" in
  (* shaped like test_ieee754's generator: uniform bits, host floats,
     specials, and random sign/exponent/mantissa fields *)
  let specials =
    List.map bits
      [ 0.0; -0.0; 1.0; -1.0; 0.5; 1.5; Float.infinity; Float.neg_infinity;
        Float.nan; Float.max_float; Float.min_float; 4.94e-324; 1e308;
        1e-300; 0.1; 1.0000000000000002; 6755399441055744.0 ]
  in
  let gen_double =
    QCheck.Gen.(
      frequency
        [ (4, map Int64.of_int (int_bound max_int));
          (4, float >|= bits);
          (1, oneofl specials);
          (2,
           let* s = int_bound 1 in
           let* e = int_bound 2047 in
           let* m = map Int64.of_int (int_bound max_int) in
           return
             (Int64.logor
                (Int64.shift_left (Int64.of_int s) 63)
                (Int64.logor
                   (Int64.shift_left (Int64.of_int e) 52)
                   (Int64.logand m 0xFFFFFFFFFFFFFL)))) ])
  in
  let arb = QCheck.make ~print:hex gen_double in
  let q name arb law =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED6 |])
      (QCheck.Test.make ~count:2000 ~name arb law)
  in
  let binops =
    [ ("add", V.add, S.add); ("sub", V.sub, S.sub); ("mul", V.mul, S.mul);
      ("div", V.div, S.div) ]
  in
  (* Every pair and triple of these goes through each function: two
     quiet NaNs of different payload and sign and two signalling NaNs
     (in every operand order and position, so sub 0 (-qNaN) too), the
     invalid operations inf-inf, 0*inf, 0/0, inf/inf, sqrt of a negative
     number and fma inf 0 c with finite and NaN c, sqrt -0, overflow to
     +inf and -inf (max*3, -max-max), subnormal results (1e-300*1e-20,
     min_sub*3) and round-half-even ties (1 + 2^-53, 2^53 + 1,
     2^53 + 3). *)
  let directed =
    [ 0x7FF8000000000001L; 0xFFF8000000000002L; 0x7FF0000000000001L;
      0xFFF4000000000000L ]
    @ List.map bits
        [ 0.0; -0.0; 1.0; -1.0; 3.0; 0x1p-53; 0x1p53; Float.infinity;
          Float.neg_infinity; Float.max_float; -.Float.max_float; 1e-300;
          1e-20; 4.94e-324 ]
  in
  let same name v s = Alcotest.(check string) name (hex s) (hex v) in
  List.map
    (fun (name, v, s) ->
      q (name ^ " = Soft64") (QCheck.pair arb arb) (fun (a, b) ->
          Int64.equal (v a b) (fst (s rne a b))))
    binops
  @ [ q "sqrt = Soft64" arb (fun a -> Int64.equal (V.sqrt a) (fst (S.sqrt rne a)));
      q "fma = Soft64" (QCheck.triple arb arb arb) (fun (a, b, c) ->
          Int64.equal (V.fma a b c) (fst (S.fma rne a b c)));
      Alcotest.test_case "directed: NaNs, invalid ops, overflow, subnormals, ties"
        `Quick (fun () ->
          List.iter
            (fun a ->
              same ("sqrt " ^ hex a) (V.sqrt a) (fst (S.sqrt rne a));
              List.iter
                (fun b ->
                  List.iter
                    (fun (name, v, s) ->
                      same (Printf.sprintf "%s %s %s" name (hex a) (hex b))
                        (v a b) (fst (s rne a b)))
                    binops;
                  List.iter
                    (fun c ->
                      same (Printf.sprintf "fma %s %s %s" (hex a) (hex b) (hex c))
                        (V.fma a b c) (fst (S.fma rne a b c)))
                    directed)
                directed)
            directed) ]

(* ---- software checks (trap-and-patch handlers, static stubs) ---- *)

(* Ten iterations of a divsd of two raw constants: each one raises
   inexact on raw operands, the case a patched site's postcondition
   check exists for. *)
let build_divsd_loop () =
  let b = Program.create ~name:"divsd-loop" () in
  let c = Program.data_f64 b [| 1.0; 3.0 |] in
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 0 });
  let loop = Program.new_label b in
  Program.place b loop;
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b
    (Isa.Fp_arith
       { op = Isa.FDIV; w = Isa.F64; packed = false; dst = xmm 0;
         src = Isa.Mem (Isa.addr (c + 8)) });
  Program.emit b (Isa.Inc (reg Isa.RCX));
  Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 10 });
  Program.jcc b Isa.Jl loop;
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

(* A patched site emulates an instruction once, whether its
   postcondition fails by a raised flag or by a fault, and every
   approach counts each dynamic FP instruction once, emulated or not. *)
let software_check_tests =
  [ Alcotest.test_case "patch emulates as emulate does; FP counts agree"
      `Quick (fun () ->
        let programs =
          ("divsd-loop", build_divsd_loop ())
          :: List.map
               (fun (w : Workloads.entry) ->
                 (w.Workloads.name, w.Workloads.program Workloads.Test))
               Workloads.all
        in
        List.iter
          (fun incremental_gc ->
            List.iter
              (fun (name, prog) ->
                let run approach =
                  E_vanilla.run
                    ~config:
                      { Fpvm.Engine.default_config with
                        Fpvm.Engine.approach; incremental_gc }
                    prog
                in
                let e = run Fpvm.Engine.Trap_and_emulate
                and p = run Fpvm.Engine.Trap_and_patch
                and s = run Fpvm.Engine.Static_transform in
                let emulated (r : Fpvm.Engine.result) =
                  r.Fpvm.Engine.stats.Fpvm.Stats.emulated_insns
                in
                let gc = if incremental_gc then "incremental" else "full" in
                Alcotest.(check int)
                  (Printf.sprintf "%s (%s GC): patch emulates" name gc)
                  (emulated e) (emulated p);
                Alcotest.(check int)
                  (Printf.sprintf "%s (%s GC): patch fp_insns" name gc)
                  e.Fpvm.Engine.fp_insns p.Fpvm.Engine.fp_insns;
                Alcotest.(check int)
                  (Printf.sprintf "%s (%s GC): static fp_insns" name gc)
                  e.Fpvm.Engine.fp_insns s.Fpvm.Engine.fp_insns;
                Alcotest.(check int)
                  (Printf.sprintf "%s (%s GC): static emulates" name gc)
                  (emulated e) (emulated s);
                Alcotest.(check string)
                  (Printf.sprintf "%s (%s GC): static output" name gc)
                  e.Fpvm.Engine.output s.Fpvm.Engine.output)
              programs)
          [ true; false ]) ]

let validation_tests =
  [ Alcotest.test_case "vanilla == native (iter program)" `Quick (fun () ->
        let prog = build_iter_prog 100 in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical output" native.Fpvm.Engine.output
          v.Fpvm.Engine.output;
        (* sequence emulation absorbs in-trace faults without delivery;
           delivered + absorbed equals the single-step engine's count *)
        Alcotest.(check bool) "traps occurred" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.fp_traps
           + v.Fpvm.Engine.stats.Fpvm.Stats.traps_avoided
           > 100));
    Alcotest.test_case "vanilla == native (libm path)" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 1.2345 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Call_ext Isa.Sin);
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b (Isa.Call_ext Isa.Exp);
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output);
    Alcotest.test_case "vanilla == native (bit reinterpretation)" `Quick
      (fun () ->
        let prog = build_bits_prog () in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output;
        Alcotest.(check bool) "correctness traps fired" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.correctness_traps > 0);
        Alcotest.(check bool) "demotions happened" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.correctness_demotions > 0));
    Alcotest.test_case "mpfr changes a chaotic trajectory" `Quick (fun () ->
        let prog = build_logistic_prog 300 in
        let native = Fpvm.Engine.run_native prog in
        let m = E_mpfr.run prog in
        Alcotest.(check bool) "different trajectories" true
          (native.Fpvm.Engine.output <> m.Fpvm.Engine.output);
        (* both stay inside the logistic map's invariant interval *)
        let v = float_of_string (String.trim m.Fpvm.Engine.output) in
        Alcotest.(check bool) "bounded" true (v > 0.0 && v < 1.0));
    Alcotest.test_case "vanilla matches native on the chaotic map" `Quick
      (fun () ->
        let prog = build_logistic_prog 300 in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output);
    Alcotest.test_case "posit run completes and approximates" `Quick (fun () ->
        let prog = build_iter_prog 50 in
        let native = Fpvm.Engine.run_native prog in
        let p = E_posit.run prog in
        let first_line s = List.hd (String.split_on_char '\n' s) in
        let nf = float_of_string (first_line native.Fpvm.Engine.output) in
        let pf = float_of_string (first_line p.Fpvm.Engine.output) in
        Alcotest.(check bool) "within 0.1%" true
          (Float.abs ((nf -. pf) /. nf) < 1e-3));
    Alcotest.test_case "gc reclaims shadow values" `Quick (fun () ->
        let prog = build_iter_prog 2000 in
        let config =
          { Fpvm.Engine.default_config with Fpvm.Engine.gc_interval = 500 }
        in
        let v = E_vanilla.run ~config prog in
        let s = v.Fpvm.Engine.stats in
        Alcotest.(check bool) "gc ran" true (s.Fpvm.Stats.gc_passes >= 3);
        Alcotest.(check bool) "freed most garbage" true
          (s.Fpvm.Stats.gc_freed > s.Fpvm.Stats.boxes_allocated / 2);
        (* the single live chain value survives: alive stays tiny *)
        Alcotest.(check bool) "alive small" true (s.Fpvm.Stats.gc_alive_last < 32));
    Alcotest.test_case "decode cache amortizes" `Quick (fun () ->
        (* in the unspecialized engine every revisit decodes; with plans
           on, decode happens only on a plan miss, so the cache's
           amortization is visible only with plans off *)
        let prog = build_iter_prog 500 in
        let config =
          { Fpvm.Engine.default_config with Fpvm.Engine.use_plans = false }
        in
        let v = E_vanilla.run ~config prog in
        let s = v.Fpvm.Engine.stats in
        Alcotest.(check bool) "hits >> misses" true
          (s.Fpvm.Stats.decode_hits > 50 * s.Fpvm.Stats.decode_misses);
        (* with plans on, the plan table takes over that role *)
        let sp = (E_vanilla.run prog).Fpvm.Engine.stats in
        Alcotest.(check bool) "plan hits >> plan misses" true
          (sp.Fpvm.Stats.plan_hits > 50 * sp.Fpvm.Stats.plan_misses));
    Alcotest.test_case "all three approaches agree (vanilla)" `Quick (fun () ->
        let prog = build_iter_prog 60 in
        let native = Fpvm.Engine.run_native prog in
        List.iter
          (fun approach ->
            let config = { Fpvm.Engine.default_config with Fpvm.Engine.approach } in
            let r = E_vanilla.run ~config prog in
            Alcotest.(check string) "output" native.Fpvm.Engine.output
              r.Fpvm.Engine.output)
          [ Fpvm.Engine.Trap_and_emulate; Fpvm.Engine.Trap_and_patch;
            Fpvm.Engine.Static_transform ]);
    Alcotest.test_case "trap-and-patch stops trapping after patch" `Quick
      (fun () ->
        let prog = build_iter_prog 500 in
        let config =
          { Fpvm.Engine.default_config with
            Fpvm.Engine.approach = Fpvm.Engine.Trap_and_patch }
        in
        let r = E_vanilla.run ~config prog in
        let s = r.Fpvm.Engine.stats in
        (* only the first visit of each site traps; the rest go through
           the patch *)
        Alcotest.(check bool) "few kernel traps" true (s.Fpvm.Stats.fp_traps < 20);
        Alcotest.(check bool) "many patch invocations" true
          (s.Fpvm.Stats.patch_invocations > 400));
    Alcotest.test_case "always-emulate mode (footnote 2) is transparent" `Quick
      (fun () ->
        let prog = build_iter_prog 100 in
        let native = Fpvm.Engine.run_native prog in
        let config =
          { Fpvm.Engine.default_config with
            Fpvm.Engine.approach = Fpvm.Engine.Static_transform;
            Fpvm.Engine.always_emulate = true }
        in
        let r = E_vanilla.run ~config prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          r.Fpvm.Engine.output;
        (* every FP instruction was emulated, not just the rounding ones *)
        Alcotest.(check bool) "all fp insns emulated" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.emulated_insns
           >= r.Fpvm.Engine.fp_insns - 5));
    Alcotest.test_case "static transform uses no kernel traps" `Quick (fun () ->
        let prog = build_iter_prog 200 in
        let config =
          { Fpvm.Engine.default_config with
            Fpvm.Engine.approach = Fpvm.Engine.Static_transform }
        in
        let r = E_vanilla.run ~config prog in
        let s = r.Fpvm.Engine.stats in
        Alcotest.(check int) "zero sigfpe" 0 s.Fpvm.Stats.fp_traps;
        Alcotest.(check bool) "checked stubs ran" true
          (s.Fpvm.Stats.checked_invocations > 200))
  ]

(* ---- VSA tests ---- *)

let vsa_tests =
  [ Alcotest.test_case "detects the Fig 6 store-load idiom" `Quick (fun () ->
        let prog = build_bits_prog () in
        let a = Fpvm.Vsa.analyze prog in
        (* instruction 3 is the integer load of the stored double *)
        Alcotest.(check bool) "sink found" true (List.mem 3 a.Fpvm.Vsa.sinks));
    Alcotest.test_case "pure integer loads are proven safe" `Quick (fun () ->
        let b = Program.create () in
        let ints = Program.data_i64 b [| 10L; 20L |] in
        let floats = Program.data_f64 b [| 1.5 |] in
        (* float store to its own a-loc *)
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr floats) });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr floats); src = xmm 0 });
        (* integer load from a different a-loc *)
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr ints) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let a = Fpvm.Vsa.analyze prog in
        Alcotest.(check int) "no sinks" 0 (List.length a.Fpvm.Vsa.sinks);
        Alcotest.(check bool) "loads seen" true (a.Fpvm.Vsa.total_int_loads >= 1);
        Alcotest.(check bool) "proven" true (a.Fpvm.Vsa.proven_safe_loads >= 1));
    Alcotest.test_case "xor-self is not a sink; sign-flip xor is" `Quick
      (fun () ->
        let b = Program.create () in
        let m = Program.data_f64 b [| -0.0; -0.0 |] in
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 0; src = xmm 0 });
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 1; src = Isa.Mem (Isa.addr m) });
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let a = Fpvm.Vsa.analyze prog in
        Alcotest.(check bool) "self not sink" true (not (List.mem 0 a.Fpvm.Vsa.sinks));
        Alcotest.(check bool) "flip is sink" true (List.mem 1 a.Fpvm.Vsa.sinks));
    Alcotest.test_case "movq is always a sink" `Quick (fun () ->
        let b = Program.create () in
        Program.emit b (Isa.Movq_xr { dst = Isa.RAX; src = 0 });
        Program.emit b Isa.Halt;
        let a = Fpvm.Vsa.analyze (Program.finish b) in
        Alcotest.(check bool) "sink" true (List.mem 0 a.Fpvm.Vsa.sinks))
  ]

let fpspy_tests =
  [ Alcotest.test_case "fpspy is transparent (output identical)" `Quick
      (fun () ->
        let prog = build_iter_prog 200 in
        let native = Fpvm.Engine.run_native prog in
        let spy = Fpvm.Fpspy.run prog in
        Alcotest.(check string) "output" native.Fpvm.Engine.output
          spy.Fpvm.Fpspy.run.Fpvm.Engine.output);
    Alcotest.test_case "fpspy counts rounding events" `Quick (fun () ->
        let spy = Fpvm.Fpspy.run (build_iter_prog 100) in
        let p = spy.Fpvm.Fpspy.profile in
        Alcotest.(check bool) "traps" true (p.Fpvm.Fpspy.total_traps >= 100);
        Alcotest.(check bool) "mostly rounding" true
          (p.Fpvm.Fpspy.rounded > p.Fpvm.Fpspy.total_traps / 2);
        Alcotest.(check int) "no overflow" 0 p.Fpvm.Fpspy.overflowed);
    Alcotest.test_case "fpspy finds the hot sites" `Quick (fun () ->
        let spy = Fpvm.Fpspy.run (build_iter_prog 300) in
        match Fpvm.Fpspy.top_sites ~n:2 spy.Fpvm.Fpspy.profile with
        | top :: _ ->
            Alcotest.(check bool) "hot site hit per iteration" true
              (top.Fpvm.Fpspy.hits >= 290)
        | [] -> Alcotest.fail "no sites recorded");
    Alcotest.test_case "fpspy sees NaN consumption as invalid" `Quick
      (fun () ->
        let open Machine in
        let b = Program.create () in
        let c = Program.data_f64 b [| 0.0; 1.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FDIV; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b Isa.Halt;
        let spy = Fpvm.Fpspy.run (Program.finish b) in
        (* 0/0 raises IE once; the resulting quiet NaN flows silently
           (only signaling NaNs re-trap - which is exactly why FPVM
           needs NaN-*boxing* to keep seeing its values) *)
        Alcotest.(check int) "one invalid event" 1
          spy.Fpvm.Fpspy.profile.Fpvm.Fpspy.invalid)
  ]

(* ---- slash (fixed-precision rational) arithmetic ---- *)

module Slash = Fpvm.Alt_slash

(* The slash port is a functor over the num/den bit budget; each test
   instantiates the budgets it needs (two can coexist in one test). *)
module Slash8 = Fpvm.Alt_slash.Make (struct let bits = 8 end)
module Slash9 = Fpvm.Alt_slash.Make (struct let bits = 9 end)
module Slash16 = Fpvm.Alt_slash.Make (struct let bits = 16 end)
module E_slash128 =
  Fpvm.Engine.Make (Fpvm.Alt_slash.Make (struct let bits = 128 end))

let slash_tests =
  [ Alcotest.test_case "exact field arithmetic (1/3 * 3 = 1)" `Quick (fun () ->
        let one = Slash.promote (Int64.bits_of_float 1.0) in
        let three = Slash.promote (Int64.bits_of_float 3.0) in
        let third = Slash.div one three in
        Alcotest.(check string) "repr" "1/3" (Slash.to_string third);
        Alcotest.(check bool) "back to one" true
          (Slash.cmp_quiet (Slash.mul third three) one = Ieee754.Softfp.Cmp_eq));
    Alcotest.test_case "budget rounding walks pi's convergents" `Quick
      (fun () ->
        (* 8-bit budget: 333/106 busts (333 > 256), so 22/7 remains;
           9-bit budget admits 355/113 *)
        let pi8 = Slash8.promote (Int64.bits_of_float Float.pi) in
        Alcotest.(check string) "22/7" "22/7" (Slash8.to_string pi8);
        let pi9 = Slash9.promote (Int64.bits_of_float Float.pi) in
        Alcotest.(check string) "355/113" "355/113" (Slash9.to_string pi9));
    Alcotest.test_case "0.1 + 0.2 = 0.3 exactly at small budgets" `Quick
      (fun () ->
        (* with a 16-bit budget, promote snaps each double to its best
           small rational: 1/10, 1/5, 3/10 - and the artifact vanishes *)
        let p f = Slash16.promote (Int64.bits_of_float f) in
        Alcotest.(check string) "tenth" "1/10" (Slash16.to_string (p 0.1));
        let sum = Slash16.add (p 0.1) (p 0.2) in
        Alcotest.(check bool) "equals 3/10" true
          (Slash16.cmp_quiet sum (p 0.3) = Ieee754.Softfp.Cmp_eq));
    Alcotest.test_case "to_i64 rounding modes" `Quick (fun () ->
        let half3 =
          Slash.div
            (Slash.promote (Int64.bits_of_float 7.0))
            (Slash.promote (Int64.bits_of_float 2.0))
        in
        (* 7/2 = 3.5 *)
        Alcotest.(check int64) "rne ties-to-even" 4L
          (Slash.to_i64 Ieee754.Softfp.Nearest_even half3);
        Alcotest.(check int64) "trunc" 3L
          (Slash.to_i64 Ieee754.Softfp.Toward_zero half3);
        Alcotest.(check int64) "floor" 3L
          (Slash.to_i64 Ieee754.Softfp.Toward_neg half3);
        Alcotest.(check int64) "ceil" 4L
          (Slash.to_i64 Ieee754.Softfp.Toward_pos half3));
    Alcotest.test_case "engine run under slash arithmetic" `Quick (fun () ->
        let prog = build_iter_prog 40 in
        let native = Fpvm.Engine.run_native prog in
        let r = E_slash128.run prog in
        (* rational arithmetic stays near the IEEE result at this scale *)
        let f s = float_of_string (List.hd (String.split_on_char '\n' s)) in
        let nf = f native.Fpvm.Engine.output and sf = f r.Fpvm.Engine.output in
        Alcotest.(check bool) "close" true
          (Float.abs ((nf -. sf) /. nf) < 1e-9))
  ]

let () =
  Alcotest.run "fpvm"
    [ ("nanbox", nanbox_tests);
      ("slash", slash_tests);
      ("arena", arena_tests);
      ("vanilla", vanilla_tests);
      ("validation", validation_tests);
      ("softcheck", software_check_tests);
      ("fpspy", fpspy_tests);
      ("vsa", vsa_tests) ]

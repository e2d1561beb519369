(* Bigfloat (MPFR substitute) tests.

   Oracle 1: at precision 53 with operands taken from binary64 values of
   moderate exponent, correctly rounded bigfloat +,-,*,/,sqrt must agree
   bit-for-bit with the host's IEEE double arithmetic (same precision,
   same rounding, no over/underflow in range).

   Oracle 2: elementary functions at precision 53 must land within a few
   ulps of OCaml's libm (bigfloat is faithful, libm is ~1 ulp).

   Oracle 3: elementary functions at precisions 53-240 against an
   independent reference at 2 prec + 64 bits: faithful everywhere, and
   correctly rounded on a fixed corpus.

   Plus: high-precision self-consistency identities, known constants to
   50 decimal digits, string roundtrips, directed rounding laws. *)

module B = Bigfloat
module E = Elementary

let bf = Alcotest.testable B.pp B.equal

(* Structural equality: the same bits, NaN included. *)
let bits = Alcotest.testable B.pp ( = )

(* doubles with exponents in a comfortable range *)
let gen_mid =
  QCheck.Gen.(
    let* m = float_bound_inclusive 2.0 in
    let* e = int_range (-300) 300 in
    let* s = oneofl [ 1.0; -1.0 ] in
    return (s *. Float.ldexp (1.0 +. m /. 2.0) e))

let arb_mid = QCheck.make ~print:(Printf.sprintf "%h") gen_mid

let q name ?(count = 1000) arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED7 |])
 (QCheck.Test.make ~count ~name arb law)

let ulp_diff a b =
  (* distance in representable doubles *)
  let ia = Int64.bits_of_float a and ib = Int64.bits_of_float b in
  let key v = if Int64.compare v 0L < 0 then Int64.sub Int64.min_int v else v in
  Int64.abs (Int64.sub (key ia) (key ib))

let oracle53_tests =
  [ q "add53 = double add" (QCheck.pair arb_mid arb_mid) (fun (a, b) ->
        let r = B.to_float (B.add ~prec:53 (B.of_float a) (B.of_float b)) in
        Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float (a +. b)));
    q "sub53 = double sub" (QCheck.pair arb_mid arb_mid) (fun (a, b) ->
        let r = B.to_float (B.sub ~prec:53 (B.of_float a) (B.of_float b)) in
        Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float (a -. b)));
    q "mul53 = double mul" (QCheck.pair arb_mid arb_mid) (fun (a, b) ->
        let r = B.to_float (B.mul ~prec:53 (B.of_float a) (B.of_float b)) in
        Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float (a *. b)));
    q "div53 = double div" (QCheck.pair arb_mid arb_mid) (fun (a, b) ->
        let r = B.to_float (B.div ~prec:53 (B.of_float a) (B.of_float b)) in
        Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float (a /. b)));
    q "sqrt53 = double sqrt" arb_mid (fun a ->
        let a = Float.abs a in
        let r = B.to_float (B.sqrt ~prec:53 (B.of_float a)) in
        Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float (Float.sqrt a)));
    q "fma53 = double fma" (QCheck.triple arb_mid arb_mid arb_mid)
      (fun (a, b, c) ->
        let r =
          B.to_float
            (B.fma ~prec:53 (B.of_float a) (B.of_float b) (B.of_float c))
        in
        Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float (Float.fma a b c)));
    q "of_float/to_float roundtrip (all doubles)" QCheck.float (fun f ->
        let f' = B.to_float (B.of_float f) in
        Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
        || (Float.is_nan f && Float.is_nan f'));
    q "to_float subnormal roundtrip" (QCheck.int_range 1 4503599627370495)
      (fun m ->
        let f = Float.ldexp (float_of_int m) (-1074) in
        Int64.equal (Int64.bits_of_float f)
          (Int64.bits_of_float (B.to_float (B.of_float f))));
    q "compare matches float compare" (QCheck.pair arb_mid arb_mid)
      (fun (a, b) ->
        B.compare (B.of_float a) (B.of_float b) = Some (Float.compare a b))
  ]

let libm_tests =
  let close ?(ulps = 16L) name f bigf =
    q (name ^ "53 ~ libm") arb_mid (fun a ->
        let a = Float.of_string (Printf.sprintf "%.17g" a) in
        QCheck.assume (Float.is_finite (f a));
        let r = B.to_float (bigf ~prec:53 (B.of_float a)) in
        if Float.is_nan (f a) then Float.is_nan r
        else ulp_diff r (f a) <= ulps)
  in
  let bounded g = QCheck.make ~print:(Printf.sprintf "%h") QCheck.Gen.(map g (float_bound_inclusive 1.0)) in
  [ close "exp" Float.exp E.exp;
    close "log" (fun x -> Float.log (Float.abs x)) (fun ~prec x -> E.log ~prec (B.abs x));
    q "sin53 ~ libm (moderate args)" (bounded (fun t -> (t -. 0.5) *. 2000.0))
      (fun a ->
        ulp_diff (B.to_float (E.sin ~prec:53 (B.of_float a))) (Float.sin a) <= 16L);
    q "cos53 ~ libm (moderate args)" (bounded (fun t -> (t -. 0.5) *. 2000.0))
      (fun a ->
        ulp_diff (B.to_float (E.cos ~prec:53 (B.of_float a))) (Float.cos a) <= 16L);
    q "tan53 ~ libm" (bounded (fun t -> (t -. 0.5) *. 3.0)) (fun a ->
        ulp_diff (B.to_float (E.tan ~prec:53 (B.of_float a))) (Float.tan a) <= 64L);
    q "atan53 ~ libm" (bounded (fun t -> (t -. 0.5) *. 50.0)) (fun a ->
        ulp_diff (B.to_float (E.atan ~prec:53 (B.of_float a))) (Float.atan a) <= 16L);
    q "asin53 ~ libm" (bounded (fun t -> (t -. 0.5) *. 1.99)) (fun a ->
        ulp_diff (B.to_float (E.asin ~prec:53 (B.of_float a))) (Float.asin a) <= 64L);
    q "atan2 quadrants" (QCheck.pair arb_mid arb_mid) (fun (y, x) ->
        let r = B.to_float (E.atan2 ~prec:53 (B.of_float y) (B.of_float x)) in
        ulp_diff r (Float.atan2 y x) <= 64L);
    q "pow53 ~ libm (positive base)" (QCheck.pair (bounded (fun t -> t *. 10.0 +. 0.1)) (bounded (fun t -> (t -. 0.5) *. 20.0)))
      (fun (a, b) ->
        let h = a ** b in
        QCheck.assume (Float.is_finite h && Float.abs h > 1e-300);
        ulp_diff (B.to_float (E.pow ~prec:53 (B.of_float a) (B.of_float b))) h <= 64L)
  ]

let known_constants =
  [ Alcotest.test_case "pi to 50 digits" `Quick (fun () ->
        let s = B.to_string ~digits:50 (E.pi ~prec:200) in
        Alcotest.(check string) "pi"
          "3.1415926535897932384626433832795028841971693993751e+00" s);
    Alcotest.test_case "ln2 to 40 digits" `Quick (fun () ->
        let s = B.to_string ~digits:40 (E.ln2 ~prec:180) in
        Alcotest.(check string) "ln2"
          "6.931471805599453094172321214581765680755e-01" s);
    Alcotest.test_case "e to 40 digits" `Quick (fun () ->
        let s = B.to_string ~digits:40 (E.euler_e ~prec:180) in
        Alcotest.(check string) "e"
          "2.718281828459045235360287471352662497757e+00" s);
    Alcotest.test_case "sqrt2 to 40 digits" `Quick (fun () ->
        let s = B.to_string ~digits:40 (B.sqrt ~prec:180 B.two) in
        Alcotest.(check string) "sqrt2"
          "1.414213562373095048801688724209698078570e+00" s)
  ]

let high_precision_tests =
  let p = 256 in
  let tol = B.scale2 B.one (-(p - 24)) in
  let close a b =
    (* |a-b| <= tol * max(1,|a|) *)
    let d = B.abs (B.sub ~prec:(p + 8) a b) in
    let scale = B.max_op B.one (B.abs a) in
    B.le d (B.mul ~prec:(p + 8) tol scale)
  in
  [ q "exp(log x) = x @256" arb_mid ~count:200 (fun a ->
        let a = Float.abs a +. 0.001 in
        QCheck.assume (a < 1e200);
        let x = B.of_float a in
        close x (E.exp ~prec:p (E.log ~prec:p x)));
    q "sin^2 + cos^2 = 1 @256" arb_mid ~count:200 (fun a ->
        QCheck.assume (Float.abs a < 1e6);
        let x = B.of_float a in
        let s = E.sin ~prec:p x and c = E.cos ~prec:p x in
        close B.one
          (B.add ~prec:p (B.mul ~prec:p s s) (B.mul ~prec:p c c)));
    q "sqrt(x)^2 = x @256" arb_mid ~count:200 (fun a ->
        let x = B.abs (B.of_float a) in
        let s = B.sqrt ~prec:p x in
        close x (B.mul ~prec:p s s));
    q "tan = sin/cos @256" arb_mid ~count:100 (fun a ->
        QCheck.assume (Float.abs a < 100.0 && Float.abs (Float.cos a) > 0.01);
        let x = B.of_float a in
        close (E.tan ~prec:p x)
          (B.div ~prec:p (E.sin ~prec:p x) (E.cos ~prec:p x)));
    q "atan(tan t) = t for |t|<pi/2 @256" (QCheck.float_range (-1.5) 1.5)
      ~count:100
      (fun t ->
        let x = B.of_float t in
        close x (E.atan ~prec:p (E.tan ~prec:p x)));
    q "pow(x,3) = x*x*x @256" arb_mid ~count:200 (fun a ->
        QCheck.assume (Float.abs a < 1e60);
        let x = B.of_float a in
        let x3 = B.mul ~prec:p (B.mul ~prec:p x x) x in
        close x3 (E.pow ~prec:p x (B.of_int 3)));
    q "fma exactness: fma(a,b,-ab) = 0" (QCheck.pair arb_mid arb_mid)
      ~count:300
      (fun (a, b) ->
        let x = B.of_float a and y = B.of_float b in
        let nab = B.neg (B.mul_exact x y) in
        B.is_zero (B.fma ~prec:53 x y nab))
  ]

let rounding_tests =
  [ q "directed roundings bracket" (QCheck.pair arb_mid arb_mid) (fun (a, b) ->
        let x = B.of_float a and y = B.of_float b in
        let up = B.add ~prec:20 ~mode:Ieee754.Softfp.Toward_pos x y in
        let dn = B.add ~prec:20 ~mode:Ieee754.Softfp.Toward_neg x y in
        let ne = B.add ~prec:20 x y in
        B.le dn ne && B.le ne up);
    q "rtz magnitude <= rne" (QCheck.pair arb_mid arb_mid) (fun (a, b) ->
        let x = B.of_float a and y = B.of_float b in
        let tz = B.mul ~prec:20 ~mode:Ieee754.Softfp.Toward_zero x y in
        let ne = B.mul ~prec:20 x y in
        B.le (B.abs tz) (B.abs ne));
    q "lower precision is coarser" arb_mid (fun a ->
        (* rounding to 10 bits then 20 = rounding straight to 10? No -
           double rounding differs; instead: |x - round10(x)| >=
           |x - round20(x)| *)
        let x = B.of_float a in
        let r10 = B.add ~prec:10 x B.zero and r20 = B.add ~prec:20 x B.zero in
        B.le (B.abs (B.sub ~prec:60 x r20)) (B.abs (B.sub ~prec:60 x r10))
        || B.equal r10 r20)
  ]

let misc_tests =
  [ Alcotest.test_case "floor/ceil/trunc/round" `Quick (fun () ->
        let t v = B.of_float v in
        Alcotest.check bf "floor 2.7" (t 2.0) (B.floor (t 2.7));
        Alcotest.check bf "floor -2.7" (t (-3.0)) (B.floor (t (-2.7)));
        Alcotest.check bf "ceil 2.1" (t 3.0) (B.ceil (t 2.1));
        Alcotest.check bf "trunc -2.7" (t (-2.0)) (B.trunc (t (-2.7)));
        Alcotest.check bf "round 2.5" (t 3.0) (B.round_half_away (t 2.5));
        Alcotest.check bf "round -2.5" (t (-3.0)) (B.round_half_away (t (-2.5)));
        Alcotest.check bf "rint 2.5 rne" (t 2.0) (B.rint ~prec:53 (t 2.5)));
    Alcotest.test_case "fmod" `Quick (fun () ->
        let t v = B.of_float v in
        Alcotest.check bf "7 mod 2" (t 1.0) (B.fmod ~prec:53 (t 7.0) (t 2.0));
        Alcotest.check bf "-7 mod 2" (t (-1.0)) (B.fmod ~prec:53 (t (-7.0)) (t 2.0));
        Alcotest.check bf "5.5 mod 1.25" (t 0.5) (B.fmod ~prec:53 (t 5.5) (t 1.25)));
    Alcotest.test_case "of_string basics" `Quick (fun () ->
        Alcotest.check bf "1.5" (B.of_float 1.5) (B.of_string ~prec:53 "1.5");
        Alcotest.check bf "0.1" (B.of_float 0.1) (B.of_string ~prec:53 "0.1");
        Alcotest.check bf "-2.5e3" (B.of_float (-2500.0)) (B.of_string ~prec:53 "-2.5e3");
        Alcotest.check bf "1e-5" (B.of_float 1e-5) (B.of_string ~prec:53 "1e-5");
        Alcotest.check bf "123456789" (B.of_float 123456789.0)
          (B.of_string ~prec:53 "123456789"));
    Alcotest.test_case "special values" `Quick (fun () ->
        Alcotest.(check bool) "nan" true (B.is_nan (B.add ~prec:53 B.inf B.neg_inf));
        Alcotest.(check bool) "inf*0" true (B.is_nan (B.mul ~prec:53 B.inf B.zero));
        Alcotest.check bf "1/inf" B.zero (B.div ~prec:53 B.one B.inf);
        Alcotest.(check bool) "sqrt(-1)" true (B.is_nan (B.sqrt ~prec:53 B.minus_one));
        Alcotest.(check bool) "log(-1)" true (B.is_nan (E.log ~prec:53 B.minus_one));
        Alcotest.check bf "log 0" B.neg_inf (E.log ~prec:53 B.zero);
        Alcotest.check bf "exp -inf" B.zero (E.exp ~prec:53 B.neg_inf));
    Alcotest.test_case "scale2 and exponent" `Quick (fun () ->
        let x = B.of_float 1.5 in
        Alcotest.(check int) "exp 1.5" 0 (B.exponent x);
        Alcotest.(check int) "exp 3" 1 (B.exponent (B.scale2 x 1));
        Alcotest.check bf "scale" (B.of_float 6.0) (B.scale2 x 2));
    Alcotest.test_case "of_int is exact at min_int and max_int" `Quick (fun () ->
        let p62 = B.scale2 B.one 62 in
        Alcotest.check bf "min_int = -2^62" (B.neg p62) (B.of_int min_int);
        Alcotest.check bf "max_int = 2^62 - 1" B.minus_one
          (B.sub ~prec:64 (B.of_int max_int) p62);
        Alcotest.check bf "min_int + max_int = -1" B.minus_one
          (B.add ~prec:64 (B.of_int min_int) (B.of_int max_int)));
    Alcotest.test_case "div_int = div by of_int" `Quick (fun () ->
        List.iter
          (fun k ->
            List.iter
              (fun x ->
                Alcotest.check bits (Printf.sprintf "/%d" k)
                  (B.div ~prec:70 x (B.of_int k)) (B.div_int ~prec:70 x k))
              [ B.of_float 1.1; B.of_float (-3.75); B.zero; B.neg_zero;
                B.inf; B.neg_inf; B.nan ])
          [ 1; -1; 3; 12; -7; 1 lsl 29; (1 lsl 30) + 1; max_int; min_int; 0 ]);
    Alcotest.test_case "canonical equality" `Quick (fun () ->
        (* 0.5 constructed two ways must be structurally equal *)
        let a = B.make ~prec:53 ~mode:B.rne ~sign:0 ~man:(Bignum.Nat.of_int 4) ~exp:(-3) ~sticky:false in
        Alcotest.check bf "canon" B.half a)
  ]

(* ---- bit-identity golden ------------------------------------------------

   A fixed corpus of operands from a 63-bit LCG (no Random: its stream
   differs across OCaml releases) run through every correctly rounded
   operation in all four modes and through the elementary functions.
   The results are serialized exactly (sign, exponent, hex significand)
   and digested. Correct rounding makes every Bigfloat result unique, so
   a kernel rewrite may change speed but never those bits. Elementary's
   results are faithful, not unique: here their bits are checked, and
   the oracle below checks that they are right. Any drift fails. *)

module Nat = Bignum.Nat

let golden_digest = "74b6dab97c9ef34c1745a8461afb61bf"

let lcg seed =
  let s = ref seed in
  fun () ->
    s := (!s * 0x2545F4914F6CDD1D) + 1442695040888963407;
    (!s lsr 20) land 0x3FFFFFFF

(* A natural of exactly [w] bits, in one of several shapes chosen to hit
   rounding boundaries: random, all ones, a power of two, 2^(w-1)+1, and
   random with a long trailing-zero run. *)
let golden_man next w =
  let w = max 1 w in
  let top = Nat.shift_left Nat.one (w - 1) in
  let random () =
    let rec fill acc k =
      if k <= 0 then acc
      else fill (Nat.logor (Nat.shift_left acc 30) (Nat.of_int (next ()))) (k - 30)
    in
    Nat.logor top (Nat.extract_bits (fill Nat.zero w) ~lo:0 ~len:w)
  in
  match next () mod 8 with
  | 0 -> Nat.pred (Nat.shift_left Nat.one w)
  | 1 -> top
  | 2 -> if w > 1 then Nat.succ top else top
  | 3 ->
      let z = next () mod w in
      Nat.logor top (Nat.shift_left (Nat.shift_right (random ()) z) z)
  | _ -> random ()

(* A finite value with a [w]-bit significand whose leading bit sits at
   2^top. *)
let golden_val next ~w ~top =
  let man = golden_man next w in
  let sign = next () land 1 in
  B.make ~prec:(max 2 w) ~mode:B.rne ~sign ~man ~exp:(top - w + 1) ~sticky:false

let golden_modes =
  Ieee754.Softfp.[ Nearest_even; Toward_zero; Toward_pos; Toward_neg ]

let golden_results () =
  let next = lcg 0x5EED_B17 in
  let out = ref [] in
  let emit v = out := v :: !out in
  let pick l = List.nth l (next () mod List.length l) in
  let special () = pick [ B.zero; B.neg_zero; B.inf; B.neg_inf; B.nan ] in
  let width prec = 1 + (next () mod (prec + 40)) in
  let operand prec =
    if next () mod 20 = 0 then special ()
    else golden_val next ~w:(width prec) ~top:((next () mod 41) - 20)
  in
  List.iter
    (fun prec ->
      List.iter
        (fun mode ->
          for i = 0 to 9 do
            let x = operand prec in
            (* add/sub: a random pair, a pair straddling the [guard]
               epsilon branch of [add] (gap around prec + 12 bits), or a
               carry-out tie (prec ones plus half an ulp). *)
            let y =
              match i mod 3 with
              | 0 -> operand prec
              | 1 ->
                  let wy = width prec in
                  let gap = prec + 12 + ((next () mod 7) - 3) in
                  golden_val next ~w:wy ~top:(-gap)
              | _ -> golden_val next ~w:1 ~top:(-prec)
            in
            let x' =
              if i mod 3 = 2 then
                B.make ~prec ~mode:B.rne ~sign:0
                  ~man:(Nat.pred (Nat.shift_left Nat.one prec))
                  ~exp:(1 - prec) ~sticky:false
              else x
            in
            emit (B.add ~prec ~mode x' y);
            emit (B.sub ~prec ~mode x' (B.neg y));
            let z = operand prec in
            emit (B.mul ~prec ~mode x z);
            emit (B.div ~prec ~mode x z);
            emit (B.sqrt ~prec ~mode (B.abs x));
            (* fma: random addend, or one cancelling most of the product *)
            let c =
              if i mod 2 = 0 then operand prec
              else B.neg (B.add ~prec:(prec / 2) (B.mul_exact x z) y)
            in
            emit (B.fma ~prec ~mode x z c);
            let r =
              golden_val next ~w:(width prec) ~top:((next () mod 16) - 2)
            in
            emit (B.rint ~prec ~mode (if i = 0 then B.add ~prec r B.half else r))
          done)
        golden_modes)
    [ 24; 53; 70; 200; 240 ];
  let unary =
    [ ("exp", E.exp, (-5, 4)); ("log", (fun ~prec x -> E.log ~prec (B.abs x)), (-40, 40));
      ("log10", (fun ~prec x -> E.log10 ~prec (B.abs x)), (-40, 40));
      ("sin", E.sin, (-8, 6)); ("cos", E.cos, (-8, 6)); ("tan", E.tan, (-8, 2));
      ("asin", E.asin, (-8, -1)); ("acos", E.acos, (-8, -1));
      ("atan", E.atan, (-8, 8)) ]
  in
  List.iter
    (fun prec ->
      List.iter
        (fun (_, f, (lo, hi)) ->
          for _ = 1 to 20 do
            let top = lo + (next () mod (hi - lo + 1)) in
            emit (f ~prec (golden_val next ~w:(width prec) ~top))
          done)
        unary;
      for _ = 1 to 20 do
        let y = golden_val next ~w:(width prec) ~top:((next () mod 10) - 4) in
        let x = golden_val next ~w:(width prec) ~top:((next () mod 10) - 4) in
        emit (E.atan2 ~prec y x)
      done;
      for i = 1 to 20 do
        let x = B.abs (golden_val next ~w:(width prec) ~top:((next () mod 6) - 3)) in
        let y =
          if i mod 4 = 0 then B.of_int ((next () mod 21) - 10)
          else golden_val next ~w:(width prec) ~top:((next () mod 6) - 3)
        in
        emit (E.pow ~prec x y)
      done)
    [ 53; 70; 200 ];
  List.rev !out

let golden_serialize vs =
  let buf = Buffer.create 65536 in
  List.iter
    (fun v ->
      (match B.classify v with
       | `Nan -> Buffer.add_string buf "N"
       | `Inf s -> Printf.bprintf buf "I%d" s
       | `Zero s -> Printf.bprintf buf "Z%d" s
       | `Fin (s, e, m) -> Printf.bprintf buf "F%d:%d:%s" s e (Nat.to_string_hex m));
      Buffer.add_char buf '\n')
    vs;
  Buffer.contents buf

let golden_tests =
  [ Alcotest.test_case "corpus digest is bit-identical" `Quick (fun () ->
        let vs = golden_results () in
        Alcotest.(check bool) "corpus size" true (List.length vs >= 2000);
        let d = Digest.to_hex (Digest.string (golden_serialize vs)) in
        Alcotest.(check string) "digest" golden_digest d) ]

(* ---- faithfulness oracle -----------------------------------------------

   The golden pins Elementary's bits but cannot say they are right. This
   reference recomputes each function independently: plain Taylor sums
   with Bigfloat ops at 2 prec + 64 bits, reduced by identities only (no
   tables, no fixed point). Every result must be one of the two
   representable neighbours of the reference (faithful), and the corpus
   must show no result other than the correctly rounded one. *)

module Ref = struct
  let memo f =
    let tbl = Hashtbl.create 8 in
    fun rp ->
      match Hashtbl.find_opt tbl rp with
      | Some v -> v
      | None ->
          let v = f rp in
          Hashtbl.replace tbl rp v;
          v

  (* t_0 + t_1 + ... with t_k = next k t_(k-1), until a term falls 2^-rp
     below t_0. *)
  let taylor rp t0 next =
    let stop = B.exponent t0 - rp - 4 in
    let rec go k sum t =
      let t = next k t in
      if B.is_zero t || B.exponent t < stop then sum
      else go (k + 1) (B.add ~prec:rp sum t) t
    in
    go 1 t0 t0

  (* sum_k x x2^k / (2k+1): atan with x2 = -x^2, atanh with x2 = x^2. *)
  let odd_series rp x x2 =
    let stop = B.exponent x - rp - 4 in
    let rec go k sum p =
      let p = B.mul ~prec:rp p x2 in
      let t = B.div_int ~prec:rp p ((2 * k) + 1) in
      if B.exponent t < stop then sum else go (k + 1) (B.add ~prec:rp sum t) p
    in
    go 1 x x

  let atan_inv rp n =
    let x = B.div ~prec:rp B.one (B.of_int n) in
    odd_series rp x (B.neg (B.mul ~prec:rp x x))

  let pi =
    memo (fun rp ->
        B.sub ~prec:rp
          (B.mul ~prec:rp (B.of_int 16) (atan_inv rp 5))
          (B.mul ~prec:rp (B.of_int 4) (atan_inv rp 239)))

  (* ln2 = 2 atanh(1/3) *)
  let ln2 =
    memo (fun rp ->
        let x = B.div ~prec:rp B.one (B.of_int 3) in
        B.scale2 (odd_series rp x (B.mul ~prec:rp x x)) 1)

  let half_pi rp = B.scale2 (pi rp) (-1)

  let to_int x =
    match B.classify (B.round_half_away x) with
    | `Zero _ -> 0
    | `Fin (s, e, m) ->
        let v = Nat.to_int (Nat.shift_left m e) in
        if s = 1 then -v else v
    | `Nan | `Inf _ -> invalid_arg "Ref.to_int"

  (* exp x = 2^n exp(r)^(2^10), r = (x - n ln2) / 2^10. *)
  let exp rp x =
    if B.is_zero x then B.one
    else begin
      let wr = rp + 64 + max 0 (B.exponent x) in
      let l2 = ln2 wr in
      let n = to_int (B.div ~prec:wr x l2) in
      let r = B.sub ~prec:wr x (B.mul ~prec:wr (B.of_int n) l2) in
      let r = B.scale2 r (-10) in
      let e =
        taylor wr B.one (fun k t -> B.div_int ~prec:wr (B.mul ~prec:wr t r) k)
      in
      let rec square e i = if i = 0 then e else square (B.mul ~prec:wr e e) (i - 1) in
      B.scale2 (square e 10) n
    end

  (* expm1 x = sum_(k>=1) x^k / k! for |x| < 1/4, else exp x - 1. *)
  let expm1 rp x =
    if B.exponent x < -2 then
      taylor rp x (fun k t -> B.div_int ~prec:rp (B.mul ~prec:rp t x) (k + 1))
    else B.sub ~prec:rp (exp rp x) B.one

  (* log x = k ln2 + 2 atanh((m-1)/(m+1)), m = x 2^-k in [sqrt2/2, sqrt2). *)
  let log rp x =
    let k = B.exponent x in
    let m = B.scale2 x (-k) in
    let k, m =
      if B.lt B.two (B.mul_exact m m) then (k + 1, B.scale2 m (-1)) else (k, m)
    in
    let t = B.div ~prec:rp (B.sub ~prec:rp m B.one) (B.add ~prec:rp m B.one) in
    let lm = if B.is_zero t then B.zero else B.scale2 (odd_series rp t (B.mul ~prec:rp t t)) 1 in
    B.add ~prec:rp lm (B.mul ~prec:rp (B.of_int k) (ln2 (rp + 64)))

  (* x = s + q pi/2 with |s| <= pi/4, using enough bits of pi that s
     keeps rp bits when x lies near a multiple of pi/2. *)
  let reduce rp x =
    let wr = (2 * rp) + max 0 (B.exponent x) in
    let p2 = half_pi wr in
    let m = B.round_half_away (B.div ~prec:wr x p2) in
    let s = B.sub ~prec:wr x (B.mul ~prec:wr m p2) in
    ((to_int (B.fmod ~prec:wr m (B.of_int 4)) + 4) land 3, s)

  let sin_s rp s =
    let ms2 = B.neg (B.mul ~prec:rp s s) in
    taylor rp s (fun k t -> B.div_int ~prec:rp (B.mul ~prec:rp t ms2) (2 * k * ((2 * k) + 1)))

  let cos_s rp s =
    let ms2 = B.neg (B.mul ~prec:rp s s) in
    taylor rp B.one (fun k t ->
        B.div_int ~prec:rp (B.mul ~prec:rp t ms2) (((2 * k) - 1) * 2 * k))

  let sin rp x =
    let q, s = reduce rp x in
    match q with
    | 0 -> sin_s rp s
    | 1 -> cos_s rp s
    | 2 -> B.neg (sin_s rp s)
    | _ -> B.neg (cos_s rp s)

  let cos rp x =
    let q, s = reduce rp x in
    match q with
    | 0 -> cos_s rp s
    | 1 -> B.neg (sin_s rp s)
    | 2 -> B.neg (cos_s rp s)
    | _ -> sin_s rp s
  let tan rp x = B.div ~prec:rp (sin rp x) (cos rp x)
  let log2 rp x = B.div ~prec:rp (log rp x) (ln2 rp)
  let log10 rp x = B.div ~prec:rp (log rp x) (log rp (B.of_int 10))

  (* Halve the angle until |y| <= 1/8: atan y = 2 atan(y / (1 + sqrt(1 + y^2))). *)
  let atan rp x =
    let ax = B.abs x in
    let invert = B.lt B.one ax in
    let y = if invert then B.div ~prec:rp B.one ax else ax in
    let rec halve y h =
      if B.exponent y < -3 then (y, h)
      else
        halve
          (B.div ~prec:rp y
             (B.add ~prec:rp B.one (B.sqrt ~prec:rp (B.add ~prec:rp B.one (B.mul ~prec:rp y y)))))
          (h + 1)
    in
    let y, h = halve y 0 in
    let v = B.scale2 (odd_series rp y (B.neg (B.mul ~prec:rp y y))) h in
    let v = if invert then B.sub ~prec:rp (half_pi rp) v else v in
    if B.signbit x then B.neg v else v

  let asin rp x =
    if B.equal (B.abs x) B.one then
      (if B.signbit x then B.neg (half_pi rp) else half_pi rp)
    else
      atan rp
        (B.div ~prec:rp x
           (B.sqrt ~prec:rp (B.sub ~prec:rp B.one (B.mul_exact x x))))

  let acos rp x = B.sub ~prec:rp (half_pi rp) (asin rp x)

  let atan2 rp y x =
    let base = atan rp (B.div ~prec:rp y x) in
    if not (B.signbit x) then base
    else if B.signbit y then B.sub ~prec:rp base (pi rp)
    else B.add ~prec:rp base (pi rp)

  (* Integer exponents are exact (or one division), so an exact midpoint
     result is seen as one. *)
  let pow rp x y =
    match B.classify y with
    | `Zero _ -> B.one
    | `Fin (s, e, m) when e >= 0 && Nat.num_bits m + e <= 6 ->
        let n = Nat.to_int (Nat.shift_left m e) in
        let p = List.fold_left (fun acc _ -> B.mul_exact acc x) B.one (List.init n Fun.id) in
        if s = 0 then p else B.div ~prec:rp B.one p
    | _ -> exp rp (B.mul ~prec:rp y (log (rp + 64) x))
end

let rounded ~prec mode v = B.add ~prec ~mode v B.zero

(* Inputs: the golden's LCG shapes, [n] per function and precision, with
   the leading bit of each input drawn from [lo, hi]. *)
let oracle_corpus ~seed ~prec ~n (lo, hi) =
  let next = lcg seed in
  List.init n (fun _ ->
      let top = lo + (next () mod (hi - lo + 1)) in
      golden_val next ~w:(1 + (next () mod (prec + 40))) ~top)

(* Each unary case: the function, its reference, its input range and
   whether inputs are taken positive. *)
let oracle_unary =
  [ ("exp", E.exp, Ref.exp, (-20, 8), false);
    ("expm1", E.expm1, Ref.expm1, (-20, 4), false);
    ("log", E.log, Ref.log, (-60, 60), true);
    ("log2", E.log2, Ref.log2, (-60, 60), true);
    ("log10", E.log10, Ref.log10, (-60, 60), true);
    ("sin", E.sin, Ref.sin, (-20, 12), false);
    ("cos", E.cos, Ref.cos, (-20, 12), false);
    ("tan", E.tan, Ref.tan, (-20, 12), false);
    ("asin", E.asin, Ref.asin, (-20, -1), false);
    ("acos", E.acos, Ref.acos, (-20, -1), false);
    ("atan", E.atan, Ref.atan, (-30, 30), false) ]

let oracle_precs = [ 53; 113; 200; 240 ]

(* Boundary inputs at [prec]: the log table's c_j = 1 + j/64 and its
   neighbours for j = 0, 16 and 63, atan's j/64 rounding boundaries and
   1, tiny and large arguments, and the inputs of the reduction fixes:
   log just below 1, and fl(k pi/2). *)
let oracle_edges prec =
  let v f = B.of_float f in
  (* x and its two neighbours at [prec]. *)
  let around x =
    let eps = B.scale2 B.one (B.exponent x - (2 * prec)) in
    [ x; B.add ~prec ~mode:Ieee754.Softfp.Toward_pos x eps;
      B.sub ~prec ~mode:Ieee754.Softfp.Toward_neg x eps ]
  in
  let below_one k = B.sub ~prec:(k + 2) B.one (B.scale2 B.one (-k)) in
  let fl_kpi2 k = B.mul ~prec (B.of_int k) (B.scale2 (E.pi ~prec) (-1)) in
  let tiny = B.scale2 B.one (-300) and large = B.scale2 (v 1.375) 300 in
  let common = [ tiny; B.neg tiny; v 0.5; v (-0.75) ] in
  (* 1 - 2^-k with 2k above prec + 40 bits: x^2 rounded at that width
     would put 1 - x^2 off by 2^-2k. *)
  let near_one =
    [ B.one; B.neg B.one; below_one (prec / 2); B.neg (below_one prec);
      below_one ((2 * prec / 3) - 2) ]
  in
  (* exp(+-2^-(prec+1)) and exp(2^-(prec/2)) lie just off a midpoint. *)
  let near_half_ulp = [ prec + 1; (prec + 1) / 2 ] in
  [ ("exp",
     common
     @ [ v 1000.5; v (-1000.5); B.scale2 (v 1.5) 20; E.ln2 ~prec;
         B.mul ~prec (B.of_int (-3)) (E.ln2 ~prec) ]
     @ List.concat_map
         (fun k -> let t = B.scale2 B.one (-k) in [ t; B.neg t ])
         near_half_ulp);
    ("log",
     List.concat_map around
       [ B.one; v (127.0 /. 64.0); v 1.25; v (127.0 /. 128.0); v (63.0 /. 32.0);
         B.scale2 (v 1.25) 5; B.scale2 (v (127.0 /. 64.0)) (-5) ]
     @ [ v 10.0; tiny; large ]
     @ List.map below_one [ 1; 7; 8; 20; 40; 100; 150 ]);
    ("expm1", common @ [ v 1000.5; v (-1000.5) ]);
    ("log2", [ B.one; v 8.0; v 10.0; tiny; large ] @ List.map below_one [ 1; 20; 100 ]);
    ("log10", [ B.one; v 8.0; v 10.0; v 1e22; tiny; large ] @ List.map below_one [ 1; 20; 100 ]);
    ("sin", common @ [ large; v 1e6 ] @ List.map fl_kpi2 [ 1; 2; 3; 4; 7; 100 ]);
    ("cos", common @ [ large; v 1e6 ] @ List.map fl_kpi2 [ 1; 2; 3; 4; 7; 100 ]);
    ("tan", common @ [ large; v 1e6 ] @ List.map fl_kpi2 [ 1; 2; 3; 5; 7; 100 ]);
    ("asin", common @ near_one);
    ("acos", common @ near_one);
    ("atan",
     common @ [ large; B.neg large ]
     @ List.concat_map around
         [ B.one; v (1.0 /. 128.0); v (127.0 /. 128.0); v (1.0 /. 64.0); v (128.0 /. 127.0) ]) ]

(* [oracle_check] returns (results, faithful failures, not correctly
   rounded) over a list of (input label, result, reference). *)
let oracle_check ~prec cases =
  List.fold_left
    (fun (n, bad, off) (label, r, v) ->
      let dn = rounded ~prec Ieee754.Softfp.Toward_neg v
      and up = rounded ~prec Ieee754.Softfp.Toward_pos v in
      let bad =
        if B.equal r dn || B.equal r up then bad
        else begin
          Printf.printf "  not faithful: %s -> %s, reference %s\n" label
            (B.to_string ~digits:40 r) (B.to_string ~digits:40 v);
          bad + 1
        end
      in
      let off =
        if B.equal r (rounded ~prec B.rne v) then off
        else begin
          Printf.printf "  not correctly rounded: %s\n" label;
          off + 1
        end
      in
      (n + 1, bad, off))
    (0, 0, 0) cases

let oracle_tests =
  let show x = B.to_string ~digits:30 x in
  let unary prec (name, f, reference, range, pos) =
    let rp = (2 * prec) + 64 in
    let corpus = oracle_corpus ~seed:(Hashtbl.hash (name, prec)) ~prec ~n:500 range in
    let corpus = if pos then List.map B.abs corpus else corpus in
    let edges = List.assoc name (oracle_edges prec) in
    List.map
      (fun x -> (Printf.sprintf "%s(%s) @%d" name (show x) prec, f ~prec x, reference rp x))
      (corpus @ edges)
  in
  let binary prec =
    let rp = (2 * prec) + 64 in
    let next = lcg (Hashtbl.hash ("binary", prec)) in
    let arg lo hi = golden_val next ~w:(1 + (next () mod (prec + 40))) ~top:(lo + (next () mod (hi - lo + 1))) in
    List.concat
      (List.init 500 (fun i ->
           let y = arg (-10) 10 and x = arg (-10) 10 in
           let b = B.abs (arg (-6) 6) in
           let e = if i mod 4 = 0 then B.of_int ((next () mod 41) - 20) else arg (-6) 4 in
           [ (Printf.sprintf "atan2(%s, %s) @%d" (show y) (show x) prec,
              E.atan2 ~prec y x, Ref.atan2 rp y x);
             (Printf.sprintf "pow(%s, %s) @%d" (show b) (show e) prec,
              E.pow ~prec b e, Ref.pow rp b e) ]))
  in
  [ Alcotest.test_case "faithful and correctly rounded against the reference" `Slow
      (fun () ->
        let n, bad, off =
          List.fold_left
            (fun (n, bad, off) prec ->
              let n', bad', off' =
                oracle_check ~prec (List.concat_map (unary prec) oracle_unary @ binary prec)
              in
              (n + n', bad + bad', off + off'))
            (0, 0, 0) oracle_precs
        in
        Printf.printf "oracle: %d results, %d not faithful, %d not correctly rounded\n" n bad off;
        Alcotest.(check bool) "corpus size" true (n >= 52 * 500);
        Alcotest.(check int) "not faithful" 0 bad;
        Alcotest.(check int) "not correctly rounded" 0 off) ]

(* ---- reductions that used to cancel -------------------------------------- *)

let fix_tests =
  let same = Alcotest.testable B.pp B.equal in
  [ Alcotest.test_case "log(1 - 2^-k) = -sum 2^-ki / i, rounded" `Quick (fun () ->
        List.iter
          (fun prec ->
            List.iter
              (fun k ->
                let x = B.sub ~prec:(k + 2) B.one (B.scale2 B.one (-k)) in
                (* -log(1 - e) = sum e^i / i, to 3 prec bits. *)
                let rp = 3 * prec in
                let rec sum acc i =
                  let t = B.div_int ~prec:rp (B.scale2 B.one (-k * i)) i in
                  if B.exponent t < B.exponent acc - rp then acc
                  else sum (B.add ~prec:rp acc t) (i + 1)
                in
                let want = B.neg (rounded ~prec B.rne (sum (B.scale2 B.one (-k)) 2)) in
                Alcotest.check same (Printf.sprintf "k=%d prec=%d" k prec) want (E.log ~prec x))
              [ 1; 7; 8; 20; 40; 100; 150 ])
          [ 53; 200 ]);
    Alcotest.test_case "sin, cos, tan at fl(k pi/2) match a 600-bit reference" `Quick (fun () ->
        List.iter
          (fun prec ->
            List.iter
              (fun k ->
                let x = B.mul ~prec (B.of_int k) (B.scale2 (E.pi ~prec) (-1)) in
                List.iter
                  (fun (name, f, reference) ->
                    Alcotest.check same
                      (Printf.sprintf "%s(fl(%d pi/2)) prec=%d" name k prec)
                      (rounded ~prec B.rne (reference 600 x)) (f ~prec x))
                  [ ("sin", E.sin, Ref.sin); ("cos", E.cos, Ref.cos); ("tan", E.tan, Ref.tan) ])
              [ 1; 2; 3; 4; 5; -7 ])
          [ 53; 200 ]);
    Alcotest.test_case "atan2 of signed zeros = Float.atan2" `Quick (fun () ->
        List.iter
          (fun (y, x) ->
            let want = Float.atan2 y x in
            let got = B.to_float (E.atan2 ~prec:53 (B.of_float y) (B.of_float x)) in
            Alcotest.(check int64)
              (Printf.sprintf "atan2(%g, %g)" y x)
              (Int64.bits_of_float want) (Int64.bits_of_float got))
          [ (0.0, 1.0); (-0.0, 1.0); (0.0, -1.0); (-0.0, -1.0) ]) ]

let () =
  Alcotest.run "bigfloat"
    [ ("oracle53", oracle53_tests);
      ("libm", libm_tests);
      ("constants", known_constants);
      ("high-precision", high_precision_tests);
      ("rounding", rounding_tests);
      ("misc", misc_tests);
      ("golden", golden_tests);
      ("oracle", oracle_tests);
      ("fixes", fix_tests) ]

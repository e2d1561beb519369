(* Bigfloat (MPFR substitute) tests.

   Oracle 1: at precision 53 with operands taken from binary64 values of
   moderate exponent, correctly rounded bigfloat +,-,*,/,sqrt must agree
   bit-for-bit with the host's IEEE double arithmetic (same precision,
   same rounding, no over/underflow in range).

   Oracle 2: elementary functions at precision 53 must land within a few
   ulps of OCaml's libm (bigfloat is faithful, libm is ~1 ulp).

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
   and digested. Correct rounding makes every result unique, so a kernel
   rewrite may change speed but never this digest; any drift fails. *)

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

let () =
  Alcotest.run "bigfloat"
    [ ("oracle53", oracle53_tests);
      ("libm", libm_tests);
      ("constants", known_constants);
      ("high-precision", high_precision_tests);
      ("rounding", rounding_tests);
      ("misc", misc_tests);
      ("golden", golden_tests) ]

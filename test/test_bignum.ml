(* Tests for the bignum substrate: oracle comparisons against OCaml native
   ints for small values, algebraic laws for large ones. *)

open Bignum

let nat = Alcotest.testable Nat.pp Nat.equal
let bigint = Alcotest.testable Bigint.pp Bigint.equal

(* --- small-value oracle helpers --- *)

let small_gen = QCheck.Gen.(map abs int)
let small = QCheck.make ~print:string_of_int small_gen

let pair_small = QCheck.pair small small

(* Large random naturals via decimal strings of random digits. *)
let big_gen =
  QCheck.Gen.(
    let* n = int_range 1 120 in
    let* digits = list_repeat n (int_range 0 9) in
    return (Nat.of_string (String.concat "" (List.map string_of_int digits))))

let big = QCheck.make ~print:Nat.to_string big_gen

let unit_tests =
  [ Alcotest.test_case "zero/one basics" `Quick (fun () ->
        Alcotest.check nat "0+0" Nat.zero (Nat.add Nat.zero Nat.zero);
        Alcotest.check nat "0+1" Nat.one (Nat.add Nat.zero Nat.one);
        Alcotest.check nat "1*1" Nat.one (Nat.mul Nat.one Nat.one);
        Alcotest.(check bool) "is_zero" true (Nat.is_zero Nat.zero);
        Alcotest.(check int) "num_bits 0" 0 (Nat.num_bits Nat.zero);
        Alcotest.(check int) "num_bits 1" 1 (Nat.num_bits Nat.one));
    Alcotest.test_case "of_int/to_int roundtrip edges" `Quick (fun () ->
        List.iter
          (fun v -> Alcotest.(check int) (string_of_int v) v (Nat.to_int (Nat.of_int v)))
          [ 0; 1; 2; 1073741823; 1073741824; max_int ]);
    Alcotest.test_case "int64 roundtrip edges" `Quick (fun () ->
        List.iter
          (fun v ->
            Alcotest.(check int64)
              (Int64.to_string v) v
              (Option.get (Nat.to_int64_opt (Nat.of_int64 v))))
          [ 0L; 1L; 0x3FFFFFFFL; 0x40000000L; Int64.max_int ]);
    Alcotest.test_case "decimal string roundtrip" `Quick (fun () ->
        List.iter
          (fun s -> Alcotest.(check string) s s (Nat.to_string (Nat.of_string s)))
          [ "0"; "1"; "999999999"; "1000000000";
            "123456789012345678901234567890123456789" ]);
    Alcotest.test_case "hex parse" `Quick (fun () ->
        Alcotest.check nat "0xff" (Nat.of_int 255) (Nat.of_string "0xff");
        Alcotest.check nat "0x1_0000_0000"
          (Nat.shift_left Nat.one 32)
          (Nat.of_string "0x1_0000_0000"));
    Alcotest.test_case "sub underflow raises" `Quick (fun () ->
        Alcotest.check_raises "1-2" (Invalid_argument "Nat.sub: underflow")
          (fun () -> ignore (Nat.sub Nat.one Nat.two)));
    Alcotest.test_case "division by zero raises" `Quick (fun () ->
        Alcotest.check_raises "1/0" Division_by_zero (fun () ->
            ignore (Nat.divmod Nat.one Nat.zero)));
    Alcotest.test_case "known division" `Quick (fun () ->
        let a = Nat.of_string "123456789012345678901234567890" in
        let b = Nat.of_string "987654321987" in
        let q, r = Nat.divmod a b in
        Alcotest.check nat "recompose" a (Nat.add (Nat.mul q b) r);
        Alcotest.(check bool) "r < b" true (Nat.compare r b < 0));
    Alcotest.test_case "sqrt exact squares" `Quick (fun () ->
        List.iter
          (fun v ->
            let s, r = Nat.sqrt_rem (Nat.mul (Nat.of_int v) (Nat.of_int v)) in
            Alcotest.check nat "sqrt" (Nat.of_int v) s;
            Alcotest.check nat "rem" Nat.zero r)
          [ 0; 1; 2; 65535; 123456789 ]);
    Alcotest.test_case "pow" `Quick (fun () ->
        Alcotest.check nat "2^100"
          (Nat.shift_left Nat.one 100)
          (Nat.pow Nat.two 100);
        Alcotest.check nat "x^0" Nat.one (Nat.pow (Nat.of_int 12345) 0));
    Alcotest.test_case "extract_bits" `Quick (fun () ->
        let v = Nat.of_string "0xABCDEF0123456789" in
        Alcotest.check nat "low nibble" (Nat.of_int 9) (Nat.extract_bits v ~lo:0 ~len:4);
        Alcotest.check nat "mid byte" (Nat.of_int 0x67)
          (Nat.extract_bits v ~lo:8 ~len:8));
    Alcotest.test_case "bits_below_nonzero" `Quick (fun () ->
        let v = Nat.shift_left Nat.one 40 in
        Alcotest.(check bool) "clean below" false (Nat.bits_below_nonzero v 40);
        Alcotest.(check bool) "includes bit" true (Nat.bits_below_nonzero v 41);
        Alcotest.(check bool) "zero" false (Nat.bits_below_nonzero Nat.zero 100));
    Alcotest.test_case "bigint signs" `Quick (fun () ->
        let a = Bigint.of_int (-7) and b = Bigint.of_int 3 in
        let q, r = Bigint.divmod a b in
        Alcotest.check bigint "q" (Bigint.of_int (-2)) q;
        Alcotest.check bigint "r" (Bigint.of_int (-1)) r;
        Alcotest.(check int) "sign" (-1) (Bigint.sign a);
        Alcotest.check bigint "neg" (Bigint.of_int 7) (Bigint.neg a));
    Alcotest.test_case "bigint int64 min" `Quick (fun () ->
        let v = Bigint.of_int64 Int64.min_int in
        Alcotest.(check string) "str" "-9223372036854775808" (Bigint.to_string v))
  ]

let q name ?(count = 500) arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED4 |])
 (QCheck.Test.make ~count ~name arb law)

let property_tests =
  [ q "add oracle" pair_small (fun (a, b) ->
        let a = a / 2 and b = b / 2 in
        Nat.to_int (Nat.add (Nat.of_int a) (Nat.of_int b)) = a + b);
    q "mul oracle" pair_small (fun (a, b) ->
        let a = a land 0x3FFFFFFF and b = b land 0x3FFFFFFF in
        Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b);
    q "sub oracle" pair_small (fun (a, b) ->
        let hi = max a b and lo = min a b in
        Nat.to_int (Nat.sub (Nat.of_int hi) (Nat.of_int lo)) = hi - lo);
    q "divmod oracle" pair_small (fun (a, b) ->
        QCheck.assume (b > 0);
        let qq, r = Nat.divmod (Nat.of_int a) (Nat.of_int b) in
        Nat.to_int qq = a / b && Nat.to_int r = a mod b);
    q "add commutative (big)" (QCheck.pair big big) (fun (a, b) ->
        Nat.equal (Nat.add a b) (Nat.add b a));
    q "mul commutative (big)" (QCheck.pair big big) (fun (a, b) ->
        Nat.equal (Nat.mul a b) (Nat.mul b a));
    q "mul distributes (big)" (QCheck.triple big big big) (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    q "karatsuba agrees with shift-squaring" big (fun a ->
        (* (a * 2^k)^2 = a^2 * 2^2k exercises the split paths *)
        let k = 200 in
        let left = Nat.mul (Nat.shift_left a k) (Nat.shift_left a k) in
        Nat.equal left (Nat.shift_left (Nat.mul a a) (2 * k)));
    q "divmod recompose (big)" (QCheck.pair big big) (fun (a, b) ->
        QCheck.assume (not (Nat.is_zero b));
        let qq, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul qq b) r) && Nat.compare r b < 0);
    q "mul then div identity (big)" (QCheck.pair big big) (fun (a, b) ->
        QCheck.assume (not (Nat.is_zero b));
        let qq, r = Nat.divmod (Nat.mul a b) b in
        Nat.equal qq a && Nat.is_zero r);
    q "shift roundtrip (big)" (QCheck.pair big (QCheck.int_range 0 300))
      (fun (a, k) -> Nat.equal a (Nat.shift_right (Nat.shift_left a k) k));
    q "shift_left is mul by 2^k" (QCheck.pair big (QCheck.int_range 0 120))
      (fun (a, k) -> Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.pow Nat.two k)));
    q "sqrt_rem invariant (big)" big (fun a ->
        let s, r = Nat.sqrt_rem a in
        Nat.equal a (Nat.add (Nat.mul s s) r)
        && Nat.compare a (Nat.mul (Nat.succ s) (Nat.succ s)) < 0);
    q "string roundtrip (big)" big (fun a ->
        Nat.equal a (Nat.of_string (Nat.to_string a)));
    q "hex roundtrip (big)" big (fun a ->
        Nat.equal a (Nat.of_string (Nat.to_string_hex a)));
    q "num_bits bound" big (fun a ->
        QCheck.assume (not (Nat.is_zero a));
        let nb = Nat.num_bits a in
        Nat.compare a (Nat.shift_left Nat.one nb) < 0
        && Nat.compare a (Nat.shift_left Nat.one (nb - 1)) >= 0);
    q "testbit vs extract" (QCheck.pair big (QCheck.int_range 0 200))
      (fun (a, i) ->
        Nat.testbit a i = not (Nat.is_zero (Nat.extract_bits a ~lo:i ~len:1)));
    q "bigint add oracle" (QCheck.pair QCheck.int QCheck.int) (fun (a, b) ->
        let a = a / 4 and b = b / 4 in
        Bigint.to_int_opt (Bigint.add (Bigint.of_int a) (Bigint.of_int b)) = Some (a + b));
    q "bigint mul sign" (QCheck.pair QCheck.int QCheck.int) (fun (a, b) ->
        let a = a mod 100000 and b = b mod 100000 in
        Bigint.to_int_opt (Bigint.mul (Bigint.of_int a) (Bigint.of_int b)) = Some (a * b));
    q "bigint divmod matches C semantics" (QCheck.pair QCheck.int QCheck.int)
      (fun (a, b) ->
        let a = a / 2 and b = b / 2 in
        QCheck.assume (b <> 0);
        let qq, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
        Bigint.to_int_opt qq = Some (a / b) && Bigint.to_int_opt r = Some (a mod b));
    q "bigint string roundtrip" QCheck.int (fun a ->
        Bigint.equal (Bigint.of_int a) (Bigint.of_string (Bigint.to_string (Bigint.of_int a))))
  ]

(* --- adversarial shapes ---

   Uniform random digits almost never produce the values where a seeded
   Newton step, a fused shift kernel or Knuth's add-back goes wrong. These
   generators build them on purpose from explicit limbs. *)

let limb_max = (1 lsl Nat.limb_bits) - 1

let of_limbs limbs =
  List.fold_left
    (fun acc l -> Nat.add (Nat.shift_left acc Nat.limb_bits) (Nat.of_int l))
    Nat.zero (List.rev limbs)

(* Limbs are little-endian in [of_limbs]; the generator draws each limb
   from a boundary-heavy mix. *)
let edge_limb =
  QCheck.Gen.(
    frequency
      [ (3, return limb_max); (2, return 0); (1, return 1);
        (1, return (1 lsl (Nat.limb_bits - 1)));
        (3, int_bound limb_max) ])

let edge_gen =
  QCheck.Gen.(
    frequency
      [ (2, map of_limbs (list_size (int_range 1 12) edge_limb));
        (* all-ones: 2^k - 1 *)
        (1, map (fun k -> Nat.pred (Nat.shift_left Nat.one k)) (int_range 1 400));
        (* powers of two and their neighbours *)
        (1, map (fun k -> Nat.shift_left Nat.one k) (int_range 0 400));
        (1, map (fun k -> Nat.succ (Nat.shift_left Nat.one k)) (int_range 0 400));
        (1, big_gen) ])

let edge = QCheck.make ~print:Nat.to_string_hex edge_gen

(* Reference definitions, one bit at a time. *)
let ref_num_bits a =
  let rec go i last = if i > 64 * 30 then last else go (i + 1) (if Nat.testbit a i then i + 1 else last) in
  go 0 0

let ref_trailing_zeros a =
  if Nat.is_zero a then 0
  else begin
    let rec go i = if Nat.testbit a i then i else go (i + 1) in
    go 0
  end

let floor_sqrt a s r =
  Nat.equal a (Nat.add (Nat.mul s s) r)
  && Nat.compare a (Nat.mul (Nat.succ s) (Nat.succ s)) < 0

(* Divisors whose normalized top limb is exactly 2^29 and numerators of
   all-ones limbs: the q_hat estimate overshoots and the add-back runs. *)
let addback_gen =
  QCheck.Gen.(
    let* low = list_size (int_range 1 6) edge_limb in
    let* m = int_range 1 14 in
    let* tweak = int_bound 3 in
    let b = of_limbs (low @ [ 1 lsl (Nat.limb_bits - 1) ]) in
    let a = of_limbs (List.init (List.length low + m) (fun _ -> limb_max)) in
    return (Nat.sub a (Nat.of_int tweak), b))

let addback =
  QCheck.make
    ~print:(fun (a, b) -> Nat.to_string_hex a ^ " / " ^ Nat.to_string_hex b)
    addback_gen

let adversarial_tests =
  [ q "sqrt_rem floor at s^2, s^2-1, s^2+2s" edge (fun s ->
        let sq = Nat.mul s s in
        let ok a expect =
          let r, rem = Nat.sqrt_rem a in
          Nat.equal r expect && floor_sqrt a r rem
        in
        ok sq s
        && ok (Nat.add sq (Nat.shift_left s 1)) s
        && (Nat.is_zero s || ok (Nat.pred sq) (Nat.pred s)));
    q "sqrt_rem floor (edge shapes)" edge (fun a ->
        let s, r = Nat.sqrt_rem a in
        floor_sqrt a s r);
    q "num_bits = bitwise definition" edge (fun a ->
        Nat.num_bits a = ref_num_bits a);
    q "trailing_zeros = bitwise definition" edge (fun a ->
        Nat.trailing_zeros a = ref_trailing_zeros a);
    q "divmod recompose (add-back divisors)" addback (fun (a, b) ->
        let qq, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul qq b) r) && Nat.compare r b < 0);
    q "shift_div = divmod of the shifted numerator"
      (QCheck.triple edge edge (QCheck.int_range 0 100))
      (fun (a, b, k) ->
        QCheck.assume (not (Nat.is_zero b));
        let qq, r = Nat.divmod (Nat.shift_left a k) b in
        let q', inexact = Nat.shift_div a k b in
        Nat.equal qq q' && inexact = not (Nat.is_zero r));
    q "shift_div_int = divmod_int of the shifted numerator"
      (QCheck.triple edge (QCheck.int_range 1 limb_max) (QCheck.int_range 0 100))
      (fun (a, d, k) ->
        let qq, r = Nat.divmod_int (Nat.shift_left a k) d in
        let q', inexact = Nat.shift_div_int a k d in
        Nat.equal qq q' && inexact = (r <> 0));
    q "add_shift / diff_shift = materialized shift"
      (QCheck.triple edge edge (QCheck.int_range 0 100))
      (fun (a, b, k) ->
        let bs = Nat.shift_left b k in
        let c, d = Nat.diff_shift a b k in
        let c' = Nat.compare a bs in
        Nat.equal (Nat.add_shift a b k) (Nat.add a bs)
        && c = c'
        && Nat.equal d (if c' >= 0 then Nat.sub a bs else Nat.sub bs a));
    q "strip_shift = shift, increment, strip"
      (QCheck.triple edge (QCheck.int_range 0 200) QCheck.bool)
      (fun (a, k, up) ->
        let v = Nat.shift_right a k in
        let v = if up then Nat.succ v else v in
        let m, j = Nat.strip_shift a k ~up in
        if Nat.is_zero v then Nat.is_zero m && j = k
        else
          Nat.testbit m 0
          && Nat.equal (Nat.shift_left m j) (Nat.shift_left v k));
    q "extract_int = extract_bits"
      (QCheck.triple edge (QCheck.int_range 0 420) (QCheck.int_range 0 32))
      (fun (a, lo, len) ->
        Nat.extract_int a ~lo ~len = Nat.to_int (Nat.extract_bits a ~lo ~len));
    Alcotest.test_case "extract_int = extract_bits (every window)" `Quick
      (fun () ->
        (* every limb phase, including the 32-bit windows at phase 29
           that span three limbs *)
        List.iter
          (fun a ->
            for lo = 0 to 130 do
              for len = 0 to 32 do
                if Nat.extract_int a ~lo ~len <> Nat.to_int (Nat.extract_bits a ~lo ~len)
                then Alcotest.failf "lo %d len %d of %s" lo len (Nat.to_string_hex a)
              done
            done)
          [ Nat.pred (Nat.shift_left Nat.one 170);
            Nat.of_string "0x1234567890abcdef0fedcba9876543210aa55aa55";
            Nat.shift_left Nat.one 90 ]);
    q "of_bytes_le = sum of shifted bytes"
      (QCheck.triple QCheck.string QCheck.small_nat QCheck.small_nat)
      (fun (s, off, len) ->
        let off = min off (String.length s) in
        let len = min len (String.length s - off) in
        let expect = ref Nat.zero in
        for i = len - 1 downto 0 do
          expect := Nat.add (Nat.shift_left !expect 8) (Nat.of_int (Char.code s.[off + i]))
        done;
        Nat.equal (Nat.of_bytes_le s off len) !expect) ]

let () =
  Alcotest.run "bignum"
    [ ("nat-unit", unit_tests); ("properties", property_tests);
      ("adversarial", adversarial_tests) ]

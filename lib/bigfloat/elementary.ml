(* Elementary functions: argument reduction + series evaluation with
   guard bits, rounded once at the end.

   Series run at a working precision wp = prec + guard; constants (pi,
   ln2) are computed by integer summations scaled by 2^wp and memoized
   per working precision. *)

module B = Bigfloat
module Nat = Bignum.Nat

let guard = 32

(* ---- integer-scaled constant series ----------------------------------- *)

(* ln2 * 2^wp = sum_{k>=1} 2^wp / (k * 2^k), truncated when terms die. *)
let ln2_scaled wp =
  let acc = ref Nat.zero in
  let k = ref 1 in
  let continue = ref true in
  while !continue do
    if !k > wp then continue := false
    else begin
      let term = fst (Nat.divmod_int (Nat.shift_left Nat.one (wp - !k)) !k) in
      if Nat.is_zero term then continue := false
      else begin
        acc := Nat.add !acc term;
        incr k
      end
    end
  done;
  !acc

(* atan(1/x) * 2^wp for integer x >= 2 (Machin terms). *)
let atan_inv_scaled wp x =
  let x2 = x * x in
  let acc = ref Nat.zero in
  let p = ref (fst (Nat.divmod_int (Nat.shift_left Nat.one wp) x)) in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let term = fst (Nat.divmod_int !p ((2 * !k) + 1)) in
    if Nat.is_zero term then continue := false
    else begin
      if !k land 1 = 0 then acc := Nat.add !acc term
      else acc := Nat.sub !acc term;
      (* x is small (5, 239): two small divisions stay in range. *)
      p := fst (Nat.divmod_int !p x2);
      incr k
    end
  done;
  !acc

(* One memo per constant, keyed by working precision. Domain-local: the
   memo is pure (same key -> same value), but a shared Hashtbl would race
   when engine sessions run on separate domains. Per-domain tables trade
   a few recomputations at domain start for lock-free reads on the hot
   path. *)
let new_cache () : (int, B.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let ln2_cache = new_cache ()
let pi_cache = new_cache ()

let cached key wp compute =
  let tbl = Domain.DLS.get key in
  match Hashtbl.find_opt tbl wp with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.replace tbl wp v;
      v

let ln2_at wp =
  cached ln2_cache wp (fun () ->
      B.make ~prec:wp ~mode:B.rne ~sign:0 ~man:(ln2_scaled (wp + 16))
        ~exp:(-(wp + 16)) ~sticky:true)

(* Machin: pi = 16 atan(1/5) - 4 atan(1/239). *)
let pi_at wp =
  cached pi_cache wp (fun () ->
      let w = wp + 16 in
      let a = Nat.mul_int (atan_inv_scaled w 5) 16 in
      let b = Nat.mul_int (atan_inv_scaled w 239) 4 in
      B.make ~prec:wp ~mode:B.rne ~sign:0 ~man:(Nat.sub a b) ~exp:(-w) ~sticky:true)

let pi ~prec = pi_at (prec + 2)
let ln2 ~prec = ln2_at (prec + 2)

(* ---- small helpers ----------------------------------------------------- *)

let add' wp a b = B.add ~prec:wp a b
let sub' wp a b = B.sub ~prec:wp a b
let mul' wp a b = B.mul ~prec:wp a b
let div' wp a b = B.div ~prec:wp a b
let div_int wp a n = B.div_int ~prec:wp a n

(* Round to final precision: one extra rounding of a wp-precision value. *)
let finish ~prec v =
  match B.classify v with
  | `Fin (sign, exp, man) -> B.make ~prec ~mode:B.rne ~sign ~man ~exp ~sticky:false
  | `Nan | `Inf _ | `Zero _ -> v

(* Nearest integer of x as an OCaml int; caller bounds the magnitude. *)
let to_int_round x =
  match B.classify (B.round_half_away x) with
  | `Zero _ -> 0
  | `Fin (sign, exp, man) ->
      let v = Nat.to_int (Nat.shift_left man exp) in
      if sign = 1 then -v else v
  | `Nan | `Inf _ -> invalid_arg "to_int_round"

(* True when |x| < 2^e. *)
let below x e = B.is_zero x || (B.is_finite x && B.exponent x < e)

(* ---- exp --------------------------------------------------------------- *)

let exp ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf 0 -> B.inf
  | `Inf _ -> B.zero
  | `Zero _ -> B.one
  | `Fin _ ->
      let ex = B.exponent x in
      if ex > 40 then
        (* |x| >= 2^40: the result's exponent exceeds any practical use;
           saturate like an overflow/underflow. *)
        (if B.sign x > 0 then B.inf else B.zero)
      else begin
        let wp = prec + guard + max 0 ex in
        let l2 = ln2_at wp in
        let n = to_int_round (div' wp x l2) in
        let r = sub' wp x (mul' wp (B.of_int n) l2) in
        (* Taylor sum of exp(r), |r| <= ln2/2. *)
        let sum = ref B.one and term = ref B.one and k = ref 1 in
        let continue = ref true in
        while !continue do
          term := div_int wp (mul' wp !term r) !k;
          if below !term (-(wp + 4)) then continue := false
          else begin
            sum := add' wp !sum !term;
            incr k
          end
        done;
        finish ~prec (B.scale2 !sum n)
      end

let expm1 ~prec x =
  (* Direct series for small x to avoid cancellation; otherwise exp-1. *)
  match B.classify x with
  | `Nan -> B.nan
  | `Inf 0 -> B.inf
  | `Inf _ -> B.minus_one
  | `Zero _ -> x
  | `Fin _ ->
      if B.exponent x < -2 then begin
        let wp = prec + guard in
        let sum = ref B.zero and term = ref B.one and k = ref 1 in
        let continue = ref true in
        while !continue do
          term := div_int wp (mul' wp !term x) !k;
          if below !term (-(wp + 4)) && !k > 1 then continue := false
          else begin
            sum := add' wp !sum !term;
            incr k
          end
        done;
        finish ~prec !sum
      end
      else B.sub ~prec (exp ~prec:(prec + 8) x) B.one

let euler_e ~prec = exp ~prec B.one

(* ---- log --------------------------------------------------------------- *)

let log ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf 0 -> B.inf
  | `Inf _ -> B.nan
  | `Zero _ -> B.neg_inf
  | `Fin (1, _, _) -> B.nan
  | `Fin _ ->
      if B.equal x B.one then B.zero
      else begin
        let wp = prec + guard in
        (* x = m * 2^k, m in [1, 2). *)
        let k = B.exponent x in
        let m = B.scale2 x (-k) in
        (* ln m = 2 atanh t, t = (m-1)/(m+1) in [0, 1/3). *)
        let t = div' wp (sub' wp m B.one) (add' wp m B.one) in
        let t2 = mul' wp t t in
        let sum = ref t and term = ref t and j = ref 1 in
        let continue = ref true in
        while !continue do
          term := mul' wp !term t2;
          let contrib = div_int wp !term ((2 * !j) + 1) in
          if below contrib (-(wp + 4)) then continue := false
          else begin
            sum := add' wp !sum contrib;
            incr j
          end
        done;
        let lnm = B.scale2 !sum 1 in
        finish ~prec (add' wp lnm (mul' wp (B.of_int k) (ln2_at wp)))
      end

let log2 ~prec x =
  let wp = prec + 8 in
  B.div ~prec (log ~prec:wp x) (ln2_at wp)

let log10 ~prec x =
  let wp = prec + 8 in
  B.div ~prec (log ~prec:wp x) (log ~prec:wp (B.of_int 10))

(* ---- sin / cos ---------------------------------------------------------- *)

(* Reduce x to (quadrant q, s) with s in [-pi/4, pi/4] and
   x = s + (q + 4n) * pi/2. *)
let trig_reduce wp x =
  let ex = try B.exponent x with Invalid_argument _ -> 0 in
  let wr = wp + max 0 ex + 8 in
  let pi2 = B.scale2 (pi_at wr) (-1) in
  (* m = round(x / (pi/2)) *)
  let m_f = B.round_half_away (div' wr x pi2) in
  let m_mod4, s =
    match B.classify m_f with
    | `Zero _ -> (0, x)
    | `Fin (sign, exp, man) ->
        let md = Nat.to_int (Nat.extract_bits (Nat.shift_left man exp) ~lo:0 ~len:2) in
        let md = if sign = 1 then (4 - md) land 3 else md in
        (md, sub' wr x (mul' wr m_f pi2))
    | `Nan | `Inf _ -> (0, B.nan)
  in
  (m_mod4, s)

let sin_series wp s =
  (* sum (-1)^k s^(2k+1)/(2k+1)!, |s| <= pi/4 *)
  let s2 = B.neg (mul' wp s s) in
  let sum = ref s and term = ref s and k = ref 1 in
  let continue = ref true in
  while !continue do
    term := div_int wp (mul' wp !term s2) (2 * !k * ((2 * !k) + 1));
    if below !term (-(wp + 4)) then continue := false
    else begin
      sum := add' wp !sum !term;
      incr k
    end
  done;
  !sum

let cos_series wp s =
  let s2 = B.neg (mul' wp s s) in
  let sum = ref B.one and term = ref B.one and k = ref 1 in
  let continue = ref true in
  while !continue do
    term := div_int wp (mul' wp !term s2) ((2 * !k) * ((2 * !k) - 1));
    if below !term (-(wp + 4)) then continue := false
    else begin
      sum := add' wp !sum !term;
      incr k
    end
  done;
  !sum

let sin ~prec x =
  match B.classify x with
  | `Nan | `Inf _ -> B.nan
  | `Zero _ -> x
  | `Fin _ ->
      let wp = prec + guard in
      let q, s = trig_reduce wp x in
      let v =
        match q with
        | 0 -> sin_series wp s
        | 1 -> cos_series wp s
        | 2 -> B.neg (sin_series wp s)
        | _ -> B.neg (cos_series wp s)
      in
      finish ~prec v

let cos ~prec x =
  match B.classify x with
  | `Nan | `Inf _ -> B.nan
  | `Zero _ -> B.one
  | `Fin _ ->
      let wp = prec + guard in
      let q, s = trig_reduce wp x in
      let v =
        match q with
        | 0 -> cos_series wp s
        | 1 -> B.neg (sin_series wp s)
        | 2 -> B.neg (cos_series wp s)
        | _ -> sin_series wp s
      in
      finish ~prec v

let tan ~prec x =
  match B.classify x with
  | `Nan | `Inf _ -> B.nan
  | `Zero _ -> x
  | `Fin _ ->
      let wp = prec + guard + 8 in
      let q, s = trig_reduce wp x in
      let sn = sin_series wp s and cs = cos_series wp s in
      let v =
        match q with
        | 0 | 2 -> div' wp sn cs
        | _ -> B.neg (div' wp cs sn)
      in
      finish ~prec v

(* ---- inverse trig -------------------------------------------------------- *)

let atan ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf s ->
      let p = B.scale2 (pi_at (prec + 8)) (-1) in
      finish ~prec (if s = 1 then B.neg p else p)
  | `Zero _ -> x
  | `Fin (sgn, _, _) ->
      let wp = prec + guard + 8 in
      let ax = B.abs x in
      (* |x| > 1: atan x = pi/2 - atan(1/x). *)
      let invert = B.lt B.one ax in
      let y = if invert then div' wp B.one ax else ax in
      (* Halve the angle h times: y <- y / (1 + sqrt(1+y^2)). *)
      let h = 8 in
      let y = ref y in
      for _ = 1 to h do
        let root = B.sqrt ~prec:wp (add' wp B.one (mul' wp !y !y)) in
        y := div' wp !y (add' wp B.one root)
      done;
      let t = !y in
      let t2 = B.neg (mul' wp t t) in
      let sum = ref t and term = ref t and k = ref 1 in
      let continue = ref true in
      while !continue do
        term := mul' wp !term t2;
        let contrib = div_int wp !term ((2 * !k) + 1) in
        if below contrib (-(wp + 4)) then continue := false
        else begin
          sum := add' wp !sum contrib;
          incr k
        end
      done;
      let v = B.scale2 !sum h in
      let v =
        if invert then sub' wp (B.scale2 (pi_at wp) (-1)) v else v
      in
      finish ~prec (if sgn = 1 then B.neg v else v)

let asin ~prec x =
  match B.classify x with
  | `Nan | `Inf _ -> B.nan
  | `Zero _ -> x
  | `Fin _ ->
      let ax = B.abs x in
      if B.lt B.one ax then B.nan
      else if B.equal ax B.one then begin
        let p2 = B.scale2 (pi_at (prec + 8)) (-1) in
        finish ~prec (if B.sign x < 0 then B.neg p2 else p2)
      end
      else begin
        let wp = prec + guard + 8 in
        let denom = B.sqrt ~prec:wp (sub' wp B.one (mul' wp x x)) in
        atan ~prec (div' wp x denom)
      end

let acos ~prec x =
  match B.classify x with
  | `Nan | `Inf _ -> B.nan
  | _ ->
      if B.lt B.one (B.abs x) then B.nan
      else begin
        let wp = prec + guard + 8 in
        let p2 = B.scale2 (pi_at wp) (-1) in
        finish ~prec (sub' wp p2 (asin ~prec:wp x))
      end

let atan2 ~prec y x =
  match (B.classify y, B.classify x) with
  | (`Nan, _) | (_, `Nan) -> B.nan
  | `Zero sy, `Zero sx ->
      (* C convention: atan2(+-0, +0) = +-0; atan2(+-0, -0) = +-pi. *)
      if sx = 0 then (if sy = 1 then B.neg_zero else B.zero)
      else begin
        let p = pi ~prec in
        if sy = 1 then B.neg p else p
      end
  | _ ->
      let wp = prec + guard + 8 in
      let sx = if B.signbit x then -1 else 1 in
      if B.is_zero x then begin
        let p2 = B.scale2 (pi_at wp) (-1) in
        finish ~prec (if B.sign y >= 0 then p2 else B.neg p2)
      end
      else if B.is_inf x || B.is_inf y then begin
        (* Follow C's special-case table loosely. *)
        let p = pi_at wp in
        let v =
          match (B.is_inf y, B.is_inf x, sx) with
          | true, true, 1 -> B.scale2 p (-2)
          | true, true, _ -> B.sub ~prec:wp p (B.scale2 p (-2))
          | true, false, _ -> B.scale2 p (-1)
          | false, true, 1 -> B.zero
          | false, true, _ -> p
          | false, false, _ -> assert false
        in
        let v = if B.sign y < 0 || (B.is_zero y && B.signbit y) then B.neg v else v in
        finish ~prec v
      end
      else begin
        let base = atan ~prec:wp (div' wp y x) in
        let v =
          if sx > 0 then base
          else begin
            let p = pi_at wp in
            if B.sign y >= 0 then add' wp base p else sub' wp base p
          end
        in
        finish ~prec v
      end

(* ---- hyperbolic ----------------------------------------------------------- *)

let sinh ~prec x =
  let wp = prec + guard in
  let e = exp ~prec:wp x and en = exp ~prec:wp (B.neg x) in
  finish ~prec (B.scale2 (sub' wp e en) (-1))

let cosh ~prec x =
  let wp = prec + guard in
  let e = exp ~prec:wp x and en = exp ~prec:wp (B.neg x) in
  finish ~prec (B.scale2 (add' wp e en) (-1))

let tanh ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf s -> if s = 1 then B.minus_one else B.one
  | `Zero _ -> x
  | `Fin _ ->
      let wp = prec + guard in
      let e2 = exp ~prec:wp (B.scale2 x 1) in
      finish ~prec (div' wp (sub' wp e2 B.one) (add' wp e2 B.one))

(* ---- pow / roots ----------------------------------------------------------- *)

let is_integer v =
  match B.classify v with
  | `Zero _ -> true
  | `Fin (_, exp, _) -> exp >= 0
  | `Nan | `Inf _ -> false

let pow ~prec x y =
  match (B.classify x, B.classify y) with
  | (`Nan, _) | (_, `Nan) -> B.nan
  | _, `Zero _ -> B.one
  | `Zero _, _ ->
      if B.sign y > 0 then B.zero
      else if B.sign y < 0 then B.inf
      else B.one
  | _ ->
      if B.equal y B.one then finish ~prec x
      else if is_integer y && (B.is_finite y && B.exponent y <= 30) then begin
        (* Integer exponent: exact binary powering at working precision,
           valid for negative bases too. *)
        let wp = prec + guard in
        let n = to_int_round y in
        let rec go acc base n =
          if n = 0 then acc
          else
            go (if n land 1 = 1 then mul' wp acc base else acc)
              (mul' wp base base) (n lsr 1)
        in
        let mag = go B.one x (Stdlib.abs n) in
        let v = if n >= 0 then mag else div' wp B.one mag in
        finish ~prec v
      end
      else if B.sign x < 0 then B.nan
      else begin
        let wp = prec + guard + 8 in
        exp ~prec (mul' wp y (log ~prec:wp x))
      end

let cbrt ~prec x =
  match B.classify x with
  | `Nan | `Inf _ | `Zero _ -> x
  | `Fin (sgn, _, _) ->
      let wp = prec + guard + 8 in
      let ax = B.abs x in
      let v = exp ~prec:wp (div_int wp (log ~prec:wp ax) 3) in
      finish ~prec (if sgn = 1 then B.neg v else v)

let hypot ~prec x y =
  if B.is_inf x || B.is_inf y then B.inf
  else begin
    let wp = prec + guard in
    B.sqrt ~prec (add' wp (mul' wp x x) (mul' wp y y))
  end

(* ---- directed binary64 enclosures (Ishii-style outward rounding) ------- *)

(* One binary64 ulp outward on raw bits; NaN and the matching infinity
   are fixed points (stepping down from +inf yields max_float, the
   correct finite bound for a downward rounding of an overflowed
   value). *)
let f64_qnan = 0x7ff8000000000000L
let f64_pos_inf = 0x7ff0000000000000L
let f64_neg_inf = 0xfff0000000000000L

let is_f64_nan b =
  Int64.logand b 0x7ff0000000000000L = 0x7ff0000000000000L
  && Int64.logand b 0x000fffffffffffffL <> 0L

let bits_next_up b =
  if is_f64_nan b || Int64.equal b f64_pos_inf then b
  else if Int64.logand b Int64.min_int <> 0L then
    (* negative (or -0): step toward zero *)
    if Int64.equal b 0x8000000000000000L then 1L (* -0 -> min subnormal *)
    else Int64.sub b 1L
  else Int64.add b 1L

let bits_next_dn b =
  if is_f64_nan b || Int64.equal b f64_neg_inf then b
  else if Int64.logand b Int64.min_int <> 0L then Int64.add b 1L
  else if Int64.equal b 0L then 0x8000000000000001L (* +0 -> -min subnormal *)
  else Int64.sub b 1L

(* Directed conversion to binary64 bits: exact, by correcting the RNE
   conversion (which lands on one of the two binary64 neighbours of x)
   with an exact Bigfloat comparison. Overflow behaves like IEEE
   directed rounding: a value above the finite range converts to +inf
   upward and max_float downward. *)
let to_bits_dir ~up x =
  if B.is_nan x then f64_qnan
  else begin
    let f = B.to_float x in
    let fb = Int64.bits_of_float f in
    if Float.is_nan f then f64_qnan
    else begin
      let xf = B.of_float f in
      if up then if B.le x xf then fb else bits_next_up fb
      else if B.le xf x then fb else bits_next_dn fb
    end
  end

(* Outward binary64 enclosure of the faithfully rounded [v]: the true
   value lies within one ulp of [v] at its working precision, and for
   any working precision >= 55 that error is strictly below one
   binary64 ulp of the result, so a directed conversion plus one more
   outward step is a rigorous bound. *)
let enclose_lo v = bits_next_dn (to_bits_dir ~up:false v)
let enclose_hi v = bits_next_up (to_bits_dir ~up:true v)

(* [enclose1 ~prec f bits]: rigorous binary64 enclosure of the real
   f(x) for the binary64 value [bits], via one faithful evaluation at
   [prec] (>= 55) widened outward. *)
let enclose1 ~prec f bits =
  let v = f ~prec (B.of_float (Int64.float_of_bits bits)) in
  (enclose_lo v, enclose_hi v)

(* Elementary functions: argument reduction, then a series kernel in
   fixed point, rounded once at the end.

   A fixed-point value at scale w is a natural n standing for n / 2^w,
   with w = prec + guard + 8. A series term costs one Nat.mul and a
   shift, plus a division by a small integer; each step truncates by
   less than one unit (2^-w). Constants (pi, ln2) and the log and atan
   tables come from small-integer series and are memoized per domain
   and working precision. *)

module B = Bigfloat
module Nat = Bignum.Nat

let guard = 32

(* ---- integer-scaled constant series ----------------------------------- *)

(* atanh(p/q) * 2^w = sum_k 2^w (p/q)^(2k+1) / (2k+1), for small
   0 <= p < q. Each step truncates by under a unit. *)
let atanh_frac_scaled w p q =
  let p2 = p * p and q2 = q * q in
  let rec go acc pw k =
    if Nat.is_zero pw then acc
    else
      go (Nat.add acc (fst (Nat.divmod_int pw ((2 * k) + 1))))
        (fst (Nat.divmod_int (Nat.mul_int pw p2) q2))
        (k + 1)
  in
  go Nat.zero (fst (Nat.divmod_int (Nat.mul_int (Nat.shift_left Nat.one w) p) q)) 0

(* atan(p/q) * 2^w by Euler's series, for small 0 <= p <= q:
   atan(p/q) = sum_n t_n with t_0 = pq / (p^2 + q^2) and
   t_n = t_(n-1) * 2n p^2 / ((2n+1) (p^2 + q^2)), all terms positive. *)
let atan_frac_scaled w p q =
  let p2 = p * p and s = (p * p) + (q * q) in
  let rec go acc t n =
    if Nat.is_zero t then acc
    else
      go (Nat.add acc t)
        (fst (Nat.divmod_int (Nat.mul_int t (2 * n * p2)) (((2 * n) + 1) * s)))
        (n + 1)
  in
  go Nat.zero (fst (Nat.divmod_int (Nat.mul_int (Nat.shift_left Nat.one w) (p * q)) s)) 1

(* One memo per constant or table, keyed by working precision.
   Domain-local: the memo is pure (same key -> same value), but a shared
   Hashtbl would race when engine sessions run on separate domains.
   Per-domain tables trade a few recomputations at domain start for
   lock-free reads on the hot path. *)
let new_cache () = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let ln2_cache = new_cache ()
let pi_cache = new_cache ()
let log_tables = new_cache ()
let atan_tables = new_cache ()

let cached key wp compute =
  let tbl = Domain.DLS.get key in
  match Hashtbl.find_opt tbl wp with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.replace tbl wp v;
      v

(* ln2 = 2 atanh(1/3). *)
let ln2_at wp =
  cached ln2_cache wp (fun () ->
      let w = wp + 16 in
      B.make ~prec:wp ~mode:B.rne ~sign:0 ~man:(atanh_frac_scaled w 1 3)
        ~exp:(1 - w) ~sticky:true)

(* Machin: pi = 16 atan(1/5) - 4 atan(1/239). *)
let pi_at wp =
  cached pi_cache wp (fun () ->
      let w = wp + 16 in
      let a = Nat.mul_int (atan_frac_scaled w 1 5) 16 in
      let b = Nat.mul_int (atan_frac_scaled w 1 239) 4 in
      B.make ~prec:wp ~mode:B.rne ~sign:0 ~man:(Nat.sub a b) ~exp:(-w) ~sticky:true)

let pi ~prec = pi_at (prec + 2)
let ln2 ~prec = ln2_at (prec + 2)

(* Entry [j] of an [n]-entry table at scale [w], filled on first use.
   [compute] works 16 bits further down, so its truncation errors stay
   below one unit. *)
let table_entry key n w j compute =
  let tbl = cached key w (fun () -> Array.make n None) in
  match tbl.(j) with
  | Some v -> v
  | None ->
      let v = Nat.shift_right (compute (w + 16)) 16 in
      tbl.(j) <- Some v;
      v

(* log(1 + j/64) = 2 atanh(j / (128 + j)), 0 <= j < 64. *)
let log_entry w j =
  table_entry log_tables 64 w j (fun w' ->
      Nat.shift_left (atanh_frac_scaled w' j (128 + j)) 1)

(* atan(j/64), 0 <= j <= 64. *)
let atan_entry w j = table_entry atan_tables 65 w j (fun w' -> atan_frac_scaled w' j 64)

(* ---- fixed point ---------------------------------------------------------- *)

let fix_one w = Nat.shift_left Nat.one w

(* n * 2^k for either sign of k, truncated. *)
let shift n k = if k >= 0 then Nat.shift_left n k else Nat.shift_right n (-k)

(* |x| and x^2 at scale w, truncated; 0 for zero. *)
let fix_of w x =
  match B.classify x with
  | `Fin (_, e, man) -> shift man (e + w)
  | `Zero _ | `Nan | `Inf _ -> Nat.zero

let fix_sq w x =
  match B.classify x with
  | `Fin (_, e, man) -> shift (Nat.mul man man) ((2 * e) + w)
  | `Zero _ | `Nan | `Inf _ -> Nat.zero

(* Constants at scale w, within a unit. *)
let ln2_fix w = fix_of w (ln2_at (w + 4))
let half_pi_fix w = fix_of w (B.scale2 (pi_at (w + 4)) (-1))

(* The one rounding of a result: (-1)^sign * n * 2^e to [prec] bits. *)
let round ~prec sign n e = B.make ~prec ~mode:B.rne ~sign ~man:n ~exp:e ~sticky:false

(* x * (f / 2^w) rounded once, keeping x's sign and relative accuracy
   however small x is. *)
let round_mul ~prec w x f =
  match B.classify x with
  | `Fin (sign, e, man) -> round ~prec sign (Nat.mul man f) (e - w)
  | `Zero _ | `Nan | `Inf _ -> x

(* [f / 2^w] exactly, as a Bigfloat. *)
let of_fix w f = round ~prec:(max 2 (Nat.num_bits f)) 0 f (-w)

(* The series evaluator: sum_{k>=0} (+-1)^k p_k / weight k at scale w,
   where p_0 = 1 and p_k = p_(k-1) * z / step k, for 0 <= z < 1. With
   [alt], odd terms are negative; positive and negative terms are summed
   apart and subtracted once. The loop ends when p_k truncates to 0.

   Error: p_k stays within 2 / (1 - z) units of its exact recurrence, and
   each term adds at most one unit of truncation, so K terms at z <= 0.7
   are within 8K + 16 units: under 2^10 for up to 126 terms (sin, the
   longest kernel, takes about 30 at prec 240). *)
let series w z ~alt ~step ~weight =
  let rec go k p pos neg =
    let p = Nat.shift_right (Nat.mul p z) w in
    let d = step k in
    let p = if d = 1 then p else fst (Nat.divmod_int p d) in
    if Nat.is_zero p then Nat.sub pos neg
    else begin
      let b = weight k in
      let c = if b = 1 then p else fst (Nat.divmod_int p b) in
      if alt && k land 1 = 1 then go (k + 1) p pos (Nat.add neg c)
      else go (k + 1) p (Nat.add pos c) neg
    end
  in
  go 1 (fix_one w) (fix_one w) Nat.zero

let by_one _ = 1
let odd k = (2 * k) + 1

(* ---- small helpers ----------------------------------------------------- *)

let add' wp a b = B.add ~prec:wp a b
let sub' wp a b = B.sub ~prec:wp a b
let mul' wp a b = B.mul ~prec:wp a b
let div' wp a b = B.div ~prec:wp a b
let div_int wp a n = B.div_int ~prec:wp a n

(* Round to final precision: one extra rounding of a wp-precision value. *)
let finish ~prec v =
  match B.classify v with
  | `Fin (sign, exp, man) -> round ~prec sign man exp
  | `Nan | `Inf _ | `Zero _ -> v

(* Nearest integer of x as an OCaml int; caller bounds the magnitude. *)
let to_int_round x =
  match B.classify (B.round_half_away x) with
  | `Zero _ -> 0
  | `Fin (sign, exp, man) ->
      let v = Nat.to_int (Nat.shift_left man exp) in
      if sign = 1 then -v else v
  | `Nan | `Inf _ -> invalid_arg "to_int_round"

(* ---- exp --------------------------------------------------------------- *)

(* expm1 x = x E(x) with E(x) = sum_k x^k / (k+1)!, |x| < 1/4: E at
   scale w. *)
let expm1_ratio w x =
  series w (fix_of w x) ~alt:(B.signbit x) ~step:(fun k -> k + 1) ~weight:by_one

let exp ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf 0 -> B.inf
  | `Inf _ -> B.zero
  | `Zero _ -> B.one
  | `Fin (sign, _, _) ->
      let ex = B.exponent x in
      if ex > 40 then
        (* |x| >= 2^40: the result's exponent exceeds any practical use;
           saturate like an overflow/underflow. *)
        (if sign = 0 then B.inf else B.zero)
      else if ex < -8 then begin
        (* exp x = 1 + x E(x), rounded once: the part below 1 keeps its
           relative accuracy however small x is. *)
        let w = prec + guard + 8 in
        B.add ~prec B.one (B.mul_exact x (of_fix w (expm1_ratio w x)))
      end
      else begin
        (* 8 more bits than the other kernels pay for the squarings. *)
        let w = prec + guard + 16 in
        (* |x| = q ln2 + r with r in [0, ln2). q ln2 is off by up to q
           units, so the split runs xw bits further down. *)
        let xw = max 0 ex + 2 in
        let l2 = ln2_fix (w + xw) in
        let q, r = Nat.divmod (fix_of (w + xw) x) l2 in
        let q = Nat.to_int q in
        let n, r =
          if sign = 0 then (q, r)
          else if Nat.is_zero r then (-q, r)
          else (-(q + 1), Nat.sub l2 r)
        in
        (* exp r = exp(r / 2^8)^(2^8): about 20 terms instead of 55 at
           prec 200, and each squaring doubles the relative error. *)
        let e = series w (Nat.shift_right r (xw + 8)) ~alt:false ~step:Fun.id ~weight:by_one in
        let rec square e i = if i = 0 then e else square (Nat.shift_right (Nat.mul e e) w) (i - 1) in
        round ~prec 0 (square e 8) (n - w)
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
        let w = prec + guard + 8 in
        round_mul ~prec w x (expm1_ratio w x)
      end
      else B.sub ~prec (exp ~prec:(prec + guard) x) B.one

let euler_e ~prec = exp ~prec B.one

(* ---- log --------------------------------------------------------------- *)

let log ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf 0 -> B.inf
  | `Inf _ -> B.nan
  | `Zero _ -> B.neg_inf
  | `Fin (1, _, _) -> B.nan
  | `Fin (_, _, man) ->
      let w = prec + guard + 8 in
      (* x = 2^k m, m in [1, 2), and c = 1 + j/64 with j = floor(64 (m - 1)). *)
      let nb = Nat.num_bits man in
      let top7 =
        if nb >= 7 then Nat.extract_int man ~lo:(nb - 7) ~len:7
        else Nat.to_int man lsl (7 - nb)
      in
      let k, j = (B.exponent x, top7 - 64) in
      (* Just below 1 (k = -1, m >= 2 - 2^-6), k ln2 would cancel log m:
         reduce around 1 instead, with k = 0 and m = x. *)
      let k, j = if k = -1 && j = 63 then (0, 0) else (k, j) in
      let m = B.scale2 x (-k) in
      let c = B.scale2 (B.of_int (64 + j)) (-6) in
      (* log m = log c + 2 atanh t, t = (m - c) / (m + c), |t| < 1/129;
         m - c is exact. *)
      let d = B.sub ~prec:(nb + 8) m c in
      let t = if B.is_zero d then B.zero else div' w d (add' w m c) in
      let a = series w (fix_sq w t) ~alt:false ~step:by_one ~weight:odd in
      if k = 0 && j = 0 then
        (* log x = 2 t a: rounded as a product, so relative accuracy
           holds however close x is to 1. *)
        round_mul ~prec w (B.scale2 t 1) a
      else begin
        (* |log x| >= 2^-7 here: sum at scale w, with t >= 0. *)
        let pos = Nat.add (log_entry w j) (shift (Nat.mul (fix_of w t) a) (1 - w)) in
        let kl = Nat.mul (ln2_fix w) (Nat.of_int (Stdlib.abs k)) in
        if k >= 0 then round ~prec 0 (Nat.add pos kl) (-w)
        else if Nat.compare pos kl >= 0 then round ~prec 0 (Nat.sub pos kl) (-w)
        else round ~prec 1 (Nat.sub kl pos) (-w)
      end

let log2 ~prec x =
  let wp = prec + guard in
  B.div ~prec (log ~prec:wp x) (ln2_at wp)

let log10 ~prec x =
  let wp = prec + guard in
  B.div ~prec (log ~prec:wp x) (log ~prec:wp (B.of_int 10))

(* ---- sin / cos ---------------------------------------------------------- *)

(* Reduce x to (quadrant q, s) with s in [-pi/4, pi/4] and
   x = s + (q + 4n) * pi/2. *)
let trig_reduce wp x =
  let ex = try B.exponent x with Invalid_argument _ -> 0 in
  let reduce wr =
    let pi2 = B.scale2 (pi_at wr) (-1) in
    (* m = round(x / (pi/2)) *)
    let m_f = B.round_half_away (div' wr x pi2) in
    match B.classify m_f with
    | `Zero _ -> (0, x, true)
    | `Fin (sign, exp, man) ->
        let md = Nat.to_int (Nat.extract_bits (Nat.shift_left man exp) ~lo:0 ~len:2) in
        let md = if sign = 1 then (4 - md) land 3 else md in
        (md, sub' wr x (mul' wr m_f pi2), false)
    | `Nan | `Inf _ -> (0, B.nan, true)
  in
  (* s = x - m pi/2 is within 2^(max 0 ex + 3 - wr) of its true value.
     Near a multiple of pi/2 the subtraction cancels the leading bits of
     x, and that error may exceed 2^-wp of s: redo it with as many more
     bits of pi as were lost, in steps of 64 to bound the pi memo. *)
  let rec go wr =
    let q, s, exact = reduce wr in
    let short =
      if exact then 0
      else if B.is_zero s then wr
      else max 0 ex + 3 - wr + wp - B.exponent s
    in
    if short <= 0 then (q, s) else go (wr + (64 * ((short + 63) / 64)))
  in
  go (wp + max 0 ex + 8)

(* sin s = s S(s^2) and cos s = C(s^2), |s| <= pi/4, at scale w. *)
let sin_ratio w z = series w z ~alt:true ~step:(fun k -> 2 * k * odd k) ~weight:by_one
let cos_fix w z = series w z ~alt:true ~step:(fun k -> ((2 * k) - 1) * 2 * k) ~weight:by_one

(* [trig ~prec x ~zero f] reduces a finite nonzero x and hands [f] the
   scale, the quadrant, s and s^2; [zero] is the result at zero. *)
let trig ~prec x ~zero f =
  match B.classify x with
  | `Nan | `Inf _ -> B.nan
  | `Zero _ -> zero
  | `Fin _ ->
      let w = prec + guard + 8 in
      let q, s = trig_reduce (prec + guard) x in
      f w q s (fix_sq w s)

(* +-s S(s^2) for [neg], or +-C(s^2), rounded once. *)
let sin_part ~prec w s z ~neg = round_mul ~prec w (if neg then B.neg s else s) (sin_ratio w z)
let cos_part ~prec w z ~neg = round ~prec (if neg then 1 else 0) (cos_fix w z) (-w)

let sin ~prec x =
  trig ~prec x ~zero:x (fun w q s z ->
      if q land 1 = 0 then sin_part ~prec w s z ~neg:(q = 2)
      else cos_part ~prec w z ~neg:(q = 3))

let cos ~prec x =
  trig ~prec x ~zero:B.one (fun w q s z ->
      if q land 1 = 0 then cos_part ~prec w z ~neg:(q = 2)
      else sin_part ~prec w s z ~neg:(q = 1))

let tan ~prec x =
  trig ~prec x ~zero:x (fun w q s z ->
      (* Both series share s^2; the quotient is the one rounding. *)
      let sn = B.mul_exact s (of_fix w (sin_ratio w z)) and cs = of_fix w (cos_fix w z) in
      if q land 1 = 0 then B.div ~prec sn cs else B.neg (B.div ~prec cs sn))

(* ---- inverse trig -------------------------------------------------------- *)

let atan ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf s ->
      let p = B.scale2 (pi_at (prec + 8)) (-1) in
      finish ~prec (if s = 1 then B.neg p else p)
  | `Zero _ -> x
  | `Fin (sgn, _, _) ->
      let w = prec + guard + 8 in
      let ax = B.abs x in
      (* |x| > 1: atan x = pi/2 - atan(1/x). *)
      let invert = B.lt B.one ax in
      let y = if invert then div' w B.one ax else ax in
      (* atan u = u T(u^2), |u| <= 1/128. *)
      let ratio u2 = series w u2 ~alt:true ~step:by_one ~weight:odd in
      (* c = j/64 nearest y, so atan y = atan c + atan u with
         u = (y - c) / (1 + y c). *)
      let yf = fix_of w y in
      let j = Nat.to_int (Nat.shift_right (Nat.add yf (fix_one (w - 7))) (w - 6)) in
      if j = 0 && not invert then
        (* |x| < 1/128: rounded as a product, keeping relative accuracy. *)
        round_mul ~prec w x (ratio (fix_sq w y))
      else begin
        let v =
          if j = 0 then Nat.shift_right (Nat.mul yf (ratio (fix_sq w y))) w
          else begin
            (* u at scale w from (64 y - j) / (64 + j y). *)
            let a = Nat.mul_int yf 64 and b = Nat.mul_int (fix_one w) j in
            let up = Nat.compare a b >= 0 in
            let num = if up then Nat.sub a b else Nat.sub b a in
            let u = fst (Nat.shift_div num w (Nat.add (fix_one (w + 6)) (Nat.mul_int yf j))) in
            let au = Nat.shift_right (Nat.mul u (ratio (Nat.shift_right (Nat.mul u u) w))) w in
            if up then Nat.add (atan_entry w j) au else Nat.sub (atan_entry w j) au
          end
        in
        round ~prec sgn (if invert then Nat.sub (half_pi_fix w) v else v) (-w)
      end

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
        (* 1 - x^2 from the exact square: no cancellation near |x| = 1. *)
        let denom = B.sqrt ~prec:wp (sub' wp B.one (B.mul_exact x x)) in
        atan ~prec (div' wp x denom)
      end

let acos ~prec x =
  match B.classify x with
  | `Nan | `Inf _ -> B.nan
  | _ ->
      if B.lt B.one (B.abs x) then B.nan
      else begin
        (* acos x = 2 atan(sqrt((1 - x) / (1 + x))): no cancellation
           anywhere in [-1, 1], unlike pi/2 - asin x near x = 1. *)
        let wp = prec + guard + 8 in
        let r = B.sqrt ~prec:wp (div' wp (sub' wp B.one x) (add' wp B.one x)) in
        finish ~prec (B.scale2 (atan ~prec:wp r) 1)
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
            (* The sign of pi follows y's sign bit: atan2(-0, x < 0) = -pi. *)
            let p = pi_at wp in
            if B.signbit y then sub' wp base p else add' wp base p
          end
        in
        finish ~prec v
      end

(* ---- hyperbolic ----------------------------------------------------------- *)

(* Both odd functions go through u = expm1 of |x| or 2|x|, so small
   arguments keep their relative accuracy. *)
let sinh ~prec x =
  match B.classify x with
  | `Nan | `Inf _ | `Zero _ -> x
  | `Fin (sign, _, _) ->
      let wp = prec + guard in
      (* sinh |x| = (u + u / (u + 1)) / 2 *)
      let u = expm1 ~prec:wp (B.abs x) in
      let v =
        if B.is_inf u then u
        else B.scale2 (add' wp u (div' wp u (add' wp u B.one))) (-1)
      in
      finish ~prec (if sign = 1 then B.neg v else v)

let cosh ~prec x =
  let wp = prec + guard in
  let e = exp ~prec:wp x and en = exp ~prec:wp (B.neg x) in
  finish ~prec (B.scale2 (add' wp e en) (-1))

let tanh ~prec x =
  match B.classify x with
  | `Nan -> B.nan
  | `Inf s -> if s = 1 then B.minus_one else B.one
  | `Zero _ -> x
  | `Fin (sign, _, _) ->
      let wp = prec + guard in
      (* tanh |x| = u / (u + 2) with u = expm1 (2|x|); 1 once u overflows. *)
      let u = expm1 ~prec:wp (B.scale2 (B.abs x) 1) in
      let v = if B.is_inf u then B.one else div' wp u (add' wp u B.two) in
      finish ~prec (if sign = 1 then B.neg v else v)

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
        (* Integer exponent by binary powering, valid for negative bases
           too. A power of at most 2^14 bits is formed exactly and rounded
           once (one division for n < 0), so it is correctly rounded;
           larger ones are powered at working precision. *)
        let wp = prec + guard in
        let n = to_int_round y in
        let exact = B.is_finite x && Stdlib.abs n * B.num_bits x <= 1 lsl 14 in
        let mul a b = if exact then B.mul_exact a b else mul' wp a b in
        let rec go acc base n =
          if n = 0 then acc
          else
            go (if n land 1 = 1 then mul acc base else acc)
              (if n > 1 then mul base base else base) (n lsr 1)
        in
        let mag = go B.one x (Stdlib.abs n) in
        if n >= 0 then finish ~prec mag
        else if exact then B.div ~prec B.one mag
        else finish ~prec (div' wp B.one mag)
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

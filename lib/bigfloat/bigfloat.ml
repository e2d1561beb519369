(* Arbitrary-precision binary floating point (MPFR substitute). See the
   interface for the representation contract. *)

module Nat = Bignum.Nat

type rounding = Ieee754.Softfp.rounding

let rne : rounding = Ieee754.Softfp.Nearest_even

type fin = { sign : int; exp : int; man : Nat.t }

type t =
  | Nan
  | Inf of int
  | Zero of int
  | Fin of fin

let zero = Zero 0
let neg_zero = Zero 1
let inf = Inf 0
let neg_inf = Inf 1
let nan = Nan

(* Canonicalize: strip trailing zero bits so equal values are equal
   structures. *)
let canon sign man exp =
  if Nat.is_zero man then Zero sign
  else begin
    let k = Nat.trailing_zeros man in
    Fin { sign; exp = exp + k; man = Nat.shift_right man k }
  end

(* Round (-1)^sign * man * 2^exp (+ sticky) to [prec] significant bits.
   Truncation or increment and canonicalization share one shift. *)
let make ~prec ~mode ~sign ~man ~exp ~sticky =
  if prec < 2 then invalid_arg "Bigfloat.make: prec < 2";
  if Nat.is_zero man then
    (* Callers only pass sticky with a nonzero man, except for
       directed-rounding epsilon cases which they handle themselves. *)
    Zero sign
  else begin
    let nb = Nat.num_bits man in
    if nb <= prec && not sticky then canon sign man exp
    else begin
      let drop = max 0 (nb - prec) in
      let round_bit = drop > 0 && Nat.testbit man (drop - 1) in
      let rest =
        sticky || (drop > 1 && Nat.bits_below_nonzero man (drop - 1))
      in
      let inc =
        match mode with
        | Ieee754.Softfp.Nearest_even ->
            round_bit && (rest || Nat.testbit man drop)
        | Ieee754.Softfp.Toward_zero -> false
        | Ieee754.Softfp.Toward_pos ->
            sign = 0 && (round_bit || rest)
        | Ieee754.Softfp.Toward_neg ->
            sign = 1 && (round_bit || rest)
      in
      (* The kept significand is nonzero (it has prec bits, or is man),
         so the stripped value is too; a carry out of the top just leaves
         a shorter odd significand. *)
      let man, k = Nat.strip_shift man drop ~up:inc in
      Fin { sign; exp = exp + k; man }
    end
  end

let of_int n =
  if n >= 0 then canon 0 (Nat.of_int n) 0
  else
    (* -(n + 1) cannot overflow, even for min_int. *)
    canon 1 (Nat.succ (Nat.of_int (-(n + 1)))) 0

let of_float f =
  if Float.is_nan f then Nan
  else if f = Float.infinity then Inf 0
  else if f = Float.neg_infinity then Inf 1
  else if f = 0.0 then Zero (if 1.0 /. f < 0.0 then 1 else 0)
  else begin
    let bits = Int64.bits_of_float f in
    let sign = if Int64.compare bits 0L < 0 then 1 else 0 in
    let biased = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 52) 0x7FFL) in
    let man52 = Int64.to_int (Int64.logand bits 0xFFFFFFFFFFFFFL) in
    if biased = 0 then canon sign (Nat.of_int man52) (-1074)
    else canon sign (Nat.of_int (man52 lor (1 lsl 52))) (biased - 1023 - 52)
  end

let one = of_int 1
let minus_one = of_int (-1)
let two = of_int 2
let half = canon 0 Nat.one (-1)

let is_nan = function Nan -> true | Inf _ | Zero _ | Fin _ -> false
let is_inf = function Inf _ -> true | Nan | Zero _ | Fin _ -> false
let is_zero = function Zero _ -> true | Nan | Inf _ | Fin _ -> false
let is_finite = function Zero _ | Fin _ -> true | Nan | Inf _ -> false

let sign = function
  | Nan -> 0
  | Zero _ -> 0
  | Inf s -> if s = 1 then -1 else 1
  | Fin f -> if f.sign = 1 then -1 else 1

let signbit = function
  | Nan -> false
  | Zero s | Inf s -> s = 1
  | Fin f -> f.sign = 1

let classify = function
  | Nan -> `Nan
  | Inf s -> `Inf s
  | Zero s -> `Zero s
  | Fin f -> `Fin (f.sign, f.exp, f.man)

let num_bits = function Fin f -> Nat.num_bits f.man | Nan | Inf _ | Zero _ -> 0

let exponent = function
  | Fin f -> f.exp + Nat.num_bits f.man - 1
  | Nan | Inf _ | Zero _ -> invalid_arg "Bigfloat.exponent"

let neg = function
  | Nan -> Nan
  | Inf s -> Inf (1 - s)
  | Zero s -> Zero (1 - s)
  | Fin f -> Fin { f with sign = 1 - f.sign }

let abs = function
  | Nan -> Nan
  | Inf _ -> Inf 0
  | Zero _ -> Zero 0
  | Fin f -> Fin { f with sign = 0 }

(* Compare |a| and |b| for finite nonzero values. *)
let cmpabs_fin a b =
  let ta = a.exp + Nat.num_bits a.man - 1
  and tb = b.exp + Nat.num_bits b.man - 1 in
  if ta <> tb then Stdlib.compare ta tb
  else begin
    (* Same leading-bit exponent: align lsbs and compare. *)
    if a.exp >= b.exp then
      Nat.compare (Nat.shift_left a.man (a.exp - b.exp)) b.man
    else Nat.compare a.man (Nat.shift_left b.man (b.exp - a.exp))
  end

let compare x y =
  match (x, y) with
  | Nan, _ | _, Nan -> None
  | Zero _, Zero _ -> Some 0
  | Inf s, Inf s' -> Some (Stdlib.compare s' s)
  | Inf s, _ -> Some (if s = 1 then -1 else 1)
  | _, Inf s -> Some (if s = 1 then 1 else -1)
  | Zero _, Fin f -> Some (if f.sign = 1 then 1 else -1)
  | Fin f, Zero _ -> Some (if f.sign = 1 then -1 else 1)
  | Fin a, Fin b ->
      if a.sign <> b.sign then Some (if a.sign = 1 then -1 else 1)
      else begin
        let c = cmpabs_fin a b in
        Some (if a.sign = 1 then -c else c)
      end

let equal x y = match compare x y with Some 0 -> true | Some _ | None -> false
let lt x y = match compare x y with Some c -> c < 0 | None -> false
let le x y = match compare x y with Some c -> c <= 0 | None -> false

(* ---- addition --------------------------------------------------------- *)

let add ~prec ?(mode = rne) x y =
  match (x, y) with
  | Nan, _ | _, Nan -> Nan
  | Inf s, Inf s' -> if s = s' then Inf s else Nan
  | Inf s, _ | _, Inf s -> Inf s
  | Zero sa, Zero sb ->
      if sa = sb then Zero sa
      else if mode = Ieee754.Softfp.Toward_neg then Zero 1
      else Zero 0
  | Zero _, Fin f | Fin f, Zero _ ->
      make ~prec ~mode ~sign:f.sign ~man:f.man ~exp:f.exp ~sticky:false
  | Fin a, Fin b ->
      let ta = a.exp + Nat.num_bits a.man - 1
      and tb = b.exp + Nat.num_bits b.man - 1 in
      (* Let p have the higher leading exponent (swap if needed). *)
      let p, q = if ta >= tb then (a, b) else (b, a) in
      let tq = min ta tb in
      (* Guard bits must reach below the result's rounding boundary so a
         borrow from an epsilon-sized q still rounds correctly. *)
      let guard = prec + 10 in
      if p.exp - guard - 2 > tq then begin
        (* q lies entirely below the guarded significand: pure epsilon. *)
        let man = Nat.shift_left p.man guard in
        if p.sign = q.sign then
          make ~prec ~mode ~sign:p.sign ~man ~exp:(p.exp - guard) ~sticky:true
        else
          make ~prec ~mode ~sign:p.sign ~man:(Nat.pred man)
            ~exp:(p.exp - guard) ~sticky:true
      end
      else begin
        (* Exact alignment, cost bounded by the exponent gap we allowed:
           the operand with the higher lsb is shifted on the fly. *)
        let lo, hi = if p.exp >= q.exp then (q, p) else (p, q) in
        let e = lo.exp and k = hi.exp - lo.exp in
        if p.sign = q.sign then
          make ~prec ~mode ~sign:p.sign ~man:(Nat.add_shift lo.man hi.man k)
            ~exp:e ~sticky:false
        else begin
          let c, man = Nat.diff_shift lo.man hi.man k in
          if c = 0 then
            (if mode = Ieee754.Softfp.Toward_neg then Zero 1 else Zero 0)
          else
            make ~prec ~mode ~sign:(if c > 0 then lo.sign else hi.sign) ~man
              ~exp:e ~sticky:false
        end
      end

let sub ~prec ?(mode = rne) x y = add ~prec ~mode x (neg y)

(* ---- multiplication --------------------------------------------------- *)

let mul ~prec ?(mode = rne) x y =
  match (x, y) with
  | Nan, _ | _, Nan -> Nan
  | Inf s, Inf s' -> Inf (s lxor s')
  | (Inf _, Zero _) | (Zero _, Inf _) -> Nan
  | Inf s, Fin f | Fin f, Inf s -> Inf (s lxor f.sign)
  | Zero sa, Zero sb -> Zero (sa lxor sb)
  | Zero s, Fin f | Fin f, Zero s -> Zero (s lxor f.sign)
  | Fin a, Fin b ->
      make ~prec ~mode ~sign:(a.sign lxor b.sign) ~man:(Nat.mul a.man b.man)
        ~exp:(a.exp + b.exp) ~sticky:false

let mul_exact x y =
  match (x, y) with
  | Fin a, Fin b ->
      canon (a.sign lxor b.sign) (Nat.mul a.man b.man) (a.exp + b.exp)
  | _ ->
      (* Fall back to the rounded path for specials (exactness is moot). *)
      mul ~prec:53 x y

(* ---- division ---------------------------------------------------------- *)

let div ~prec ?(mode = rne) x y =
  match (x, y) with
  | Nan, _ | _, Nan -> Nan
  | Inf _, Inf _ -> Nan
  | Inf s, Zero s' -> Inf (s lxor s')
  | Inf s, Fin f -> Inf (s lxor f.sign)
  | Zero _, Zero _ -> Nan
  | Zero s, Inf s' -> Zero (s lxor s')
  | Zero s, Fin f -> Zero (s lxor f.sign)
  | Fin f, Inf s -> Zero (f.sign lxor s)
  | Fin f, Zero s -> Inf (f.sign lxor s)
  | Fin a, Fin b ->
      (* Shift the numerator so the quotient has >= prec + 2 bits. *)
      let s =
        max 0 (prec + 2 + Nat.num_bits b.man - Nat.num_bits a.man)
      in
      let q, inexact = Nat.shift_div a.man s b.man in
      make ~prec ~mode ~sign:(a.sign lxor b.sign) ~man:q
        ~exp:(a.exp - b.exp - s) ~sticky:inexact

let div_int ~prec ?(mode = rne) x k =
  let d = Stdlib.abs k in
  if k = 0 || d >= 1 lsl Nat.limb_bits || d < 0 then div ~prec ~mode x (of_int k)
  else begin
    let ks = if k < 0 then 1 else 0 in
    match x with
    | Nan -> Nan
    | Inf s -> Inf (s lxor ks)
    | Zero s -> Zero (s lxor ks)
    | Fin a ->
        (* As [div], with the one-limb divisor read as an int: the
           quotient of a.man * 2^s by d has >= prec + 2 bits. *)
        let s =
          max 0 (prec + 2 + Nat.num_bits (Nat.of_int d) - Nat.num_bits a.man)
        in
        let q, inexact = Nat.shift_div_int a.man s d in
        make ~prec ~mode ~sign:(a.sign lxor ks) ~man:q ~exp:(a.exp - s)
          ~sticky:inexact
  end

(* ---- square root ------------------------------------------------------- *)

let sqrt ~prec ?(mode = rne) x =
  match x with
  | Nan -> Nan
  | Inf 0 -> Inf 0
  | Inf _ -> Nan
  | Zero s -> Zero s
  | Fin { sign = 1; _ } -> Nan
  | Fin f ->
      (* Shift so the root has >= prec+2 bits and the exponent is even. *)
      let nb = Nat.num_bits f.man in
      let k0 = max 0 (2 * (prec + 2) - nb) in
      let k = if (f.exp - k0) land 1 = 0 then k0 else k0 + 1 in
      let s, r = Nat.sqrt_rem (Nat.shift_left f.man k) in
      make ~prec ~mode ~sign:0 ~man:s
        ~exp:((f.exp - k) / 2)
        ~sticky:(not (Nat.is_zero r))

(* ---- fused multiply-add ------------------------------------------------ *)

let fma ~prec ?(mode = rne) a b c =
  match (a, b) with
  | Fin _, Fin _ | Zero _, Fin _ | Fin _, Zero _ | Zero _, Zero _ ->
      add ~prec ~mode (mul_exact a b) c
  | _ ->
      (* Specials: reuse mul's special handling, then add. *)
      add ~prec ~mode (mul ~prec:prec a b) c

let min_op x y =
  match compare x y with
  | None -> if is_nan x then y else x
  | Some c -> if c <= 0 then x else y

let max_op x y =
  match compare x y with
  | None -> if is_nan x then y else x
  | Some c -> if c >= 0 then x else y

(* ---- integral rounding -------------------------------------------------- *)

let rint ~prec ?(mode = rne) x =
  match x with
  | Nan | Inf _ | Zero _ -> x
  | Fin f ->
      if f.exp >= 0 then x
      else begin
        let frac_bits = -f.exp in
        let kept = Nat.shift_right f.man frac_bits in
        let round_bit = Nat.testbit f.man (frac_bits - 1) in
        let rest = frac_bits > 1 && Nat.bits_below_nonzero f.man (frac_bits - 1) in
        let inc =
          match mode with
          | Ieee754.Softfp.Nearest_even -> round_bit && (rest || Nat.testbit kept 0)
          | Ieee754.Softfp.Toward_zero -> false
          | Ieee754.Softfp.Toward_pos -> f.sign = 0 && (round_bit || rest)
          | Ieee754.Softfp.Toward_neg -> f.sign = 1 && (round_bit || rest)
        in
        let v = if inc then Nat.succ kept else kept in
        if Nat.is_zero v then Zero f.sign
        else make ~prec ~mode ~sign:f.sign ~man:v ~exp:0 ~sticky:false
      end

let big_prec_for x = max 64 (num_bits x + 4)

let floor x = rint ~prec:(big_prec_for x) ~mode:Ieee754.Softfp.Toward_neg x
let ceil x = rint ~prec:(big_prec_for x) ~mode:Ieee754.Softfp.Toward_pos x
let trunc x = rint ~prec:(big_prec_for x) ~mode:Ieee754.Softfp.Toward_zero x

let round_half_away x =
  match x with
  | Nan | Inf _ | Zero _ -> x
  | Fin f ->
      if f.exp >= 0 then x
      else begin
        let frac_bits = -f.exp in
        let kept = Nat.shift_right f.man frac_bits in
        let round_bit = Nat.testbit f.man (frac_bits - 1) in
        let v = if round_bit then Nat.succ kept else kept in
        if Nat.is_zero v then Zero f.sign else canon f.sign v 0
      end

let fmod ~prec x y =
  match (x, y) with
  | Nan, _ | _, Nan | Inf _, _ | _, Zero _ -> Nan
  | Zero s, _ -> Zero s
  | Fin _, Inf _ -> x
  | Fin a, Fin b ->
      (* Exact: r = a - trunc(a/b)*b computed on aligned integers. *)
      let e = min a.exp b.exp in
      let ma = Nat.shift_left a.man (a.exp - e)
      and mb = Nat.shift_left b.man (b.exp - e) in
      let r = Nat.rem ma mb in
      ignore prec;
      if Nat.is_zero r then Zero a.sign else canon a.sign r e

let scale2 x k =
  match x with
  | Nan | Inf _ | Zero _ -> x
  | Fin f -> Fin { f with exp = f.exp + k }

(* ---- conversions -------------------------------------------------------- *)

let to_float x =
  match x with
  | Nan -> Float.nan
  | Inf 0 -> Float.infinity
  | Inf _ -> Float.neg_infinity
  | Zero 0 -> 0.0
  | Zero _ -> -0.0
  | Fin f ->
      let top = f.exp + Nat.num_bits f.man - 1 in
      if top > 1100 then (if f.sign = 1 then Float.neg_infinity else Float.infinity)
      else if top < -1080 then (if f.sign = 1 then -0.0 else 0.0)
      else if top < -1022 then begin
        (* Subnormal range: round value * 2^1074 to the nearest integer
           (<= 2^52, exact in a float) and scale back. *)
        let frac_bits = -1074 - f.exp in
        let n =
          if frac_bits <= 0 then Nat.shift_left f.man (-frac_bits)
          else begin
            let kept = Nat.shift_right f.man frac_bits in
            let round_bit = Nat.testbit f.man (frac_bits - 1) in
            let rest =
              frac_bits > 1 && Nat.bits_below_nonzero f.man (frac_bits - 1)
            in
            if round_bit && (rest || Nat.testbit kept 0) then Nat.succ kept
            else kept
          end
        in
        let v = Float.ldexp (Int64.to_float (Option.get (Nat.to_int64_opt n))) (-1074) in
        if f.sign = 1 then -.v else v
      end
      else begin
        match make ~prec:53 ~mode:rne ~sign:f.sign ~man:f.man ~exp:f.exp ~sticky:false with
        | Zero _ -> if f.sign = 1 then -0.0 else 0.0
        | Fin g ->
            let top' = g.exp + Nat.num_bits g.man - 1 in
            if top' > 1023 then
              if f.sign = 1 then Float.neg_infinity else Float.infinity
            else begin
              let mf = Int64.to_float (Option.get (Nat.to_int64_opt g.man)) in
              let v = Float.ldexp mf g.exp in
              if f.sign = 1 then -.v else v
            end
        | Nan | Inf _ -> assert false
      end

let pow10 k = Nat.pow (Nat.of_int 10) k

let of_string ~prec s =
  let s = String.trim s in
  if s = "" then invalid_arg "Bigfloat.of_string: empty";
  match String.lowercase_ascii s with
  | "nan" -> Nan
  | "inf" | "+inf" | "infinity" -> Inf 0
  | "-inf" | "-infinity" -> Inf 1
  | _ ->
      let sign, s =
        if s.[0] = '-' then (1, String.sub s 1 (String.length s - 1))
        else if s.[0] = '+' then (0, String.sub s 1 (String.length s - 1))
        else (0, s)
      in
      let mantissa, exp10 =
        match String.index_opt s 'e' with
        | Some i ->
            ( String.sub s 0 i,
              int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
        | None -> (
            match String.index_opt s 'E' with
            | Some i ->
                ( String.sub s 0 i,
                  int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
            | None -> (s, 0))
      in
      let int_part, frac_part =
        match String.index_opt mantissa '.' with
        | Some i ->
            ( String.sub mantissa 0 i,
              String.sub mantissa (i + 1) (String.length mantissa - i - 1) )
        | None -> (mantissa, "")
      in
      let digits = int_part ^ frac_part in
      if digits = "" then invalid_arg "Bigfloat.of_string: no digits";
      let d = Nat.of_string (if digits = "" then "0" else digits) in
      let e10 = exp10 - String.length frac_part in
      if Nat.is_zero d then Zero sign
      else if e10 >= 0 then
        make ~prec ~mode:rne ~sign ~man:(Nat.mul d (pow10 e10)) ~exp:0 ~sticky:false
      else begin
        (* d / 10^-e10 at prec + 16 quotient bits. *)
        let denom = pow10 (-e10) in
        let shift =
          max 0 (prec + 16 + Nat.num_bits denom - Nat.num_bits d)
        in
        let q, r = Nat.divmod (Nat.shift_left d shift) denom in
        make ~prec ~mode:rne ~sign ~man:q ~exp:(-shift) ~sticky:(not (Nat.is_zero r))
      end

let to_string ?(digits = 17) x =
  match x with
  | Nan -> "nan"
  | Inf 0 -> "inf"
  | Inf _ -> "-inf"
  | Zero 0 -> "0"
  | Zero _ -> "-0"
  | Fin f ->
      (* Decimal exponent estimate from bit length: d10 ~ top * log10(2). *)
      let top = f.exp + Nat.num_bits f.man - 1 in
      let d10 = int_of_float (Float.of_int top *. 0.30102999566398119) in
      (* scaled = round(|x| * 10^(digits - 1 - d10)) as an integer; adjust
         d10 if the estimate was off by one. *)
      let scaled_int k =
        (* |x| * 10^k as a rounded integer *)
        if k >= 0 then begin
          let num = Nat.mul f.man (pow10 k) in
          if f.exp >= 0 then Nat.shift_left num f.exp
          else begin
            let q, r = Nat.divmod num (Nat.shift_left Nat.one (-f.exp)) in
            (* round to nearest *)
            if -f.exp > 0 && Nat.testbit r (-f.exp - 1) then Nat.succ q else q
          end
        end
        else begin
          let denom = pow10 (-k) in
          let num = if f.exp >= 0 then Nat.shift_left f.man f.exp else f.man in
          let denom =
            if f.exp >= 0 then denom
            else Nat.mul denom (Nat.shift_left Nat.one (-f.exp))
          in
          let q, r = Nat.divmod num denom in
          if Nat.compare (Nat.mul r Nat.two) denom >= 0 then Nat.succ q else q
        end
      in
      let rec fit d10 =
        let s = Nat.to_string (scaled_int (digits - 1 - d10)) in
        if String.length s > digits then fit (d10 + 1)
        else if String.length s < digits then fit (d10 - 1)
        else (s, d10)
      in
      let s, d10 = fit d10 in
      let sign_str = if f.sign = 1 then "-" else "" in
      let mant =
        if digits = 1 then s
        else String.sub s 0 1 ^ "." ^ String.sub s 1 (digits - 1)
      in
      if d10 >= -4 && d10 < digits && d10 > -4 then
        Printf.sprintf "%s%se%+03d" sign_str mant d10
      else Printf.sprintf "%s%se%+03d" sign_str mant d10

let pp fmt x = Format.pp_print_string fmt (to_string x)

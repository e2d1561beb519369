(* Arbitrary-precision naturals: immutable little-endian base-2^30 limb
   arrays, normalized (no leading zero limb). Base 2^30 keeps every
   intermediate product of two limbs, plus a carry, inside OCaml's 63-bit
   native int.

   The kernels size their result exactly where the bit length is known
   up front (shifts, products, one-limb quotients), so the common path
   allocates one array and never trims it again. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero a = Array.length a = 0

(* Drop leading zero limbs; shares the array when already normalized. *)
let normalize (a : int array) : t =
  let n = Array.length a in
  let m = ref n in
  while !m > 0 && a.(!m - 1) = 0 do decr m done;
  if !m = n then a else Array.sub a 0 !m

(* Limbs needed for a value of [bits] bits. *)
let limbs_for bits = (bits + limb_bits - 1) / limb_bits

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative"
  else if n = 0 then zero
  else if n < base then [| n |]
  else begin
    let rec count k v = if v = 0 then k else count (k + 1) (v lsr limb_bits) in
    let len = count 0 n in
    Array.init len (fun i -> (n lsr (i * limb_bits)) land limb_mask)
  end

let to_int_opt a =
  (* OCaml ints hold 62 significand bits safely; 3 limbs can overflow. *)
  let n = Array.length a in
  if n = 0 then Some 0
  else if n = 1 then Some a.(0)
  else if n = 2 then Some (a.(0) lor (a.(1) lsl limb_bits))
  else if n = 3 && a.(2) < 4 then
    Some (a.(0) lor (a.(1) lsl limb_bits) lor (a.(2) lsl (2 * limb_bits)))
  else None

let to_int a =
  match to_int_opt a with
  | Some v -> v
  | None -> failwith "Nat.to_int: overflow"

let of_int64 v =
  if Int64.compare v 0L < 0 then invalid_arg "Nat.of_int64: negative"
  else if Int64.compare v (Int64.of_int max_int) <= 0 then of_int (Int64.to_int v)
  else begin
    (* 63 or 64-bit positive value: split into three 30-bit chunks plus top. *)
    let l0 = Int64.to_int (Int64.logand v 0x3FFFFFFFL) in
    let l1 = Int64.to_int (Int64.logand (Int64.shift_right_logical v 30) 0x3FFFFFFFL) in
    let l2 = Int64.to_int (Int64.shift_right_logical v 60) in
    normalize [| l0; l1; l2 |]
  end

let to_int64_opt a =
  let n = Array.length a in
  if n = 0 then Some 0L
  else if n <= 2 then Some (Int64.of_int (to_int a))
  else if n = 3 && a.(2) < 8 then
    let open Int64 in
    Some
      (logor (of_int a.(0))
         (logor (shift_left (of_int a.(1)) 30) (shift_left (of_int a.(2)) 60)))
  else None

let compare (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  if na <> nb then Stdlib.compare na nb
  else begin
    let i = ref (na - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do decr i done;
    if !i < 0 then 0 else Stdlib.compare a.(!i) b.(!i)
  end

let equal a b = compare a b = 0

(* ---- bit scanning ------------------------------------------------------ *)

(* Bit width of a limb value in [0, 2^30): a five-step binary search. *)
let[@inline] limb_width v =
  let v = ref v and n = ref 0 in
  if !v >= 0x10000 then begin n := 16; v := !v lsr 16 end;
  if !v >= 0x100 then begin n := !n + 8; v := !v lsr 8 end;
  if !v >= 0x10 then begin n := !n + 4; v := !v lsr 4 end;
  if !v >= 0x4 then begin n := !n + 2; v := !v lsr 2 end;
  if !v >= 0x2 then begin n := !n + 1; v := !v lsr 1 end;
  !n + !v

(* Trailing zeros of a nonzero limb: isolate the lowest set bit. *)
let[@inline] limb_tz v = limb_width (v land -v) - 1

let num_bits a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + limb_width a.(n - 1)

(* Lowest set bit at index >= [k], or -1 when there is none. *)
let next_set_bit (a : t) k =
  let n = Array.length a in
  let i = k / limb_bits in
  if i >= n then -1
  else begin
    let first = a.(i) land lnot ((1 lsl (k mod limb_bits)) - 1) in
    if first <> 0 then (i * limb_bits) + limb_tz first
    else begin
      let j = ref (i + 1) in
      while !j < n && a.(!j) = 0 do incr j done;
      if !j >= n then -1 else (!j * limb_bits) + limb_tz a.(!j)
    end
  end

(* Lowest clear bit at index >= [k]; bits above the top limb are clear. *)
let next_clear_bit (a : t) k =
  let n = Array.length a in
  let i = k / limb_bits in
  if i >= n then k
  else begin
    let first =
      lnot a.(i) land limb_mask land lnot ((1 lsl (k mod limb_bits)) - 1)
    in
    if first <> 0 then (i * limb_bits) + limb_tz first
    else begin
      let j = ref (i + 1) in
      while !j < n && a.(!j) = limb_mask do incr j done;
      if !j >= n then n * limb_bits
      else (!j * limb_bits) + limb_tz (lnot a.(!j) land limb_mask)
    end
  end

let trailing_zeros a = if is_zero a then 0 else next_set_bit a 0

let testbit a i =
  if i < 0 then invalid_arg "Nat.testbit"
  else begin
    let limb = i / limb_bits in
    if limb >= Array.length a then false
    else (a.(limb) lsr (i mod limb_bits)) land 1 = 1
  end

let is_even a = not (testbit a 0)

(* ---- addition and subtraction ----------------------------------------- *)

(* a + b with [Array.length a >= Array.length b > 0]. The result gets an
   extra limb only when the top limbs could carry out. *)
let add_long (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  let btop = if nb = na then b.(na - 1) else 0 in
  let grow = a.(na - 1) + btop + 1 >= base in
  let r = Array.make (if grow then na + 1 else na) 0 in
  let carry = ref 0 in
  for i = 0 to nb - 1 do
    let s = a.(i) + b.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  for i = nb to na - 1 do
    let s = a.(i) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  if grow then begin
    r.(na) <- !carry;
    normalize r
  end
  else r

let add (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else if na >= nb then add_long a b
  else add_long b a

let add_int a k =
  if k < 0 then invalid_arg "Nat.add_int: negative" else add a (of_int k)

(* a - b into a fresh array of [Array.length a] limbs; requires a >= b. *)
let sub_unchecked (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  let r = Array.make na 0 in
  (* The borrow is carried as 0 or -1 by an arithmetic shift. *)
  let borrow = ref 0 in
  for i = 0 to nb - 1 do
    let d = a.(i) - b.(i) + !borrow in
    r.(i) <- d land limb_mask;
    borrow := d asr limb_bits
  done;
  for i = nb to na - 1 do
    let d = a.(i) + !borrow in
    r.(i) <- d land limb_mask;
    borrow := d asr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: underflow"
  else sub_unchecked a b

let succ a = add a one
let pred a = if is_zero a then invalid_arg "Nat.pred: zero" else sub a one

(* Limb [i] of [b * 2^(kl * limb_bits + kr)], 0 <= kr < limb_bits. *)
let[@inline] shifted_limb (b : t) kl kr i =
  let j = i - kl in
  let nb = Array.length b in
  let hi = if j >= 0 && j < nb then (b.(j) lsl kr) land limb_mask else 0 in
  let lo =
    if kr > 0 && j >= 1 && j <= nb then b.(j - 1) lsr (limb_bits - kr) else 0
  in
  hi lor lo

let add_shift (a : t) (b : t) k =
  if k < 0 then invalid_arg "Nat.add_shift"
  else if is_zero b then a
  else if k = 0 then add a b
  else begin
    let na = Array.length a in
    let kl = k / limb_bits and kr = k mod limb_bits in
    let ns = limbs_for (num_bits b + k) in
    let n = max na ns in
    let r = Array.make n 0 in
    Array.blit a 0 r 0 (min na kl);
    let nb = Array.length b in
    let carry = ref 0 and prev = ref 0 in
    for i = kl to n - 1 do
      (* Limb i of b * 2^k from b's limbs j and j - 1 (held in prev). *)
      let j = i - kl in
      let bj = if j < nb then b.(j) else 0 in
      let sh = ((bj lsl kr) land limb_mask) lor (!prev lsr (limb_bits - kr)) in
      prev := bj;
      let s = (if i < na then a.(i) else 0) + sh + !carry in
      r.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    if !carry = 0 then r
    else begin
      let r' = Array.make (n + 1) 0 in
      Array.blit r 0 r' 0 n;
      r'.(n) <- !carry;
      r'
    end
  end

let diff_shift (a : t) (b : t) k =
  if k < 0 then invalid_arg "Nat.diff_shift"
  else begin
    let kl = k / limb_bits and kr = k mod limb_bits in
    let na = Array.length a in
    let ns = if is_zero b then 0 else limbs_for (num_bits b + k) in
    let c =
      if na <> ns then Stdlib.compare na ns
      else begin
        let i = ref (na - 1) in
        while !i >= 0 && a.(!i) = shifted_limb b kl kr !i do decr i done;
        if !i < 0 then 0 else Stdlib.compare a.(!i) (shifted_limb b kl kr !i)
      end
    in
    if c = 0 then (0, zero)
    else begin
      (* Subtract the smaller from the larger, the shifted operand read
         limb by limb. *)
      let n = max na ns in
      let r = Array.make n 0 in
      let nb = Array.length b in
      let borrow = ref 0 and prev = ref 0 in
      for i = 0 to n - 1 do
        let j = i - kl in
        let bj = if j >= 0 && j < nb then b.(j) else 0 in
        let y = ((bj lsl kr) land limb_mask) lor (!prev lsr (limb_bits - kr)) in
        if j >= 0 then prev := bj;
        let x = if i < na then a.(i) else 0 in
        let d = (if c > 0 then x - y else y - x) + !borrow in
        r.(i) <- d land limb_mask;
        borrow := d asr limb_bits
      done;
      (c, normalize r)
    end
  end

(* ---- multiplication ---------------------------------------------------- *)

let mul_int (a : t) k =
  if k < 0 then invalid_arg "Nat.mul_int: negative"
  else if k = 0 || is_zero a then zero
  else if k >= base then invalid_arg "Nat.mul_int: multiplier too large"
  else begin
    let na = Array.length a in
    let r = Array.make (na + 1) 0 in
    let carry = ref 0 in
    for i = 0 to na - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p land limb_mask;
      carry := p lsr limb_bits
    done;
    r.(na) <- !carry;
    normalize r
  end

let mul_school (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then zero
  else begin
    (* The product has num_bits a + num_bits b bits, or one fewer: when
       even the larger count fits below the top limb, drop that limb. *)
    let n =
      if num_bits a + num_bits b <= (na + nb - 1) * limb_bits then na + nb - 1
      else na + nb
    in
    let r = Array.make n 0 in
    for i = 0 to na - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to nb - 1 do
          let p = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- p land limb_mask;
          carry := p lsr limb_bits
        done;
        (* The final carry fits in one limb: ai*bj + r + c < 2^60 + 2^31. *)
        let k = ref (i + nb) in
        while !carry <> 0 do
          let p = r.(!k) + !carry in
          r.(!k) <- p land limb_mask;
          carry := p lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let karatsuba_threshold = 32

(* Split [a] into (low limbs < k, high limbs >= k). *)
let split_at (a : t) k =
  let n = Array.length a in
  if n <= k then (a, zero)
  else (normalize (Array.sub a 0 k), Array.sub a k (n - k))

let shift_limbs (a : t) k =
  if is_zero a then zero
  else begin
    let n = Array.length a in
    let r = Array.make (n + k) 0 in
    Array.blit a 0 r k n;
    r
  end

let rec mul (a : t) (b : t) : t =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then zero
  else if min na nb < karatsuba_threshold then mul_school a b
  else begin
    let k = (max na nb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

(* ---- shifts ------------------------------------------------------------- *)

let shift_left (a : t) bits =
  if bits < 0 then invalid_arg "Nat.shift_left"
  else if bits = 0 || is_zero a then a
  else begin
    let limbs = bits / limb_bits and rest = bits mod limb_bits in
    let na = Array.length a in
    let n = limbs_for (num_bits a + bits) in
    let r = Array.make n 0 in
    if rest = 0 then Array.blit a 0 r limbs na
    else begin
      let carry = ref 0 in
      for i = 0 to na - 1 do
        let v = (a.(i) lsl rest) lor !carry in
        r.(i + limbs) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      if na + limbs < n then r.(na + limbs) <- !carry
    end;
    r
  end

(* (a >> bits) lor low, for low in {0, 1}, sized exactly. *)
let shift_right_or (a : t) bits low =
  let nbits = num_bits a - bits in
  if nbits <= 0 then (if low = 0 then zero else one)
  else begin
    let limbs = bits / limb_bits and rest = bits mod limb_bits in
    let na = Array.length a in
    let n = limbs_for nbits in
    let r = Array.make n 0 in
    if rest = 0 then Array.blit a limbs r 0 n
    else
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr rest in
        let hi =
          if i + limbs + 1 < na then
            (a.(i + limbs + 1) lsl (limb_bits - rest)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
    r.(0) <- r.(0) lor low;
    r
  end

let shift_right (a : t) bits =
  if bits < 0 then invalid_arg "Nat.shift_right"
  else if bits = 0 || is_zero a then a
  else shift_right_or a bits 0

let strip_shift (a : t) k ~up =
  if k < 0 then invalid_arg "Nat.strip_shift"
  else if not up then begin
    let j = next_set_bit a k in
    if j < 0 then (zero, k) else (shift_right a j, j)
  end
  else begin
    (* floor(a / 2^k) + 1: its trailing ones become zeros and the first
       clear bit (at j) is set, so the stripped value is
       (a >> j) lor 1. *)
    let j = next_clear_bit a k in
    (shift_right_or a j 1, j)
  end

(* ---- division ---------------------------------------------------------- *)

let divmod_int (a : t) d =
  if d <= 0 then invalid_arg "Nat.divmod_int"
  else if d >= base then invalid_arg "Nat.divmod_int: divisor too large"
  else begin
    let na = Array.length a in
    if na = 0 then (zero, 0)
    else begin
      (* A top limb below d contributes no quotient limb. *)
      let nq = if a.(na - 1) < d then na - 1 else na in
      let q = Array.make nq 0 in
      let r = ref (if nq < na then a.(na - 1) else 0) in
      for i = nq - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor a.(i) in
        let qi = cur / d in
        q.(i) <- qi;
        r := cur - (qi * d)
      done;
      (q, !r)
    end
  end

let shift_div_int (a : t) k d =
  if k < 0 then invalid_arg "Nat.shift_div_int"
  else if d <= 0 then invalid_arg "Nat.shift_div_int"
  else if d >= base then invalid_arg "Nat.shift_div_int: divisor too large"
  else if is_zero a then (zero, false)
  else begin
    (* Divide a * 2^k, reading its limbs on the fly. *)
    let kl = k / limb_bits and kr = k mod limb_bits in
    let nu = limbs_for (num_bits a + k) in
    let top = shifted_limb a kl kr (nu - 1) in
    let nq = if top < d then nu - 1 else nu in
    let q = Array.make nq 0 in
    let r = ref (if nq < nu then top else 0) in
    for i = nq - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor shifted_limb a kl kr i in
      let qi = cur / d in
      q.(i) <- qi;
      r := cur - (qi * d)
    done;
    (q, !r <> 0)
  end

(* Knuth algorithm D on a * 2^k over a single working buffer: the
   dividend is shifted straight into it (by k plus the normalization
   shift s), and on return it holds the remainder times 2^s in its low
   [Array.length b] limbs. Requires at least two limbs in [b]. *)
let knuth (a : t) k (b : t) =
  let n = Array.length b in
  let s = limb_bits - limb_width b.(n - 1) in
  let v = if s = 0 then b else shift_left b s in
  let ks = k + s in
  let kl = ks / limb_bits and kr = ks mod limb_bits in
  let nu = max n (limbs_for (num_bits a + ks)) in
  let w = Array.make (nu + 1) 0 in
  let na = Array.length a in
  let prev = ref 0 in
  for i = kl to nu - 1 do
    let j = i - kl in
    let aj = if j < na then a.(j) else 0 in
    w.(i) <- ((aj lsl kr) land limb_mask) lor (!prev lsr (limb_bits - kr));
    prev := aj
  done;
  let m = nu - n in
  (* The top quotient limb is nonzero iff the top n dividend limbs are
     at least v; otherwise start one limb lower and size q exactly. *)
  let top_ge =
    let i = ref (n - 1) in
    while !i >= 0 && w.(m + !i) = v.(!i) do decr i done;
    !i < 0 || w.(m + !i) > v.(!i)
  in
  let q = Array.make (if top_ge then m + 1 else m) 0 in
  let vn1 = v.(n - 1) and vn2 = v.(n - 2) in
  for j = (if top_ge then m else m - 1) downto 0 do
    (* Estimate q_hat from the top two limbs of the current remainder. *)
    let num = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
    let qhat = ref (num / vn1) in
    let rhat = ref (num - (!qhat * vn1)) in
    if !qhat >= base then begin
      qhat := base - 1;
      rhat := num - (!qhat * vn1)
    end;
    while
      !rhat < base
      && !qhat * vn2 > (!rhat lsl limb_bits) lor w.(j + n - 2)
    do
      decr qhat;
      rhat := !rhat + vn1
    done;
    (* Multiply-and-subtract w[j..j+n] -= qhat * v. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = w.(i + j) - (p land limb_mask) + !borrow in
      w.(i + j) <- d land limb_mask;
      borrow := d asr limb_bits
    done;
    let d = w.(j + n) - !carry + !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back. *)
      w.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let sum = w.(i + j) + v.(i) + !c in
        w.(i + j) <- sum land limb_mask;
        c := sum lsr limb_bits
      done;
      w.(j + n) <- (w.(j + n) + !c) land limb_mask
    end
    else w.(j + n) <- d;
    q.(j) <- !qhat
  done;
  (q, w, s)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero
  else if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else begin
    let q, w, s = knuth a 0 b in
    (q, shift_right (normalize (Array.sub w 0 (Array.length b))) s)
  end

let div a b =
  if is_zero b then raise Division_by_zero
  else if compare a b < 0 then zero
  else if Array.length b = 1 then fst (divmod_int a b.(0))
  else begin
    let q, _, _ = knuth a 0 b in
    q
  end

let rem a b = snd (divmod a b)

let shift_div (a : t) k (b : t) =
  if k < 0 then invalid_arg "Nat.shift_div"
  else if is_zero b then raise Division_by_zero
  else if Array.length b = 1 then shift_div_int a k b.(0)
  else if is_zero a then (zero, false)
  else begin
    let q, w, _ = knuth a k b in
    let i = ref (Array.length b - 1) in
    while !i >= 0 && w.(!i) = 0 do decr i done;
    (q, !i >= 0)
  end

(* ---- square root -------------------------------------------------------- *)

(* Floor square root of an int below 2^60: a float seed, then exact
   integer correction (the seed is within one of the root). *)
let isqrt_int v =
  let s = ref (int_of_float (Float.sqrt (float_of_int v))) in
  while !s * !s > v do decr s done;
  while (!s + 1) * (!s + 1) <= v do incr s done;
  !s

(* a as a float, to about 2^-51 relative error. *)
let approx_float (a : t) =
  let f = ref 0.0 in
  for i = Array.length a - 1 downto 0 do
    f := (!f *. float_of_int base) +. float_of_int a.(i)
  done;
  !f

(* A root x with floor(sqrt a) <= x <= floor(sqrt a) + 1, by precision
   doubling. Each step starts from a seed x0 above sqrt a and takes one
   Newton step from above, floor((x0 + floor(a / x0)) / 2): it never
   falls below the floor root and overshoots sqrt a by at most
   (x0 - sqrt a)^2 / (2 sqrt a).
   - Below 2^120 the root fits an int: the float root is within 2^9 of
     it, so x0 = float root + 512 overshoots by < 2^10 and the step
     lands within 2^20 / 2^31 < 1.
   - Above, recursing on the top bits gives x0 = (s' + 1) * 2^k above
     sqrt a by at most 2^(k+1), and the step lands within
     2^(2k+1) / sqrt a < 1 for k <= (n - 4) / 4. x0 is even, so the step
     is (s' + 1) * 2^(k-1) + floor((a >> (k+1)) / (s' + 1)): a smaller
     division than a / x0. *)
let rec isqrt_approx (a : t) =
  let n = num_bits a in
  if n <= 60 then of_int (isqrt_int (to_int a))
  else if n <= 120 then begin
    let x0 = of_int (int_of_float (Float.sqrt (approx_float a)) + 512) in
    shift_right (add x0 (div a x0)) 1
  end
  else begin
    let k = (n - 4) / 4 in
    let s1 = succ (isqrt_approx (shift_right a (2 * k))) in
    add_shift (div (shift_right a (k + 1)) s1) s1 (k - 1)
  end

let sqrt_rem (a : t) : t * t =
  if is_zero a then (zero, zero)
  else begin
    let x = isqrt_approx a in
    let sq = mul x x in
    if compare sq a <= 0 then (x, sub_unchecked a sq)
    else begin
      let x = pred x in
      (x, sub a (mul x x))
    end
  end

let pow (a : t) k =
  if k < 0 then invalid_arg "Nat.pow"
  else begin
    let rec go acc b k =
      if k = 0 then acc
      else begin
        let acc = if k land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (k lsr 1)
      end
    in
    go one a k
  end

let logand (a : t) (b : t) =
  let n = min (Array.length a) (Array.length b) in
  normalize (Array.init n (fun i -> a.(i) land b.(i)))

let logor (a : t) (b : t) =
  let na = Array.length a and nb = Array.length b in
  let n = max na nb in
  normalize
    (Array.init n (fun i ->
         (if i < na then a.(i) else 0) lor (if i < nb then b.(i) else 0)))

let extract_bits a ~lo ~len =
  if lo < 0 || len < 0 then invalid_arg "Nat.extract_bits"
  else begin
    let shifted = shift_right a lo in
    let nlimbs = (len + limb_bits - 1) / limb_bits in
    let n = min nlimbs (Array.length shifted) in
    let r = Array.sub shifted 0 n in
    let top_bits = len - ((nlimbs - 1) * limb_bits) in
    if n = nlimbs && top_bits < limb_bits then
      r.(n - 1) <- r.(n - 1) land ((1 lsl top_bits) - 1);
    normalize r
  end

let extract_int (a : t) ~lo ~len =
  if lo < 0 || len < 0 || len > 32 then invalid_arg "Nat.extract_int";
  (* a window of at most 32 bits spans at most three limbs *)
  let q = lo / limb_bits and r = lo mod limb_bits in
  let na = Array.length a in
  let v = if q < na then a.(q) lsr r else 0 in
  let v = if q + 1 < na then v lor (a.(q + 1) lsl (limb_bits - r)) else v in
  let v = if q + 2 < na then v lor (a.(q + 2) lsl ((2 * limb_bits) - r)) else v in
  v land ((1 lsl len) - 1)

let of_bytes_le s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Nat.of_bytes_le";
  let r = Array.make (limbs_for (8 * len)) 0 in
  for i = 0 to len - 1 do
    let byte = Char.code (String.unsafe_get s (off + i)) in
    let q = 8 * i / limb_bits and sh = 8 * i mod limb_bits in
    r.(q) <- r.(q) lor ((byte lsl sh) land limb_mask);
    (* the byte straddles a limb boundary *)
    if sh > limb_bits - 8 then r.(q + 1) <- r.(q + 1) lor (byte lsr (limb_bits - sh))
  done;
  normalize r

let bits_below_nonzero (a : t) k =
  if k <= 0 then false
  else begin
    let full = k / limb_bits and rest = k mod limb_bits in
    let na = Array.length a in
    let lim = min full na in
    let i = ref 0 in
    while !i < lim && a.(!i) = 0 do incr i done;
    !i < lim
    || (rest > 0 && full < na && a.(full) land ((1 lsl rest) - 1) <> 0)
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Nat.of_string: empty"
  else if len > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then begin
    let acc = ref zero in
    for i = 2 to len - 1 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Nat.of_string: bad hex digit"
      in
      if d >= 0 then acc := add_int (shift_left !acc 4) d
    done;
    !acc
  end
  else begin
    let acc = ref zero in
    String.iter
      (fun c ->
        match c with
        | '0' .. '9' -> acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
        | '_' -> ()
        | _ -> invalid_arg "Nat.of_string: bad digit")
      s;
    !acc
  end

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a =
      if is_zero a then ()
      else begin
        let q, r = divmod_int a 1_000_000_000 in
        if is_zero q then Buffer.add_string buf (string_of_int r)
        else begin
          go q;
          Buffer.add_string buf (Printf.sprintf "%09d" r)
        end
      end
    in
    go a;
    Buffer.contents buf
  end

let to_string_hex a =
  if is_zero a then "0x0"
  else begin
    let nb = num_bits a in
    let digits = (nb + 3) / 4 in
    let buf = Buffer.create (digits + 2) in
    Buffer.add_string buf "0x";
    for i = digits - 1 downto 0 do
      let d = to_int (extract_bits a ~lo:(i * 4) ~len:4) in
      Buffer.add_char buf "0123456789abcdef".[d]
    done;
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)

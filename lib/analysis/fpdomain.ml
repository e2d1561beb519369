(* Fpdomain: an abstract domain over IEEE-754 binary64 values (paper
   §4.2 extended to FP facts, in the spirit of FlowFPX birth tracking
   and NSan's shadow checks — see PAPERS.md).

   An abstract value is a *may*-set over the special-value classes

     { NaN, +Inf, -Inf, ±0, subnormal, normal }

   where the normal class additionally carries a sign split (pos/neg)
   and an unbiased-exponent interval [lo, hi] describing every normal
   magnitude the value may take (|v| ∈ [2^lo, 2^(hi+1))).  The flags
   are independent booleans, so join is pointwise disjunction and the
   lattice height is finite once exponent bounds are accelerated onto
   a fixed ladder of magnitude buckets at loop heads (widen).

   Semantics contract: transfer functions model *real* arithmetic with
   a small exponent margin (MARGIN) on every derived magnitude bound.
   This deliberately over-approximates each port's rounding behaviour
   (vanilla binary64, mpfr at any precision, posits, intervals,
   rationals): the engine's soundness oracle (--oracle) re-checks every
   statically proven site dynamically across all ports.

   Provenance: [srcs] carries the set of instruction indices that may
   have produced the value, so the lint report can print a birth path
   for every risk.  It rides along joins (union) and transfers (union
   of operand provenance); the per-site writer adds its own index. *)

type v = {
  nan : bool; (* may be a NaN (any payload, incl. NaN-boxed sNaNs) *)
  pinf : bool; (* may be +infinity *)
  ninf : bool; (* may be -infinity *)
  zero : bool; (* may be ±0 *)
  sub : bool; (* may be a subnormal (either sign) *)
  pos : bool; (* may be a positive normal *)
  neg : bool; (* may be a negative normal *)
  lo : int; (* min unbiased exponent of any normal it may be *)
  hi : int; (* max unbiased exponent; empty range: lo > hi *)
  srcs : Ptree.Set.t; (* instruction indices that may have produced it *)
}

let emin = -1022
let emax = 1023

(* exponent slack on every derived bound: covers cross-port rounding
   discrepancies (the oracle validates this empirically) *)
let margin = 2

(* empty exponent-range sentinel, absorbing under min/max *)
let r_empty_lo = emax + 1
let r_empty_hi = emin - 1

let bot =
  { nan = false; pinf = false; ninf = false; zero = false; sub = false;
    pos = false; neg = false; lo = r_empty_lo; hi = r_empty_hi;
    srcs = Ptree.Set.empty }

let top =
  { nan = true; pinf = true; ninf = true; zero = true; sub = true;
    pos = true; neg = true; lo = emin; hi = emax; srcs = Ptree.Set.empty }

let is_bot v = v = { bot with srcs = v.srcs } && Ptree.Set.is_empty v.srcs

let has_normal v = v.pos || v.neg
let finite v = v.zero || v.sub || has_normal v
let may_inf v = v.pinf || v.ninf

(* ---- normalization ------------------------------------------------------ *)

(* Rebuild the invariants from raw components: exponent mass outside
   [emin, emax] spills into the inf flags (overflow, per result sign)
   and the zero/sub flags (underflow — round-to-nearest may flush all
   the way to zero); a normal flag without a range gets the full range
   (sound safety net, transfers always supply one). *)
let mk ~nan ~pinf ~ninf ~zero ~sub ~pos ~neg ~lo ~hi ~srcs =
  let normal = pos || neg in
  let overflow = normal && hi > emax in
  let underflow = normal && lo < emin in
  let pinf = pinf || (overflow && pos) in
  let ninf = ninf || (overflow && neg) in
  let zero = zero || underflow in
  let sub = sub || underflow in
  let lo = max lo emin and hi = min hi emax in
  (* if clamping the spills leaves no normal exponent, every concrete
     value escaped to inf/zero/sub: a normal result is impossible.
     Clearing pos/neg (rather than widening to the full range) keeps
     mk monotone — a tighter input must never yield a wider output *)
  let clamped_out = normal && lo > hi in
  let pos = pos && not clamped_out and neg = neg && not clamped_out in
  let lo, hi =
    if (not normal) || clamped_out then (r_empty_lo, r_empty_hi)
    else (lo, hi)
  in
  { nan; pinf; ninf; zero; sub; pos; neg; lo; hi; srcs }

let with_src idx v = { v with srcs = Ptree.Set.add idx v.srcs }

(* ---- order, join, widening ---------------------------------------------- *)

let imp a b = (not a) || b

let range_leq a b =
  (a.lo > a.hi) || (b.lo <= a.lo && a.hi <= b.hi)

let leq a b =
  imp a.nan b.nan && imp a.pinf b.pinf && imp a.ninf b.ninf
  && imp a.zero b.zero && imp a.sub b.sub && imp a.pos b.pos
  && imp a.neg b.neg && range_leq a b
  && Ptree.Set.subset a.srcs b.srcs

let equal a b =
  a == b
  || a.nan = b.nan && a.pinf = b.pinf && a.ninf = b.ninf && a.zero = b.zero
     && a.sub = b.sub && a.pos = b.pos && a.neg = b.neg && a.lo = b.lo
     && a.hi = b.hi && Ptree.Set.equal a.srcs b.srcs

(* [a] itself when the join adds nothing to it (the union returns
   [a.srcs] itself when [b.srcs] is a subset) *)
let join a b =
  if a == b then a
  else
    let j =
      mk ~nan:(a.nan || b.nan) ~pinf:(a.pinf || b.pinf) ~ninf:(a.ninf || b.ninf)
        ~zero:(a.zero || b.zero) ~sub:(a.sub || b.sub) ~pos:(a.pos || b.pos)
        ~neg:(a.neg || b.neg) ~lo:(min a.lo b.lo) ~hi:(max a.hi b.hi)
        ~srcs:(Ptree.Set.union a.srcs b.srcs)
    in
    if equal j a then a else j

(* magnitude buckets the widening accelerates exponent bounds onto:
   a growing bound jumps to the next ladder rung, so any widening
   chain stabilizes after at most |ladder| steps per bound *)
let ladder =
  [| emin; -512; -256; -128; -64; -32; -16; -8; -4; -2; -1; 0; 1; 2; 4; 8;
     16; 32; 64; 128; 256; 512; emax |]

let bucket_down x =
  let r = ref emin in
  Array.iter (fun b -> if b <= x && b > !r then r := b) ladder;
  !r

let bucket_up x =
  let r = ref emax in
  Array.iter (fun b -> if b >= x && b < !r then r := b) ladder;
  !r

(* widen old new: join, then accelerate any strictly-growing exponent
   bound to its ladder rung.  Flags are booleans (finite height) and
   srcs are bounded by the program size, so iteration terminates. *)
let widen a b =
  let j = join a b in
  let lo = if j.lo < a.lo then bucket_down j.lo else j.lo in
  let hi = if j.hi > a.hi then bucket_up j.hi else j.hi in
  (* [j] is an [mk] result (or equal to one), which [mk] maps to itself *)
  if j.lo > j.hi || (lo = j.lo && hi = j.hi) then j
  else
    mk ~nan:j.nan ~pinf:j.pinf ~ninf:j.ninf ~zero:j.zero ~sub:j.sub
      ~pos:j.pos ~neg:j.neg ~lo ~hi ~srcs:j.srcs

(* ---- constants ----------------------------------------------------------- *)

(* exact classification of one binary64 bit pattern *)
let classify_bits (bits : int64) =
  let e = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 52) 0x7FFL) in
  let m = Int64.logand bits 0xF_FFFF_FFFF_FFFFL in
  let s = Int64.compare bits 0L < 0 in
  if e = 0x7FF then
    if m = 0L then
      if s then { bot with ninf = true } else { bot with pinf = true }
    else { bot with nan = true }
  else if e = 0 then if m = 0L then { bot with zero = true } else { bot with sub = true }
  else
    let ue = e - 1023 in
    if s then { bot with neg = true; lo = ue; hi = ue }
    else { bot with pos = true; lo = ue; hi = ue }

let const f = classify_bits (Int64.bits_of_float f)

(* ---- transfer functions -------------------------------------------------- *)

(* Risks name the special-value *births* an operation may commit given
   its abstract operands, mirroring the dynamic classifier in
   telemetry/numprof.ml: a NaN (resp. Inf) birth is a NaN (Inf) result
   with no NaN (Inf) operand; "sub:" entries are informational (a
   subnormal result from non-subnormal inputs). *)

type builder = {
  mutable b_nan : bool;
  mutable b_pinf : bool;
  mutable b_ninf : bool;
  mutable b_zero : bool;
  mutable b_sub : bool;
  mutable b_pos : bool;
  mutable b_neg : bool;
  mutable b_lo : int;
  mutable b_hi : int;
  mutable b_risks : string list;
}

let builder () =
  { b_nan = false; b_pinf = false; b_ninf = false; b_zero = false;
    b_sub = false; b_pos = false; b_neg = false; b_lo = r_empty_lo;
    b_hi = r_empty_hi; b_risks = [] }

let add_range b lo hi =
  if lo <= hi then begin
    if lo < b.b_lo then b.b_lo <- lo;
    if hi > b.b_hi then b.b_hi <- hi
  end

let risk b tag = if not (List.mem tag b.b_risks) then b.b_risks <- tag :: b.b_risks

let finish b srcs =
  (* record overflow/underflow spills as births before mk clamps *)
  let normal = b.b_pos || b.b_neg in
  if normal && b.b_hi > emax then risk b "inf:overflow";
  if normal && b.b_lo < emin then risk b "sub:underflow";
  ( mk ~nan:b.b_nan ~pinf:b.b_pinf ~ninf:b.b_ninf ~zero:b.b_zero ~sub:b.b_sub
      ~pos:b.b_pos ~neg:b.b_neg ~lo:b.b_lo ~hi:b.b_hi ~srcs,
    List.rev b.b_risks )

let srcs2 a c = Ptree.Set.union a.srcs c.srcs

let fadd a c =
  let b = builder () in
  if a.nan || c.nan then b.b_nan <- true;
  if (a.pinf && c.ninf) || (a.ninf && c.pinf) then begin
    b.b_nan <- true;
    risk b "nan:inf-inf"
  end;
  if a.pinf || c.pinf then b.b_pinf <- true;
  if a.ninf || c.ninf then b.b_ninf <- true;
  (* zero + x = x, x + zero = x *)
  if a.zero then begin
    b.b_zero <- b.b_zero || c.zero;
    b.b_sub <- b.b_sub || c.sub;
    b.b_pos <- b.b_pos || c.pos;
    b.b_neg <- b.b_neg || c.neg;
    add_range b c.lo c.hi
  end;
  if c.zero then begin
    b.b_zero <- b.b_zero || a.zero;
    b.b_sub <- b.b_sub || a.sub;
    b.b_pos <- b.b_pos || a.pos;
    b.b_neg <- b.b_neg || a.neg;
    add_range b a.lo a.hi
  end;
  (* sub ± sub: at most 2^-1021 *)
  if a.sub && (c.sub || c.zero) || (c.sub && a.zero) then begin
    b.b_zero <- true;
    b.b_sub <- true;
    add_range b emin (emin + margin)
  end;
  (* sub ± normal: the normal wobbles by one exponent; near emin the
     result may dip into the subnormals *)
  let sub_normal s n =
    ignore s;
    b.b_pos <- b.b_pos || n.pos;
    b.b_neg <- b.b_neg || n.neg;
    if n.lo <= emin + 1 then b.b_sub <- true;
    add_range b (n.lo - 1 - margin) (n.hi + 1 + margin)
  in
  if a.sub && has_normal c then sub_normal a c;
  if c.sub && has_normal a then sub_normal c a;
  (* normal + normal *)
  if a.pos && c.pos then begin
    b.b_pos <- true;
    (* same sign: |a+b| >= max(|a|,|b|) in the reals; the margin below
       covers a port computing within 2^margin of the real value *)
    add_range b (max a.lo c.lo - margin) (max a.hi c.hi + 1 + margin)
  end;
  if a.neg && c.neg then begin
    b.b_neg <- true;
    add_range b (max a.lo c.lo - margin) (max a.hi c.hi + 1 + margin)
  end;
  if (a.pos && c.neg) || (a.neg && c.pos) then begin
    (* opposite signs: cancellation can reach all the way to ±0 *)
    b.b_pos <- true;
    b.b_neg <- true;
    b.b_zero <- true;
    b.b_sub <- true;
    add_range b emin (max a.hi c.hi + 1 + margin)
  end;
  finish b (srcs2 a c)

let neg_v v =
  { v with pinf = v.ninf; ninf = v.pinf; pos = v.neg; neg = v.pos }

let fsub a c = fadd a (neg_v c)

(* result-sign booleans for multiplicative ops, counting sign-unknown
   classes (sub, zero) for both signs *)
let sign_pos v = v.pos || v.pinf || v.sub || v.zero
let sign_neg v = v.neg || v.ninf || v.sub || v.zero

let fmul a c =
  let b = builder () in
  if a.nan || c.nan then b.b_nan <- true;
  if (a.zero && may_inf c) || (may_inf a && c.zero) then begin
    b.b_nan <- true;
    risk b "nan:zero*inf"
  end;
  let rp = (sign_pos a && sign_pos c) || (sign_neg a && sign_neg c) in
  let rn = (sign_pos a && sign_neg c) || (sign_neg a && sign_pos c) in
  (* inf × nonzero *)
  if (may_inf a && (c.sub || has_normal c || may_inf c))
     || (may_inf c && (a.sub || has_normal a || may_inf a))
  then begin
    if rp then b.b_pinf <- true;
    if rn then b.b_ninf <- true
  end;
  if (a.zero && finite c) || (c.zero && finite a) then b.b_zero <- true;
  if a.sub && c.sub then b.b_zero <- true; (* flushes below 2^-2044 *)
  let sub_normal n =
    (* |sub × normal| < 2^(n.hi - 1021); may underflow to ±0 *)
    b.b_zero <- true;
    b.b_sub <- true;
    if n.hi - 1021 + margin >= emin then begin
      b.b_pos <- true;
      b.b_neg <- true;
      add_range b emin (n.hi - 1021 + margin)
    end
  in
  if a.sub && has_normal c then sub_normal c;
  if c.sub && has_normal a then sub_normal a;
  if has_normal a && has_normal c then begin
    if (a.pos && c.pos) || (a.neg && c.neg) then b.b_pos <- true;
    if (a.pos && c.neg) || (a.neg && c.pos) then b.b_neg <- true;
    add_range b (a.lo + c.lo - 1 - margin) (a.hi + c.hi + 1 + margin)
  end;
  finish b (srcs2 a c)

let fdiv a c =
  let b = builder () in
  if a.nan || c.nan then b.b_nan <- true;
  if a.zero && c.zero then begin
    b.b_nan <- true;
    risk b "nan:zero/zero"
  end;
  if may_inf a && may_inf c then begin
    b.b_nan <- true;
    risk b "nan:inf/inf"
  end;
  let rp = (sign_pos a && sign_pos c) || (sign_neg a && sign_neg c) in
  let rn = (sign_pos a && sign_neg c) || (sign_neg a && sign_pos c) in
  (* nonzero / zero: division by zero *)
  if (a.sub || has_normal a || may_inf a) && c.zero then begin
    if rp then b.b_pinf <- true;
    if rn then b.b_ninf <- true;
    risk b "inf:div-by-zero"
  end;
  (* inf / finite = inf *)
  if may_inf a && finite c then begin
    if rp then b.b_pinf <- true;
    if rn then b.b_ninf <- true
  end;
  (* finite / inf = 0, zero / nonzero = 0 *)
  if (finite a && may_inf c) || (a.zero && (c.sub || has_normal c)) then
    b.b_zero <- true;
  if has_normal a && has_normal c then begin
    if (a.pos && c.pos) || (a.neg && c.neg) then b.b_pos <- true;
    if (a.pos && c.neg) || (a.neg && c.pos) then b.b_neg <- true;
    add_range b (a.lo - c.hi - 1 - margin) (a.hi - c.lo + 1 + margin)
  end;
  (* normal / sub: huge, may overflow to inf *)
  if has_normal a && c.sub then begin
    b.b_pos <- true;
    b.b_neg <- true;
    add_range b (a.lo + 1022 - margin) (a.hi + 1075 + margin)
  end;
  (* sub / normal: tiny, may underflow *)
  if a.sub && has_normal c then begin
    b.b_zero <- true;
    b.b_sub <- true;
    if -1021 - c.lo + margin >= emin then begin
      b.b_pos <- true;
      b.b_neg <- true;
      add_range b emin (-1021 - c.lo + margin)
    end
  end;
  if a.sub && c.sub then begin
    b.b_pos <- true;
    b.b_neg <- true;
    add_range b (-53 - margin) (52 + margin)
  end;
  finish b (srcs2 a c)

let fsqrt a =
  let b = builder () in
  if a.nan then b.b_nan <- true;
  if a.neg || a.ninf then begin
    b.b_nan <- true;
    risk b "nan:sqrt-negative"
  end;
  if a.sub then begin
    (* subnormal sign is untracked: a negative subnormal would birth a
       NaN; a positive one lands near 2^-537 *)
    b.b_nan <- true;
    risk b "nan:sqrt-negative";
    b.b_pos <- true;
    add_range b (-538 - margin) (-511 + margin)
  end;
  if a.pinf then b.b_pinf <- true;
  if a.zero then b.b_zero <- true;
  if a.pos then begin
    b.b_pos <- true;
    add_range b ((a.lo / 2) - 1 - margin) ((a.hi / 2) + 1 + margin)
  end;
  finish b a.srcs

(* minsd/maxsd always return one of their operands (NaN quirks
   included), so the join is a sound superset *)
let fminmax a c = (join a c, [])

(* round-to-integral: integral results only — never subnormal; |x| < 1
   may round to ±0, rounding away can bump the exponent by one *)
let fround a =
  let b = builder () in
  if a.nan then b.b_nan <- true;
  if a.pinf then b.b_pinf <- true;
  if a.ninf then b.b_ninf <- true;
  if a.zero || a.sub || a.lo < 0 then b.b_zero <- true;
  (* results are integral: exponent >= 0 always (|x| < 1 rounds to 0,
     covered above, or to ±1 under a directed mode) *)
  if a.pos then begin
    b.b_pos <- true;
    add_range b (max a.lo 0) (max (a.hi + 1) 0)
  end;
  if a.neg then begin
    b.b_neg <- true;
    add_range b (max a.lo 0) (max (a.hi + 1) 0)
  end;
  if a.sub then begin
    (* directed rounding of a tiny value can produce ±1 *)
    b.b_pos <- true;
    b.b_neg <- true;
    add_range b 0 0
  end;
  finish b a.srcs

(* int -> f64: exact-ish integral magnitudes, never NaN/Inf/subnormal;
   [bits] bounds the significant magnitude (63 for i64, 31 for i32) *)
let of_int ~bits =
  { bot with
    zero = true;
    pos = true;
    neg = true;
    lo = 0;
    hi = bits }

(* f32 -> f64 widening is exact and every f32 (incl. f32 subnormals,
   >= 2^-149) lands in the f64 normal range: the result is never an
   f64 subnormal *)
let of_f32 =
  { top with sub = false; lo = -149; hi = 128 }

(* f64 -> f32 narrowing risk: overflow to f32 Inf when |x| can exceed
   ~2^128, plus f32-subnormal underflow below 2^-126 (informational) *)
let cvt_f2f_risks a =
  let r = ref [] in
  if has_normal a && a.hi + margin >= 128 then r := "inf:f32-overflow" :: !r;
  if a.sub || (has_normal a && a.lo - margin <= -126) then
    r := "sub:f32-underflow" :: !r;
  !r

(* f64 -> int conversion: invalid (NaN result pattern in the integer
   sense) on NaN, Inf, or magnitude beyond the integer width *)
let cvt_f2i_risks ~size a =
  let bits = if size = 8 then 63 else 31 in
  if a.nan || may_inf a || (has_normal a && a.hi + margin >= bits) then
    [ "nan:f2i-out-of-range" ]
  else []

(* ---- libm transfer ------------------------------------------------------- *)

(* |x| may exceed [k] (2^k bound on the magnitude)? *)
let mag_can_exceed a k = a.pinf || a.ninf || (has_normal a && a.hi + margin >= k)

(* exp-family inf-birth threshold: exp overflows near x = 710 < 2^10,
   conservatively flagged from exponent 9 *)
let exp_overflow a = mag_can_exceed a 9

let ext_transfer (fn : Machine.Isa.ext_fn) (a : v) (c : v) : v * string list =
  let b = builder () in
  let prop_nan () = if a.nan then b.b_nan <- true in
  let nan_on_special tag =
    prop_nan ();
    if may_inf a then begin
      b.b_nan <- true;
      risk b tag
    end
  in
  let bounded_sym hi_exp =
    (* result in [-2^(hi_exp+1), 2^(hi_exp+1)], any magnitude below *)
    b.b_zero <- true;
    b.b_sub <- true;
    b.b_pos <- true;
    b.b_neg <- true;
    add_range b emin (hi_exp + margin)
  in
  let exp_like ~signed =
    prop_nan ();
    if a.pinf || exp_overflow a then begin
      b.b_pinf <- true;
      if signed then b.b_ninf <- true;
      (* an Inf *birth* needs a finite argument that overflows — an
         operand that is already Inf propagates without a birth *)
      if has_normal a && a.hi + margin >= 9 then risk b "inf:exp-overflow"
    end;
    if a.ninf || exp_overflow a then begin
      (* large negative argument underflows to ±0 *)
      b.b_zero <- true;
      b.b_sub <- true
    end;
    let bound =
      if has_normal a then
        if a.hi >= 11 then emax + 1 else ((1 lsl max a.hi 0) * 3 / 2) + margin
      else 1 + margin
    in
    b.b_pos <- true;
    if signed then b.b_neg <- true;
    b.b_zero <- b.b_zero || signed;
    b.b_sub <- b.b_sub || signed;
    add_range b (if signed then emin else -bound) bound
  in
  (match fn with
  | Machine.Isa.Sin | Machine.Isa.Cos ->
      nan_on_special "nan:trig-of-inf";
      bounded_sym 0
  | Machine.Isa.Tan ->
      nan_on_special "nan:trig-of-inf";
      bounded_sym emax
  | Machine.Isa.Asin | Machine.Isa.Acos ->
      prop_nan ();
      if may_inf a || a.hi >= 0 then begin
        b.b_nan <- true;
        risk b "nan:domain"
      end;
      if fn = Machine.Isa.Asin then bounded_sym 0
      else begin
        b.b_zero <- true;
        b.b_sub <- true;
        b.b_pos <- true;
        add_range b emin (1 + margin)
      end
  | Machine.Isa.Atan ->
      prop_nan ();
      b.b_zero <- b.b_zero || a.zero;
      b.b_sub <- b.b_sub || a.sub;
      if a.pos || a.pinf then b.b_pos <- true;
      if a.neg || a.ninf then b.b_neg <- true;
      if a.sub then begin
        b.b_pos <- true;
        b.b_neg <- true
      end;
      if has_normal a || may_inf a || a.sub then add_range b emin (0 + margin)
  | Machine.Isa.Atan2 ->
      if a.nan || c.nan then b.b_nan <- true;
      bounded_sym 1
  | Machine.Isa.Exp -> exp_like ~signed:false
  | Machine.Isa.Sinh -> exp_like ~signed:true
  | Machine.Isa.Cosh ->
      exp_like ~signed:false;
      (* cosh >= 1: no zero/sub from finite inputs *)
      b.b_zero <- false;
      b.b_sub <- false;
      add_range b 0 0
  | Machine.Isa.Tanh ->
      prop_nan ();
      bounded_sym 0
  | Machine.Isa.Log | Machine.Isa.Log10 ->
      prop_nan ();
      if a.neg || a.ninf || a.sub then begin
        (* subnormal sign is untracked: may be negative *)
        b.b_nan <- true;
        risk b "nan:log-nonpositive"
      end;
      if a.zero || a.sub then begin
        b.b_ninf <- true;
        risk b "inf:log-zero"
      end;
      if a.pinf then b.b_pinf <- true;
      bounded_sym (if fn = Machine.Isa.Log then 10 else 9)
  | Machine.Isa.Pow ->
      (* x^y covers every class (0^neg = inf, neg^frac = nan, ...):
         conservatively top with the domain risks named *)
      b.b_nan <- true;
      b.b_pinf <- true;
      b.b_ninf <- true;
      b.b_zero <- true;
      b.b_sub <- true;
      b.b_pos <- true;
      b.b_neg <- true;
      add_range b emin emax;
      risk b "nan:pow-domain";
      risk b "inf:pow-overflow";
      ignore c
  | Machine.Isa.Floor | Machine.Isa.Ceil ->
      prop_nan ();
      if a.pinf then b.b_pinf <- true;
      if a.ninf then b.b_ninf <- true;
      if a.zero || a.sub || a.lo < 0 then b.b_zero <- true;
      if a.pos || a.sub then begin
        b.b_pos <- true;
        add_range b 0 (max 0 a.hi + 1)
      end;
      if a.neg || a.sub then begin
        b.b_neg <- true;
        add_range b 0 (max 0 a.hi + 1)
      end
  | Machine.Isa.Fabs ->
      prop_nan ();
      if may_inf a then b.b_pinf <- true;
      b.b_zero <- a.zero;
      b.b_sub <- a.sub;
      if has_normal a then begin
        b.b_pos <- true;
        add_range b a.lo a.hi
      end
  | Machine.Isa.Fmod ->
      if a.nan || c.nan then b.b_nan <- true;
      if may_inf a || c.zero then begin
        b.b_nan <- true;
        risk b "nan:fmod-domain"
      end;
      (* |fmod(a,c)| < |c|, sign follows a; sub signs untracked *)
      b.b_zero <- true;
      b.b_sub <- true;
      b.b_pos <- a.pos || a.sub || a.zero;
      b.b_neg <- a.neg || a.sub || a.zero;
      if b.b_pos || b.b_neg then
        add_range b emin (max c.hi (if c.sub then emin else c.hi) + margin)
  | Machine.Isa.Hypot ->
      if a.nan || c.nan then b.b_nan <- true;
      if may_inf a || may_inf c then b.b_pinf <- true;
      let fin_overflow x = has_normal x && x.hi + margin >= emax - 1 in
      if fin_overflow a || fin_overflow c then begin
        b.b_pinf <- true;
        risk b "inf:overflow"
      end;
      b.b_zero <- a.zero && c.zero;
      b.b_sub <- a.sub || c.sub;
      if a.sub || c.sub || has_normal a || has_normal c then begin
        b.b_pos <- true;
        add_range b (min a.lo c.lo) (max a.hi c.hi + 1 + margin);
        if a.sub || c.sub then add_range b emin (emin + margin)
      end
  | Machine.Isa.Cbrt ->
      prop_nan ();
      if a.pinf then b.b_pinf <- true;
      if a.ninf then b.b_ninf <- true;
      b.b_zero <- a.zero;
      if a.sub then begin
        (* cbrt of a subnormal is a normal near 2^-358..2^-341 *)
        b.b_pos <- true;
        b.b_neg <- true;
        add_range b (-360 - margin) (-340 + margin)
      end;
      if a.pos then b.b_pos <- true;
      if a.neg then b.b_neg <- true;
      if has_normal a then
        add_range b ((a.lo / 3) - 1 - margin) ((a.hi / 3) + 1 + margin)
  | Machine.Isa.Print_f64 | Machine.Isa.Print_i64 | Machine.Isa.Print_str _
  | Machine.Isa.Write_f64 | Machine.Isa.Alloc | Machine.Isa.Exit ->
      (* no FP result *)
      ());
  finish b (srcs2 a c)

(* ---- pretty-printing ----------------------------------------------------- *)

let pp ppf v =
  let tags = ref [] in
  let t c s = if c then tags := s :: !tags in
  t v.nan "nan";
  t v.pinf "+inf";
  t v.ninf "-inf";
  t v.zero "0";
  t v.sub "sub";
  if has_normal v then
    tags :=
      Printf.sprintf "%s2^[%d,%d]"
        (if v.pos && v.neg then "±" else if v.neg then "-" else "+")
        v.lo v.hi
      :: !tags;
  if !tags = [] then Format.fprintf ppf "⊥"
  else Format.fprintf ppf "{%s}" (String.concat "," (List.rev !tags))

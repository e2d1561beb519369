(** Elementary functions over {!Bigfloat} at arbitrary precision.

    All results are *faithfully* rounded: one of the two representable
    neighbours of the true value, and almost always the correctly
    rounded one. This mirrors MPFR's role in the paper's evaluation;
    exact correct rounding of transcendentals (Ziv loops) is out of
    scope.

    The kernels reduce the argument, sum a series in fixed point (a
    natural scaled by 2^w, w = prec + 40) and round once; the other
    functions compose them at prec + 32 or more bits and round again:
    - [exp]: x = n ln2 + r, r in [0, ln2), and
      exp r = exp(r / 2^8)^(2^8). Below 2^-8, exp x = 1 + x E(x) with
      [expm1]'s series, so the part below 1 keeps its relative accuracy.
    - [log]: x = 2^k m and c = 1 + j/64 with j = floor(64 (m - 1)), so
      log x = k ln2 + log c + 2 atanh t with t = (m - c)/(m + c),
      |t| < 1/129. Just below 1 it reduces around 1 instead (k = 0,
      c = 1), where k ln2 would cancel.
    - [sin], [cos], [tan]: x = s + q pi/2 with |s| <= pi/4, redone with
      more bits of pi when s cancels against x; sin s = s S(s^2) and
      cos s = C(s^2).
    - [atan] (and [asin], [acos], [atan2] through it): after
      atan x = pi/2 - atan(1/x) for |x| > 1, c = j/64 nearest |x| and
      u = (|x| - c)/(1 + |x| c), |u| <= 1/128, so
      atan |x| = atan c + u T(u^2).
    - [sinh], [tanh] go through [expm1], so small arguments keep their
      relative accuracy.

    The tables of log(1 + j/64) and atan(j/64) come from small-integer
    series and are filled lazily, one entry at a time, per domain and
    working precision, like the pi and ln2 constants. Where a result
    can be tiny, the series computes a ratio (sin s / s, atan u / u,
    atanh t / t) and one rounding multiplies it by the argument, so the
    relative error bound holds at any argument size. Each series term
    truncates by under 2^-w; a sum is within 2^10 units of 2^-w, and a
    kernel's result before its one rounding is within 2^-(prec + 25) of
    the true value, relatively.

    Domain conventions follow C's libm: [log] of a negative number is
    NaN, [log ~prec zero] is -inf, [atan2] honors signed zeros through
    its quadrant logic, etc. *)

val pi : prec:int -> Bigfloat.t
val ln2 : prec:int -> Bigfloat.t
val euler_e : prec:int -> Bigfloat.t

val exp : prec:int -> Bigfloat.t -> Bigfloat.t
val expm1 : prec:int -> Bigfloat.t -> Bigfloat.t
val log : prec:int -> Bigfloat.t -> Bigfloat.t
val log2 : prec:int -> Bigfloat.t -> Bigfloat.t
val log10 : prec:int -> Bigfloat.t -> Bigfloat.t

val sin : prec:int -> Bigfloat.t -> Bigfloat.t
val cos : prec:int -> Bigfloat.t -> Bigfloat.t
val tan : prec:int -> Bigfloat.t -> Bigfloat.t

val asin : prec:int -> Bigfloat.t -> Bigfloat.t
val acos : prec:int -> Bigfloat.t -> Bigfloat.t
val atan : prec:int -> Bigfloat.t -> Bigfloat.t
val atan2 : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t

val sinh : prec:int -> Bigfloat.t -> Bigfloat.t
val cosh : prec:int -> Bigfloat.t -> Bigfloat.t
val tanh : prec:int -> Bigfloat.t -> Bigfloat.t

val pow : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val cbrt : prec:int -> Bigfloat.t -> Bigfloat.t
val hypot : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t

(** {2 Directed binary64 enclosures}

    Support for interval ports (Ishii-style approximate real-interval
    translation): convert faithfully rounded results to rigorous
    binary64 bounds with outward rounding. *)

val bits_next_up : int64 -> int64
(** One binary64 ulp upward on raw bits; NaN and +inf are fixed points. *)

val bits_next_dn : int64 -> int64
(** One binary64 ulp downward on raw bits; NaN and -inf are fixed
    points (stepping down from +inf yields max_float). *)

val to_bits_dir : up:bool -> Bigfloat.t -> int64
(** Exact directed conversion to binary64 bits (round toward +inf /
    -inf), overflowing to the infinity on the rounding side only. *)

val enclose_lo : Bigfloat.t -> int64
val enclose_hi : Bigfloat.t -> int64
(** Directed conversion of a *faithfully rounded* value (working
    precision >= 55) widened one further ulp outward, so the returned
    bound rigorously contains the true real result. *)

val enclose1 : prec:int -> (prec:int -> Bigfloat.t -> Bigfloat.t) ->
  int64 -> int64 * int64
(** [(lo, hi)] enclosure of the real f(x) at the binary64 value [bits]
    via one faithful evaluation at [prec] (>= 55). *)

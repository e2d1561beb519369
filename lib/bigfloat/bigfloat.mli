(** Arbitrary-precision binary floating point with correct rounding — the
    GNU MPFR substitute.

    A finite value is (-1)^sign * man * 2^exp with [man] an arbitrary-size
    natural whose trailing zero bits are stripped (canonical form), so
    structural equality coincides with numeric equality on finite values.
    The exponent is unbounded (OCaml int), so there is no overflow or
    underflow within the type; conversions to IEEE formats apply range
    handling. +,-,*,/,sqrt,fma,rint are correctly rounded at the requested
    precision in any of the four IEEE rounding modes; the elementary
    functions in {!Elementary} are faithfully rounded.

    Correct rounding plus the canonical form make every result unique:
    any implementation of these operations returns structurally the
    same value, so kernel changes can alter speed but never bits. *)

type t

type rounding = Ieee754.Softfp.rounding

val rne : rounding

(* --- constructors and constants --- *)

val zero : t
val neg_zero : t
val one : t
val minus_one : t
val two : t
val half : t
val inf : t
val neg_inf : t
val nan : t

val of_int : int -> t
(** Exact. *)

val of_float : float -> t
(** Exact (every binary64 value is representable). *)

val of_string : prec:int -> string -> t
(** Decimal, e.g. ["-1.25e-3"]. Rounded to [prec] bits (RNE). Raises
    [Invalid_argument] on malformed input. *)

val make : prec:int -> mode:rounding -> sign:int -> man:Bignum.Nat.t ->
  exp:int -> sticky:bool -> t
(** Round (-1)^sign * man * 2^exp (+ sticky epsilon) to [prec] bits. *)

(* --- observers --- *)

val is_nan : t -> bool
val is_inf : t -> bool
val is_zero : t -> bool
val is_finite : t -> bool
val sign : t -> int
(** -1, 0, or 1; the sign of -0 is 0 by this accessor (see [signbit]). *)

val signbit : t -> bool

val classify : t -> [ `Nan | `Inf of int | `Zero of int | `Fin of int * int * Bignum.Nat.t ]
(** [`Fin (sign, exp, man)] with value = (-1)^sign * man * 2^exp. *)

val num_bits : t -> int
(** Significand width of a finite nonzero value (canonical, trailing
    zeros stripped); 0 otherwise. *)

val exponent : t -> int
(** Exponent of the leading bit: value in [2^e, 2^(e+1)). Raises
    [Invalid_argument] for non-finite or zero. *)

val to_float : t -> float
(** Round to nearest binary64, honoring overflow to infinity and gradual
    underflow. *)

val compare : t -> t -> int option
(** Numeric comparison; [None] if either operand is NaN. -0 = +0. *)

val equal : t -> t -> bool
(** Numeric equality; NaN is not equal to anything. *)

val lt : t -> t -> bool
val le : t -> t -> bool

(* --- arithmetic (correctly rounded at [prec]) --- *)

val neg : t -> t
val abs : t -> t

val add : prec:int -> ?mode:rounding -> t -> t -> t
val sub : prec:int -> ?mode:rounding -> t -> t -> t
val mul : prec:int -> ?mode:rounding -> t -> t -> t
val div : prec:int -> ?mode:rounding -> t -> t -> t
val div_int : prec:int -> ?mode:rounding -> t -> int -> t
(** [div_int ~prec x k = div ~prec x (of_int k)], dividing by a one-limb
    integer directly (no bigfloat divisor, no shifted numerator copy). *)

val sqrt : prec:int -> ?mode:rounding -> t -> t
val fma : prec:int -> ?mode:rounding -> t -> t -> t -> t
(** Fused: a*b + c with a single rounding. *)

val mul_exact : t -> t -> t
(** Exact product (no rounding; the significand grows). *)

val min_op : t -> t -> t
val max_op : t -> t -> t

val floor : t -> t
val ceil : t -> t
val trunc : t -> t
val round_half_away : t -> t
(** C's round(): halfway cases away from zero. *)

val rint : prec:int -> ?mode:rounding -> t -> t
(** Round to integral value in the given rounding mode. *)

val fmod : prec:int -> t -> t -> t
(** C fmod semantics: result has the dividend's sign, |r| < |y|. Exact. *)

val scale2 : t -> int -> t
(** Multiply by 2^k, exact. *)

val to_string : ?digits:int -> t -> string
(** Scientific decimal representation, default 17 significant digits. *)

val pp : Format.formatter -> t -> unit

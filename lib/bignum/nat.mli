(** Arbitrary-precision natural numbers.

    Values are immutable arrays of base-2^30 limbs, least significant limb
    first, normalized so the most significant limb is nonzero (the empty
    array is zero). This module is the substrate for {!Bigint} and for the
    arbitrary-precision mantissas of the [bigfloat] library, replacing GNU
    MP/MPFR which are unavailable in this environment. *)

type t

val limb_bits : int
(** Number of bits per limb (30). *)

val zero : t
val one : t
val two : t

val is_zero : t -> bool

val of_int : int -> t
(** [of_int n] converts a nonnegative OCaml int. Raises [Invalid_argument]
    on negative input. *)

val to_int : t -> int
(** Raises [Failure] if the value does not fit in an OCaml int. *)

val to_int_opt : t -> int option

val of_int64 : int64 -> t
(** Nonnegative int64 only. *)

val to_int64_opt : t -> int64 option

val compare : t -> t -> int
val equal : t -> t -> bool

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0].
    Constant time. *)

val trailing_zeros : t -> int
(** Number of trailing zero bits; [trailing_zeros zero = 0]. Scans limbs,
    not bits. *)

val testbit : t -> int -> bool
(** [testbit a i] is bit [i] (0 = least significant). Out-of-range bits are 0. *)

val is_even : t -> bool

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val succ : t -> t
val pred : t -> t
(** [pred zero] raises [Invalid_argument]. *)

val add_shift : t -> t -> int -> t
(** [add_shift a b k = a + b * 2^k], built in one buffer without
    materializing the shifted operand. *)

val diff_shift : t -> t -> int -> int * t
(** [diff_shift a b k = (c, d)] with [c] the sign of [a - b * 2^k]
    (-1, 0 or 1) and [d] its magnitude, in one buffer. *)

val mul : t -> t -> t
(** Schoolbook below the Karatsuba threshold, Karatsuba above. *)

val mul_int : t -> int -> t
(** Multiply by a small nonnegative int. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val strip_shift : t -> int -> up:bool -> t * int
(** [strip_shift a k ~up = (m, j)] with
    [m * 2^j = (floor (a / 2^k) + (if up then 1 else 0)) * 2^k] and [m]
    odd; [(zero, k)] when that value is zero. The truncate-or-increment
    step of rounding fused with trailing-zero stripping: one shift. *)

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    Raises [Division_by_zero] if [b] is zero. Knuth algorithm D. *)

val div : t -> t -> t
val rem : t -> t -> t

val divmod_int : t -> int -> t * int
(** Division by a small positive int; the remainder is an int. *)

val shift_div : t -> int -> t -> t * bool
(** [shift_div a k b = (q, inexact)] with [q = floor (a * 2^k / b)] and
    [inexact] true iff the division leaves a remainder. The shift is
    folded into the division's working buffer. Raises
    [Division_by_zero] if [b] is zero. *)

val shift_div_int : t -> int -> int -> t * bool
(** [shift_div_int a k d] is [shift_div a k (of_int d)] for a one-limb
    divisor [0 < d < 2^limb_bits], reading [a * 2^k] limb by limb. *)

val sqrt_rem : t -> t * t
(** [sqrt_rem a = (s, r)] with [s*s + r = a] and [s] the integer square
    root (floor). Precision doubling from a float seed: each level
    recurses on the top half of the bits and takes one Newton step. *)

val pow : t -> int -> t
(** [pow a k] for [k >= 0]. *)

val logand : t -> t -> t
val logor : t -> t -> t

val extract_bits : t -> lo:int -> len:int -> t
(** [extract_bits a ~lo ~len] is [(a >> lo) land (2^len - 1)]. *)

val extract_int : t -> lo:int -> len:int -> int
(** [extract_bits] for a window of [len <= 32] bits, as an int and
    without allocating. *)

val of_bytes_le : string -> int -> int -> t
(** [of_bytes_le s off len] is the natural whose little-endian bytes are
    [s.[off] .. s.[off+len-1]]. *)

val bits_below_nonzero : t -> int -> bool
(** [bits_below_nonzero a k] is true iff any of bits [0..k-1] of [a] is set
    (the "sticky" test used when rounding). Runs in O(k/limb_bits). *)

val of_string : string -> t
(** Decimal (or [0x]-prefixed hex) string. Raises [Invalid_argument] on
    malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_string_hex : t -> string

val pp : Format.formatter -> t -> unit

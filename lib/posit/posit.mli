(** Posit arithmetic (Gustafson's unum type III), replacing the Universal
    Numbers Library used by the paper.

    A posit<nbits,es> value is carried as its raw bit pattern in the low
    [nbits] bits of an int64. Supported sizes: 2 <= nbits <= 32,
    0 <= es <= 3 — enough for the standard posit8/16/32 used in the
    paper's evaluation. Arithmetic decodes to an exact
    (sign, scale, fraction) triple, computes exactly (with a sticky bit
    where needed), and re-encodes with round-to-nearest-even in posit
    tapered-precision space. Posits saturate instead of overflowing and
    never round a nonzero value to zero. *)

type spec = { nbits : int; es : int }

val spec : nbits:int -> es:int -> spec
(** Validates the size bounds. *)

val posit8 : spec
(** posit<8,0> *)

val posit16 : spec
(** posit<16,1> *)

val posit32 : spec
(** posit<32,2> *)

type t = int64
(** Raw bit pattern, low [nbits] bits significant. *)

val zero : t
val nar : spec -> t
(** Not-a-Real: the posit exception value (sign bit only). *)

val one : spec -> t
val max_pos : spec -> t
val min_pos : spec -> t

val is_zero : t -> bool
val is_nar : spec -> t -> bool

val neg : spec -> t -> t
val abs : spec -> t -> t

val add : spec -> t -> t -> t
val sub : spec -> t -> t -> t
val mul : spec -> t -> t -> t
val div : spec -> t -> t -> t
val sqrt : spec -> t -> t

val compare : spec -> t -> t -> int
(** Total order; NaR compares below everything. Posits order exactly like
    their two's-complement bit patterns — this is tested as an invariant. *)

val min_op : spec -> t -> t -> t
val max_op : spec -> t -> t -> t

val of_float : spec -> float -> t
(** Round a binary64 value to the nearest posit. NaN and infinities map
    to NaR. *)

val to_float : spec -> t -> float
(** Exact (every posit<=32,<=3> fits in binary64); NaR maps to NaN. *)

val of_int : spec -> int -> t

val to_string : spec -> t -> string

(** Decoded form, exposed for tests and for the FPVM arithmetic port. *)
type num = { sign : int; scale : int; frac : int64; frac_bits : int }

type decoded =
  | D_zero
  | D_nar
  | D_num of num
      (** value = (-1)^sign * (frac / 2^frac_bits) * 2^scale with
          [frac] carrying an explicit leading 1 at bit [frac_bits]. *)

val decode : spec -> t -> decoded

val encode : spec -> sign:int -> scale:int -> frac:int64 -> frac_bits:int ->
  sticky:bool -> t
(** Round-to-nearest-even encode of (-1)^sign * (frac/2^frac_bits) * 2^scale,
    [frac] nonzero with its leading 1 anywhere at or below bit 62;
    [sticky] accounts for discarded lower bits. *)

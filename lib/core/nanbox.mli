(** NaN-boxing of shadow-value references (paper section 2).

    A shadowed value is a signaling NaN whose 50-bit payload carries the
    arena index of the shadow value, plus an FPVM ownership tag bit:

    {v
      63   62........52  51      50    49............0
      sign  exp = 0x7FF  qnan=0  tag=1  arena index
    v}

    Because the quiet bit is clear, any arithmetic consumption of a boxed
    value raises an invalid-operation event and lands in FPVM. Signaling
    NaNs without the tag bit are "universal NaNs" the program produced
    itself (0/0, etc.); they are treated as genuine NaNs, never
    dereferenced. *)

val max_index : int
(** Largest arena index a box can carry (2^50 - 1). *)

val box : int -> int64
(** [box i] encodes arena index [i] as a signaling-NaN bit pattern.
    Raises [Invalid_argument] if [i] is out of range. *)

val unbox : int64 -> int
(** Payload of a boxed value. Only meaningful when {!is_boxed} holds. *)

val is_boxed : int64 -> bool
(** Is this bit pattern one of FPVM's NaN-boxes? *)

val is_foreign_snan : int64 -> bool
(** A signaling NaN that FPVM does not own: the program's "universal
    NaN" (paper, "Limitation: universal NaNs"). *)

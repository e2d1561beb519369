(** Site specialization: the binding-plan table (DESIGN.md section 4e).

    One compiled plan ("superop") per instruction index, keyed by the
    instruction value it was compiled from (physical equality), so a
    trap-and-patch rewrite of the site makes the stored plan unfindable
    and forces a recompile. The payload is a parameter because the
    engine functor's plan closures mention the arithmetic value type.

    Also owns the shadow-temp index space used by in-trace elision:
    NaN-box payloads at or above {!temp_base} denote slots in the
    engine's per-trace scratch buffer, never arena cells. A temp box is
    still a signaling-NaN bit pattern, so native consumers fault on it
    exactly as on a real box. *)

type 'p entry = { shape : Machine.Isa.insn; payload : 'p }
type 'p table = { mutable slots : 'p entry option array }

val create : unit -> 'p table

val find : 'p table -> int -> Machine.Isa.insn -> 'p option
(** The plan at [idx], provided it was compiled from (physically) this
    instruction value. *)

val store : 'p table -> int -> Machine.Isa.insn -> 'p -> unit

val invalidate : 'p table -> int -> bool
(** Drop the plan at [idx]; [true] if one was present. *)

val keys : 'p table -> int list
(** Sites currently holding a plan, ascending — the checkpointable view
    of the table (plans are closures; restore recompiles them). *)

val iter : 'p table -> (int -> 'p -> unit) -> unit
(** Visit every occupied slot, ascending. The trace JIT scans its block
    table with this on a trap-and-patch rewrite: a block touching the
    rewritten site anywhere in its window must drop. *)

(** {1 Shadow-temp index space} *)

val temp_base : int
(** [2^46]: far above any reachable arena index, far below the 50-bit
    payload ceiling. *)

val is_temp_box : int64 -> bool
val temp_slot : int64 -> int
val box_temp : int -> int64

val temp_mask : int64
(** [bits] is the temp box of a slot below {!temp_base} iff
    [Int64.logand bits temp_mask = box_temp 0]; the slot is then the
    low 46 bits. The sign bit is ignored, as {!Nanbox.is_boxed} does. *)

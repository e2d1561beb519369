(** The shadow-value arena (paper section 4.1).

    Stores values of the alternative arithmetic system; NaN-boxes carry
    indices into it. Allocation reuses a free list so indices stay
    dense; the conservative garbage collector drives {!clear_marks} /
    {!mark} / {!sweep}. The cells are a value array and a byte of flags
    per cell (live, mark, young); a cell without a value holds the
    arena's dummy, so {!alloc} stores the value and allocates nothing
    else. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy]: an empty arena of [capacity] cells (default 4,096),
    each holding [dummy] until it is allocated, and again once freed. *)

val alloc : 'a t -> 'a -> int
(** Store a shadow value; returns its index (to be NaN-boxed). Pops the
    free stack first, then takes the next never-used index. *)

val is_live : 'a t -> int -> bool

val value : 'a t -> int -> 'a
(** The value at a live index; the dummy for any other index (a
    dangling box). Allocates nothing. *)

val get : 'a t -> int -> 'a option
(** [None] for never-allocated or swept indices (a dangling box). *)

val mark : 'a t -> int -> unit
(** Mark a cell reachable (no-op on dead indices). *)

val clear_marks : 'a t -> unit

val sweep : 'a t -> int
(** Free every unmarked live cell in index order; returns the number
    freed and clears all marks. Every survivor leaves the young
    generation. *)

val sweep_young : 'a t -> int
(** Incremental sweep: free unmarked cells among those allocated since
    the last sweep only, newest first; older cells are kept until the
    next full {!sweep}. Returns the number freed. *)

val young_count : 'a t -> int
(** Cells allocated since the last sweep (the incremental sweep's
    workload, charged per-cell by the cost model). *)

val free : 'a t -> int -> unit
(** Eagerly free one live cell (used by compiler-inserted shadow-death
    hints); no-op on dead indices. *)

val live_count : 'a t -> int

val next_fresh : 'a t -> int
(** Indices handed out so far: a full sweep visits this many cells. *)

val total_alloc : 'a t -> int
(** Allocations over the run. *)

val total_freed : 'a t -> int
(** Frees over the run. *)

val high_water : 'a t -> int
(** Most cells live at once. *)

(** {1 Checkpoints} *)

val encode : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a t -> unit
(** Append the arena with every live value encoded by the given
    function: capacity, fresh count, one tag byte per fresh cell (bit 0:
    a value follows; bit 1: young), the free and young stacks bottom to
    top, then the counters. *)

val restore : (string -> int ref -> 'a) -> string -> int ref -> 'a t -> unit
(** Read what {!encode} wrote and overwrite the arena with it, keeping
    its dummy. Raises {!Wire.Corrupt} on a capacity below 1 or beyond
    what doubling from this arena's could reach, a tag byte above 3, a
    free entry at or above the fresh count, naming a live cell, or
    repeated, or a young entry at or above the fresh count, not tagged
    young, or repeated; the arena is then left as it was. *)

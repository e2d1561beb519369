(** Instruction decoding with the decode cache (paper section 4.1).

    Lowers a VX64 instruction to the "Capstone-independent"
    representation the emulator consumes: an abstract operation type
    plus width, lane count and operand descriptors. The cache maps
    instruction index -> decoded form so the (modeled, expensive) decode
    runs once per static instruction, amortizing to noise — the paper's
    explanation for decode's absence from the Figure 9 breakdown. *)

type aop =
  | A_arith of Machine.Isa.fp_op
  | A_cmp of { signaling : bool }
  | A_cmppred of Machine.Isa.fp_pred
  | A_round of Machine.Isa.rounding_imm
  | A_f2f  (** to the other width; [w] is the source's *)
  | A_f2i of { truncate : bool; size : int }
  | A_i2f of { size : int }

type decoded = {
  insn : Machine.Isa.insn;  (** the instruction, unwrapped *)
  aop : aop;
  w : Machine.Isa.fp_width;  (** the width of the FP operands read *)
  lanes : int;  (** 1 for scalar, 2 for packed f64 *)
  dst : Machine.Isa.operand;
  src : Machine.Isa.operand;
}

val decode_insn : Machine.Isa.insn -> decoded option
(** Cache-free decode; [None] for instructions FPVM never emulates.
    Unwraps instrumentation wrappers. *)

val inputs : decoded -> Machine.Isa.operand list
(** The operands the instruction reads: [[dst; src]], or [[src]] when
    it only writes [dst] (sqrt, round, the conversions). *)

val fused_inputs : Machine.Isa.insn -> Machine.Isa.operand list option
(** {!inputs} of a scalar binary64 form other than int to float: the
    lane-0 operands whose boxedness forces a native fault, with exactly
    [invalid] when none is subnormal. [None] otherwise: binary32 lanes
    cannot hold a box, int to float has no FP input, and a packed form's
    raw lane beside a boxed one raises its own events. Unwraps
    instrumentation wrappers. *)

type cache = {
  table : (int, decoded) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

val create_cache : unit -> cache

exception Undecodable of int

val decode : cache -> int -> Machine.Isa.insn -> decoded * bool
(** Decode the instruction at an index through the cache; the boolean
    is [true] on a cache hit. Hit/miss counters are bumped inside the
    call, and callers charge decode cycles from the returned flag (not
    by diffing the counters), so interleaved observation hooks cannot
    skew the accounting. Raises {!Undecodable} on non-FP
    instructions. *)

(** {2 Checkpoints} *)

val encode : Buffer.t -> cache -> unit
(** Append the cache: the counters, then the cached indices. *)

val restore : string -> int ref -> cache -> Machine.Isa.insn array -> unit
(** Read what {!encode} wrote and refill the cache by re-decoding each
    index of the array. Decoding unwraps instrumentation, so the entries
    are the same before or after trap-and-patch rewrites are re-applied.
    Raises {!Wire.Corrupt} on an index out of range or one whose
    instruction is not an FP instruction. *)

(** The VX64 interpreter.

    Floating point semantics come from the ieee754 softfloat kernel;
    every FP instruction ORs its exception flags into the sticky %mxcsr
    bits and faults precisely (destination unwritten, RIP still at the
    faulting instruction) when an unmasked event occurs. Moves, xmm
    bitwise operations and integer loads of FP data never fault — the
    x64 coverage holes that force the paper's hybrid static analysis. *)

type outcome =
  | Running
  | Halted
  | Fp_fault of { index : int; events : Ieee754.Flags.t }
      (** unmasked FP exception at instruction [index] *)
  | Correctness_fault of { index : int; original : Isa.insn }
      (** explicit trap inserted by the static analysis *)

exception Invalid_insn of string

(** {1 Operand access}

    Where an FP instruction's operands are read and written: the
    interpreter and FPVM's emulation both go through these. *)

val read_f64 : State.t -> Isa.operand -> int -> int64
(** A binary64 lane of an xmm register or of memory (lane [l] of a
    memory operand is [8 * l] bytes past its address). *)

val write_f64 : State.t -> Isa.operand -> int -> int64 -> unit

val read_fp : State.t -> Isa.fp_width -> Isa.operand -> int -> int64
(** An FP operand at a width: {!read_f64} for binary64; for binary32,
    the bits in the low half of lane 0, zero-extended (binary32 has no
    lanes). *)

val read_int : State.t -> int -> Isa.operand -> int64
(** A [size]-byte integer operand (register, immediate or memory). *)

(** {1 FP semantics} *)

val write_result : State.t -> Isa.insn -> int -> int64 -> unit
(** [write_result st insn lane v] lands FP instruction [insn]'s result
    where native execution puts it: binary64 bits in [lane] of the
    destination, binary32 bits in the low half of lane 0 (the rest
    kept), a converted integer in the whole 64-bit destination. A
    binary64 [Cvt_i2f] into an xmm register also clears lane 1. Raises
    {!Invalid_insn} for an instruction with no FP result. *)

val set_compare_flags : State.t -> Ieee754.Softfp.cmp -> unit
(** The comisd encoding of a comparison in ZF/PF/CF; OF and SF clear. *)

val pred_holds : Isa.fp_pred -> Ieee754.Softfp.cmp -> bool
(** Does a cmpsd predicate hold for this comparison outcome? *)

val round_mode : Isa.rounding_imm -> Ieee754.Softfp.rounding
(** The rounding mode a roundsd immediate selects. *)

val dispatch : State.t -> int -> Isa.insn -> outcome
(** Execute [insn] as the instruction at index [idx]: advances RIP (or
    redirects it for control flow); on a fault RIP is left at the
    faulting instruction and the destination is unwritten. Exposed so
    trap handlers can single-step an original instruction. *)

val step : State.t -> outcome
(** Fetch and dispatch the instruction at the current RIP. *)

val run_native : ?max_insns:int -> State.t -> unit
(** Run to halt with no handler attached — the native baseline. Fails
    if a fault occurs (callers keep exceptions masked) or the
    instruction budget is exceeded. *)

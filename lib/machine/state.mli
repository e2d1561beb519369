(** Machine state: registers, memory, integer flags, %mxcsr, the cycle
    counter, output channels, and the hook points FPVM uses to interpose
    without a kernel trap.

    Memory is one flat little-endian address space of [mem_size] bytes,
    stored as {!page_size} pages written on demand: a page the guest has
    never stored to costs nothing. *)

type hooks = {
  mutable on_checked : (t -> int -> Isa.insn -> bool) option;
      (** static-transform stub fired; return true if FPVM handled the
          instruction (the CPU then skips it) *)
  mutable on_patched : (t -> int -> int -> Isa.insn -> bool) option;
      (** trap-and-patch site fired: state, index, site id, original *)
  mutable on_ext_call : (t -> Isa.ext_fn -> bool) option;
      (** library-call interposition (math wrapper, printf hijack);
          return false for the native behavior *)
  mutable on_free_hint : (t -> Isa.operand -> unit) option;
      (** compiler-inserted shadow-death callback *)
  mutable on_step : (t -> int -> Isa.insn -> unit) option;
      (** observation-only callback fired before every dispatch (the
          soundness oracle rides here); must not mutate state *)
}

and t = {
  pages : Bytes.t array;
      (** memory, one {!page_size} buffer per page (the last may run past
          [mem_size]). Every page starts as one zero page shared by all
          machines and gets its own copy at its first write. Read-only
          outside this module: write through the stores, {!blit_string}
          or {!zero}. *)
  mem_size : int;  (** bytes of address space *)
  gpr : int64 array;  (** 16 general purpose registers *)
  xmm : int64 array;  (** 16 xmm registers x 2 64-bit lanes *)
  mutable track_writes : bool;
      (** write barrier switch: when on, every store records the
          64-byte card(s) it touches for the incremental GC. Set at
          {!create}; a checkpoint restore may reset it. *)
  dirty_map : Bytes.t;  (** one byte per card: 0 clean, 1 dirty *)
  mutable dirty_cards : int list;  (** dirty card indices, deduplicated *)
  mutable dirty_count : int;
  mutable rip : int;  (** instruction index *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
  mutable pf : bool;
  mxcsr : Ieee754.Mxcsr.t;
  mutable cycles : int;
  mutable insn_count : int;
  mutable fp_insn_count : int;
  mutable halted : bool;
  mutable heap_ptr : int;  (** bump-allocator frontier *)
  heap_base : int;
  stack_base : int;  (** initial rsp; the stack grows down from here *)
  out : Buffer.t;  (** printf output *)
  serialized : Buffer.t;  (** Write_f64 binary channel *)
  prog : Program.t;
  cost : Cost_model.t;
  hooks : hooks;
}

val create : ?cost:Cost_model.t -> ?track_writes:bool -> Program.t -> t
(** Fresh machine with the program's data segment loaded, rsp at the
    stack top, %mxcsr at its architectural default (all masked, RNE).
    [~track_writes:true] turns the write barrier on before any store
    (off by default; native runs pay nothing). *)

exception Mem_fault of int

(** {1 Memory access}

    All little-endian. An access of [n] bytes at [a] raises
    [Mem_fault a] unless [0 <= a <= mem_size - n]; a refused store
    changes nothing. *)

val load64 : t -> int -> int64
val store64 : t -> int -> int64 -> unit

val load63 : t -> int -> int
(** [load63 t a] is [Int64.to_int (load64 t a)], the word at [a] as its
    low 63 bits, read without boxing an [int64]: for tests that ignore
    the sign bit. *)

val equal64 : t -> int -> int64 -> bool
(** [equal64 t a v] is [Int64.equal (load64 t a) v], compared in
    place. *)

val load32 : t -> int -> int64
val store32 : t -> int -> int64 -> unit
val load16 : t -> int -> int64
val store16 : t -> int -> int64 -> unit
val load8 : t -> int -> int64
val store8 : t -> int -> int64 -> unit
val load_size : t -> int -> int -> int64
(** [load_size t size addr] for size in 1/2/4/8 bytes. *)

val store_size : t -> int -> int -> int64 -> unit

(** {1 Registers} *)

val get_gpr : t -> Isa.gpr -> int64
val set_gpr : t -> Isa.gpr -> int64 -> unit
val get_xmm : t -> int -> int -> int64
(** [get_xmm t reg lane] with lane 0 or 1. *)

val set_xmm : t -> int -> int -> int64 -> unit

val ea : t -> Isa.mem_addr -> int
(** Effective address of an x64 memory operand under the current
    register values. *)

val add_cycles : t -> int -> unit

val push64 : t -> int64 -> unit
val pop64 : t -> int64

val output : t -> string
val serialized_output : t -> string

val scannable_ranges : t -> (int * int) list
(** The memory spans a conservative GC must scan: globals + live heap,
    and the live stack. *)

(** {1 Write barrier (dirty 64-byte cards)}

    When tracking is on, every store records the card(s) it touches.
    An incremental GC marks from registers plus only the cards dirtied
    since the last pass — O(recent stores) instead of O(writable
    memory). *)

val card_size : int
(** Bytes per card (64). *)

val dirty_cards : t -> int list
(** Cards dirtied since the last {!clear_dirty}, deduplicated. *)

val clear_dirty : t -> unit
(** Reset the dirty set (start of a GC epoch). *)

(** {1 Pages} *)

val page_size : int
(** Bytes per page (4096). *)

val page_shift : int
(** [log2 page_size]. *)

val page_written : t -> int -> bool
(** [page_written t p]: page [p] has its own copy. An unwritten page
    reads as zeros. *)

val iter_span : int -> int -> (int -> int -> int -> int -> unit) -> unit
(** [iter_span a len f] calls [f p off k i] for each page-sized piece of
    the [len] bytes at [a], in address order: [k] bytes at offset [off]
    of page [p], [i] bytes into the span. *)

val blit_string : string -> int -> t -> int -> int -> unit
(** [blit_string s soff t a len] copies [len] bytes of [s] from [soff]
    to address [a], unseen by the write barrier. Raises
    [Invalid_argument] outside [s] or memory. *)

val zero : t -> int -> int -> unit
(** [zero t a len] clears [len] bytes at [a], unseen by the write
    barrier. Unwritten pages already hold zeros and stay unwritten.
    Raises [Invalid_argument] outside memory. *)

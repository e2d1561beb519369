(** Machine state: registers, flat little-endian memory, integer flags,
    %mxcsr, the cycle counter, output channels, and the hook points FPVM
    uses to interpose without a kernel trap. *)

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
  mem : Bytes.t;
  gpr : int64 array;  (** 16 general purpose registers *)
  xmm : int64 array;  (** 16 xmm registers x 2 64-bit lanes *)
  mutable track_writes : bool;
      (** write barrier switch: when on, every store records the
          64-byte card(s) it touches for the incremental GC. Set at
          {!create}; a checkpoint restore may reset it, as it rewrites
          all of memory and marks {!page_map} as it goes. Turned on at
          any other time, stores made while it was off would be missing
          from the page map. *)
  dirty_map : Bytes.t;  (** one byte per card: 0 clean, 1 dirty *)
  mutable dirty_cards : int list;  (** dirty card indices, deduplicated *)
  mutable dirty_count : int;
  page_map : Bytes.t;
      (** one byte per {!page_size} page, never cleared: nonzero once
          the page may hold a nonzero byte (see {!written_pages}) *)
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

(** {1 Memory access} (all little-endian, bounds-checked) *)

val load64 : t -> int -> int64
val store64 : t -> int -> int64 -> unit
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

(** {1 Written pages}

    The barrier also keeps a map of the 4 KiB pages it has seen a store
    to, so a checkpoint can skip pages that still hold only zeros. A
    page is marked for the data segment at {!create}, when a store
    first dirties one of its cards, and when a restored memory image
    writes a nonzero run into it. *)

val page_size : int
(** Bytes per page (4096). *)

val page_shift : int
(** [log2 page_size]. *)

val mark_pages : Bytes.t -> int -> int -> unit
(** [mark_pages map off len] marks every page the [len > 0] bytes at
    [off] touch. *)

val written_pages : t -> Bytes.t option
(** The page map when it is exact: every nonzero byte of memory lies in
    a marked page. [None] when some store may have gone unseen
    (tracking off), and memory must be scanned whole. *)

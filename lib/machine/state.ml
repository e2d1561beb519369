(* Machine state: registers, flat memory, flags, %mxcsr, cycle counter,
   output channels, and the hook points FPVM uses to interpose without a
   kernel trap (inline checks, patched sites, external-call shims). *)

type hooks = {
  mutable on_checked : (t -> int -> Isa.insn -> bool) option;
      (* static-transform stub fired; return true if FPVM emulated the
         instruction (CPU skips it), false to run it natively *)
  mutable on_patched : (t -> int -> int -> Isa.insn -> bool) option;
      (* state, insn index, site_id, original *)
  mutable on_ext_call : (t -> Isa.ext_fn -> bool) option;
      (* return true if interposed (handled); false for native behavior *)
  mutable on_free_hint : (t -> Isa.operand -> unit) option;
      (* compiler-inserted shadow-death callback *)
  mutable on_step : (t -> int -> Isa.insn -> unit) option;
      (* observation-only pre-dispatch callback (the soundness oracle);
         must not mutate state *)
}

and t = {
  mem : Bytes.t;
  gpr : int64 array; (* 16 *)
  xmm : int64 array; (* 16 x 2 lanes *)
  (* write barrier: stores record the 64-byte cards they touch so an
     incremental GC can mark from recent stores instead of rescanning
     all writable memory. Off unless the state is created with it on. *)
  mutable track_writes : bool;
  dirty_map : Bytes.t; (* one byte per card: 0 clean, 1 dirty *)
  mutable dirty_cards : int list; (* deduplicated via dirty_map *)
  mutable dirty_count : int;
  (* one byte per 4 KiB page, never cleared: 1 once the page may hold a
     nonzero byte. Exact only while [track_writes] has been on since
     [create] or the last checkpoint restore (see [written_pages]). *)
  page_map : Bytes.t;
  mutable rip : int; (* instruction index *)
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
  mutable heap_ptr : int;
  heap_base : int;
  stack_base : int;
  out : Buffer.t;
  serialized : Buffer.t;
  prog : Program.t;
  cost : Cost_model.t;
  hooks : hooks;
}

let page_shift = 12
let page_size = 1 lsl page_shift

let mark_pages page_map off len =
  let p0 = off lsr page_shift and p1 = (off + len - 1) lsr page_shift in
  Bytes.fill page_map p0 (p1 - p0 + 1) '\001'

let create ?(cost = Cost_model.r815) ?(track_writes = false)
    (prog : Program.t) : t =
  let mem = Bytes.make prog.mem_size '\000' in
  let page_map =
    Bytes.make ((prog.mem_size + page_size - 1) lsr page_shift) '\000'
  in
  List.iter
    (fun (off, blob) ->
      let len = String.length blob in
      Bytes.blit_string blob 0 mem off len;
      if len > 0 then mark_pages page_map off len)
    prog.data_init;
  let heap_base = ((prog.data_size + 15) / 16 * 16) + 16 in
  let stack_base = prog.mem_size - 16 in
  let gpr = Array.make 16 0L in
  gpr.(Isa.gpr_index Isa.RSP) <- Int64.of_int stack_base;
  { mem;
    gpr;
    xmm = Array.make 32 0L;
    track_writes;
    dirty_map = Bytes.make ((prog.mem_size lsr 6) + 1) '\000';
    dirty_cards = [];
    dirty_count = 0;
    page_map;
    rip = prog.entry;
    zf = false; sf = false; cf = false; of_ = false; pf = false;
    mxcsr = Ieee754.Mxcsr.create ();
    cycles = 0;
    insn_count = 0;
    fp_insn_count = 0;
    halted = false;
    heap_ptr = heap_base;
    heap_base;
    stack_base;
    out = Buffer.create 256;
    serialized = Buffer.create 64;
    prog;
    cost;
    hooks = { on_checked = None; on_patched = None; on_ext_call = None;
              on_free_hint = None; on_step = None } }

exception Mem_fault of int

let check_range t a n =
  if a < 0 || a + n > Bytes.length t.mem then raise (Mem_fault a)

(* ---- write barrier (dirty 64-byte cards) ---- *)

let card_size = 64
let card_shift = 6

let card_page_shift = page_shift - card_shift

(* A card's first store since the last GC epoch also marks its page: a
   store to an already-dirty card finds the page marked. *)
let mark_card t c =
  if Bytes.unsafe_get t.dirty_map c = '\000' then begin
    Bytes.unsafe_set t.dirty_map c '\001';
    Bytes.unsafe_set t.page_map (c lsr card_page_shift) '\001';
    t.dirty_cards <- c :: t.dirty_cards;
    t.dirty_count <- t.dirty_count + 1
  end

(* Record the card(s) an [n]-byte store at [a] touches (a store may
   straddle a card boundary). Called after the bounds check. *)
let mark_write t a n =
  if t.track_writes then begin
    let c0 = a lsr card_shift in
    let c1 = (a + n - 1) lsr card_shift in
    mark_card t c0;
    if c1 <> c0 then mark_card t c1
  end

let dirty_cards t = t.dirty_cards

let clear_dirty t =
  List.iter (fun c -> Bytes.unsafe_set t.dirty_map c '\000') t.dirty_cards;
  t.dirty_cards <- [];
  t.dirty_count <- 0

(* Tracking is switched on only at [create], or by a checkpoint restore
   that rewrites all of memory and marks the pages it writes, so while
   it is on the barrier has seen every store the map must cover. *)
let written_pages t = if t.track_writes then Some t.page_map else None

let load64 t a =
  check_range t a 8;
  Bytes.get_int64_le t.mem a

let store64 t a v =
  check_range t a 8;
  mark_write t a 8;
  Bytes.set_int64_le t.mem a v

let load32 t a =
  check_range t a 4;
  Int64.of_int32 (Bytes.get_int32_le t.mem a)

let store32 t a v =
  check_range t a 4;
  mark_write t a 4;
  Bytes.set_int32_le t.mem a (Int64.to_int32 v)

let load16 t a =
  check_range t a 2;
  Int64.of_int (Bytes.get_uint16_le t.mem a)

let store16 t a v =
  check_range t a 2;
  mark_write t a 2;
  Bytes.set_uint16_le t.mem a (Int64.to_int v land 0xFFFF)

let load8 t a =
  check_range t a 1;
  Int64.of_int (Bytes.get_uint8 t.mem a)

let store8 t a v =
  check_range t a 1;
  mark_write t a 1;
  Bytes.set_uint8 t.mem a (Int64.to_int v land 0xFF)

let load_size t size a =
  match size with
  | 8 -> load64 t a
  | 4 -> load32 t a
  | 2 -> load16 t a
  | 1 -> load8 t a
  | _ -> invalid_arg "load_size"

let store_size t size a v =
  match size with
  | 8 -> store64 t a v
  | 4 -> store32 t a v
  | 2 -> store16 t a v
  | 1 -> store8 t a v
  | _ -> invalid_arg "store_size"

let get_gpr t r = t.gpr.(Isa.gpr_index r)
let set_gpr t r v = t.gpr.(Isa.gpr_index r) <- v

let get_xmm t i lane = t.xmm.((2 * i) + lane)
let set_xmm t i lane v = t.xmm.((2 * i) + lane) <- v

(* Effective address of an x64 memory operand. *)
let ea t (m : Isa.mem_addr) =
  let base = match m.base with Some r -> Int64.to_int (get_gpr t r) | None -> 0 in
  let index =
    match m.index with
    | Some r -> Int64.to_int (get_gpr t r) * m.scale
    | None -> 0
  in
  base + index + m.disp

let add_cycles t n = t.cycles <- t.cycles + n

(* Stack helpers *)
let push64 t v =
  let rsp = Int64.to_int (get_gpr t Isa.RSP) - 8 in
  set_gpr t Isa.RSP (Int64.of_int rsp);
  store64 t rsp v

let pop64 t =
  let rsp = Int64.to_int (get_gpr t Isa.RSP) in
  let v = load64 t rsp in
  set_gpr t Isa.RSP (Int64.of_int (rsp + 8));
  v

let output t = Buffer.contents t.out
let serialized_output t = Buffer.contents t.serialized

(* The memory span a conservative GC must scan: globals + live heap +
   live stack. *)
let scannable_ranges t =
  let rsp = Int64.to_int (get_gpr t Isa.RSP) in
  [ (0, t.heap_ptr); (max 0 (min rsp t.stack_base), t.stack_base) ]

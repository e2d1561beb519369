(* Machine state: registers, memory, flags, %mxcsr, cycle counter,
   output channels, and the hook points FPVM uses to interpose without a
   kernel trap (inline checks, patched sites, external-call shims).

   Memory is one flat little-endian address space stored as 4 KiB pages
   written on demand: every page starts as the shared zero page and gets
   its own zeroed copy at its first store, so a guest pays only for the
   pages it writes, as a process does under a kernel's zero-fill. *)

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
  pages : Bytes.t array;
      (* [page_size] bytes each, the last maybe past [mem_size]; an
         unwritten page is [zero_page], replaced only by [page_for_write] *)
  mem_size : int;
  gpr : int64 array; (* 16 *)
  xmm : int64 array; (* 16 x 2 lanes *)
  (* write barrier: stores record the 64-byte cards they touch so an
     incremental GC can mark from recent stores instead of rescanning
     all writable memory. Off unless the state is created with it on. *)
  mutable track_writes : bool;
  dirty_map : Bytes.t; (* one byte per card: 0 clean, 1 dirty *)
  mutable dirty_cards : int list; (* deduplicated via dirty_map *)
  mutable dirty_count : int;
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
let page_mask = page_size - 1

(* What every unwritten page of every machine is, in every domain. It is
   never written: stores go through [page_for_write]. *)
let zero_page = Bytes.make page_size '\000'

let page_written t p = t.pages.(p) != zero_page

let page_for_write t p =
  let pg = t.pages.(p) in
  if pg != zero_page then pg
  else begin
    let pg = Bytes.make page_size '\000' in
    t.pages.(p) <- pg;
    pg
  end

(* [f p off k i] for each page-sized piece of the [len] bytes at [a]:
   [k] bytes at [off] in page [p], [i] bytes into the span. *)
let iter_span a len f =
  let i = ref 0 in
  while !i < len do
    let x = a + !i in
    let off = x land page_mask in
    let k = min (len - !i) (page_size - off) in
    f (x lsr page_shift) off k !i;
    i := !i + k
  done

let check_span fn t a len =
  if len < 0 || a < 0 || a > t.mem_size - len then invalid_arg fn

let blit_string s soff t a len =
  check_span "State.blit_string" t a len;
  if soff < 0 || soff > String.length s - len then
    invalid_arg "State.blit_string";
  iter_span a len (fun p off k i ->
      Bytes.blit_string s (soff + i) (page_for_write t p) off k)

let zero t a len =
  check_span "State.zero" t a len;
  iter_span a len (fun p off k _ ->
      if page_written t p then Bytes.fill t.pages.(p) off k '\000')

let create ?(cost = Cost_model.r815) ?(track_writes = false)
    (prog : Program.t) : t =
  let heap_base = ((prog.data_size + 15) / 16 * 16) + 16 in
  let stack_base = prog.mem_size - 16 in
  let gpr = Array.make 16 0L in
  gpr.(Isa.gpr_index Isa.RSP) <- Int64.of_int stack_base;
  let t =
    { pages =
        Array.make ((prog.mem_size + page_size - 1) lsr page_shift) zero_page;
      mem_size = prog.mem_size;
      gpr;
      xmm = Array.make 32 0L;
      track_writes;
      dirty_map = Bytes.make ((prog.mem_size lsr 6) + 1) '\000';
      dirty_cards = [];
      dirty_count = 0;
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
  in
  List.iter
    (fun (off, blob) -> blit_string blob 0 t off (String.length blob))
    prog.data_init;
  t

exception Mem_fault of int

(* [a > size - n], not [a + n > size]: the sum wraps for [a] within [n]
   of [max_int]. *)
let check_range t a n =
  if a < 0 || a > t.mem_size - n then raise (Mem_fault a)

(* ---- write barrier (dirty 64-byte cards) ---- *)

let card_size = 64
let card_shift = 6

let mark_card t c =
  if Bytes.unsafe_get t.dirty_map c = '\000' then begin
    Bytes.unsafe_set t.dirty_map c '\001';
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

(* Loads and stores find their page and offset; the bounds check
   leaves the page index in range. An access that straddles two pages
   goes byte by byte. *)
let page t a = Array.unsafe_get t.pages (a lsr page_shift)

(* The [n] bytes at [a], as an unsigned little-endian value. *)
let load_bytes t a n =
  let v = ref 0L in
  for i = n - 1 downto 0 do
    let b = a + i in
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Bytes.get_uint8 (page t b) (b land page_mask)))
  done;
  !v

let store_bytes t a n v =
  for i = 0 to n - 1 do
    let b = a + i in
    Bytes.set_uint8
      (page_for_write t (b lsr page_shift))
      (b land page_mask)
      (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
  done

let load64 t a =
  check_range t a 8;
  let off = a land page_mask in
  if off <= page_size - 8 then Bytes.get_int64_le (page t a) off
  else load_bytes t a 8

(* [Int64.to_int (load64 t a)] and [Int64.equal (load64 t a) v], with
   the word never boxed: the engine tests memory words for temp
   patterns, boxes and subnormals, none of which reads the sign bit the
   int drops, and spill words for an exact pattern. *)
let load63 t a =
  check_range t a 8;
  let off = a land page_mask in
  if off <= page_size - 8 then Int64.to_int (Bytes.get_int64_le (page t a) off)
  else Int64.to_int (load_bytes t a 8)

let equal64 t a v =
  check_range t a 8;
  let off = a land page_mask in
  if off <= page_size - 8 then Int64.equal (Bytes.get_int64_le (page t a) off) v
  else Int64.equal (load_bytes t a 8) v

let store64 t a v =
  check_range t a 8;
  mark_write t a 8;
  let off = a land page_mask in
  if off <= page_size - 8 then
    Bytes.set_int64_le (page_for_write t (a lsr page_shift)) off v
  else store_bytes t a 8 v

let load32 t a =
  check_range t a 4;
  let off = a land page_mask in
  if off <= page_size - 4 then Int64.of_int32 (Bytes.get_int32_le (page t a) off)
  else Int64.of_int32 (Int64.to_int32 (load_bytes t a 4))

let store32 t a v =
  check_range t a 4;
  mark_write t a 4;
  let off = a land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (page_for_write t (a lsr page_shift)) off (Int64.to_int32 v)
  else store_bytes t a 4 v

let load16 t a =
  check_range t a 2;
  let off = a land page_mask in
  if off <= page_size - 2 then Int64.of_int (Bytes.get_uint16_le (page t a) off)
  else load_bytes t a 2

let store16 t a v =
  check_range t a 2;
  mark_write t a 2;
  let off = a land page_mask in
  if off <= page_size - 2 then
    Bytes.set_uint16_le (page_for_write t (a lsr page_shift)) off
      (Int64.to_int v land 0xFFFF)
  else store_bytes t a 2 v

let load8 t a =
  check_range t a 1;
  Int64.of_int (Bytes.get_uint8 (page t a) (a land page_mask))

let store8 t a v =
  check_range t a 1;
  mark_write t a 1;
  Bytes.set_uint8 (page_for_write t (a lsr page_shift)) (a land page_mask)
    (Int64.to_int v land 0xFF)

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

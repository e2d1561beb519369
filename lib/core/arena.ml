(* The shadow-value arena: stores values of the alternative arithmetic
   system, indexed by the 50-bit payload of a NaN-box. A free stack
   keeps indices dense; the conservative GC marks and sweeps cells.

   The cells are a struct of arrays: [vals] holds each cell's value and
   [flags] one byte of state bits per cell. A cell that holds no value
   holds [dummy] instead, so storing a value allocates nothing beyond
   the value itself, and a freed cell drops its value at once.

   The free and young sets are preallocated int stacks (array + depth)
   rather than int lists: alloc/free/sweep are the GC hot path and the
   cons cell per push was measurable churn on the host heap. The stack
   discipline is exactly the old list's LIFO (push = cons, pop = head),
   so allocation index order — which feeds the NaN-box payloads and
   hence every downstream fingerprint — is bit-for-bit unchanged. *)

(* [flags] bits *)
let live_bit = 1
let mark_bit = 2

(* already on the young stack this epoch: an index must appear there at
   most once, or an eager free + slot reuse would make the incremental
   sweep visit it twice — the first visit clears the mark and the
   second would free a live cell *)
let young_bit = 4

type 'a t = {
  dummy : 'a; (* what every cell without a value holds *)
  mutable vals : 'a array;
  mutable flags : Bytes.t;
  mutable next_fresh : int;
  mutable free : int array; (* free-index stack buffer *)
  mutable free_n : int; (* its depth; top of stack = free.(free_n-1) *)
  mutable live : int;
  mutable young : int array;
      (* indices allocated since the last sweep: the only sweep
         candidates of an incremental (dirty-card) GC pass *)
  mutable young_n : int;
  (* statistics *)
  mutable total_alloc : int;
  mutable total_freed : int;
  mutable high_water : int;
}

let create ?(capacity = 4096) dummy =
  { dummy;
    vals = Array.make capacity dummy;
    flags = Bytes.make capacity '\000';
    next_fresh = 0;
    free = Array.make capacity 0;
    free_n = 0;
    live = 0;
    young = Array.make capacity 0;
    young_n = 0;
    total_alloc = 0;
    total_freed = 0;
    high_water = 0 }

(* Callers pass an index below [Bytes.length t.flags]. *)
let[@inline] flag t i = Char.code (Bytes.unsafe_get t.flags i)
let[@inline] set_flag t i f = Bytes.unsafe_set t.flags i (Char.unsafe_chr f)

(* Both stacks hold at most one entry per cell (free: distinct dead
   indices; young: the young bit deduplicates), so sizing them to the
   cell array keeps every push in bounds. *)
let grow t =
  let n = Array.length t.vals in
  let n' = max 1 (2 * n) in
  let vals = Array.make n' t.dummy in
  Array.blit t.vals 0 vals 0 n;
  t.vals <- vals;
  let flags = Bytes.make n' '\000' in
  Bytes.blit t.flags 0 flags 0 n;
  t.flags <- flags;
  let grow_stack a =
    let b = Array.make n' 0 in
    Array.blit a 0 b 0 n;
    b
  in
  t.free <- grow_stack t.free;
  t.young <- grow_stack t.young

let alloc t v : int =
  let idx =
    if t.free_n > 0 then begin
      t.free_n <- t.free_n - 1;
      t.free.(t.free_n)
    end
    else begin
      if t.next_fresh >= Array.length t.vals then grow t;
      let i = t.next_fresh in
      t.next_fresh <- i + 1;
      i
    end
  in
  t.vals.(idx) <- v;
  let f = flag t idx in
  set_flag t idx (live_bit lor young_bit);
  t.live <- t.live + 1;
  if f land young_bit = 0 then begin
    t.young.(t.young_n) <- idx;
    t.young_n <- t.young_n + 1
  end;
  t.total_alloc <- t.total_alloc + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  idx

let is_live t idx =
  idx >= 0 && idx < t.next_fresh && flag t idx land live_bit <> 0

(* Every cell without a value holds the dummy, so no liveness test is
   needed here. *)
let value t idx =
  if idx >= 0 && idx < t.next_fresh then Array.unsafe_get t.vals idx
  else t.dummy

let get t idx : 'a option = if is_live t idx then Some t.vals.(idx) else None

let mark t idx =
  if is_live t idx then set_flag t idx (flag t idx lor mark_bit)

let clear_marks t =
  for i = 0 to t.next_fresh - 1 do
    set_flag t i (flag t i land lnot mark_bit)
  done

let push_free t i =
  t.free.(t.free_n) <- i;
  t.free_n <- t.free_n + 1

(* Free cell [i] if it is live and unmarked, then clear its mark and
   young bits: one sweep visit. Returns 1 if it freed the cell. *)
let sweep_cell t i =
  let f = flag t i in
  set_flag t i (f land live_bit);
  if f land (live_bit lor mark_bit) = live_bit then begin
    t.vals.(i) <- t.dummy;
    set_flag t i 0;
    push_free t i;
    t.live <- t.live - 1;
    t.total_freed <- t.total_freed + 1;
    1
  end
  else 0

(* Sweep unmarked live cells; returns the number freed. Resets the
   young generation: every survivor is now old. *)
let sweep t =
  let freed = ref 0 in
  for i = 0 to t.next_fresh - 1 do
    freed := !freed + sweep_cell t i
  done;
  t.young_n <- 0;
  !freed

(* Incremental sweep: only cells allocated since the last sweep are
   candidates; older cells survive until the next full sweep. Sound
   because any young cell reachable from memory was necessarily stored
   since the last sweep, so its card is dirty and the incremental mark
   saw it. Visits newest-first (top of stack down), matching the old
   list's head-first order, so the free stack fills identically. *)
let sweep_young t =
  let freed = ref 0 in
  for j = t.young_n - 1 downto 0 do
    freed := !freed + sweep_cell t t.young.(j)
  done;
  t.young_n <- 0;
  !freed

let young_count t = t.young_n

(* Eagerly free one cell (compiler-hinted shadow death). The young bit
   stays: the index is still on the young stack. *)
let free t idx =
  if is_live t idx then begin
    t.vals.(idx) <- t.dummy;
    set_flag t idx (flag t idx land young_bit);
    push_free t idx;
    t.live <- t.live - 1;
    t.total_freed <- t.total_freed + 1
  end

let live_count t = t.live
let next_fresh t = t.next_fresh
let total_alloc t = t.total_alloc
let total_freed t = t.total_freed
let high_water t = t.high_water

(* ---- checkpoint encoding --------------------------------------------- *)

(* Capacity, the fresh count, one tag byte per fresh cell (bit 0: holds
   a value, which follows; bit 1: on the young stack), both stacks
   bottom-to-top (depth, then entries), then the counters. *)
let encode enc b t =
  Wire.varint b (Array.length t.vals);
  Wire.varint b t.next_fresh;
  for i = 0 to t.next_fresh - 1 do
    let f = flag t i in
    let young = if f land young_bit <> 0 then 2 else 0 in
    if f land live_bit <> 0 then begin
      Wire.u8 b (1 lor young);
      enc b t.vals.(i)
    end
    else Wire.u8 b young
  done;
  let int_stack a n =
    Wire.varint b n;
    for i = 0 to n - 1 do
      Wire.varint b a.(i)
    done
  in
  int_stack t.free t.free_n;
  int_stack t.young t.young_n;
  Wire.varint b t.live;
  Wire.varint b t.total_alloc;
  Wire.varint b t.total_freed;
  Wire.varint b t.high_water

(* The checksum only proves the bytes are the ones written, so every
   claim that sizes an allocation or names a cell is checked: [alloc]
   trusts the free stack to hold distinct dead cells, and the
   incremental sweep trusts the young stack to hold each young cell
   once. [t] is overwritten only once the whole section has been read. *)
let restore dec s pos t =
  let cap = Wire.r_varint s pos in
  (* one tag byte per fresh cell; the arena only grows by doubling past
     its initial capacity, so [cap] is bounded by both *)
  let next_fresh = Wire.r_count s pos in
  if cap < 1 || cap > max (Array.length t.vals) (2 * next_fresh) then
    Wire.corrupt "arena capacity %d for %d cells" cap next_fresh;
  if next_fresh > cap then Wire.corrupt "arena next_fresh beyond capacity";
  let vals = Array.make cap t.dummy and flags = Bytes.make cap '\000' in
  for i = 0 to next_fresh - 1 do
    let tag = Wire.r_u8 s pos in
    if tag > 3 then Wire.corrupt "arena cell %d has tag %d" i tag;
    if tag land 1 <> 0 then vals.(i) <- dec s pos;
    Bytes.set flags i
      (Char.chr
         ((if tag land 1 <> 0 then live_bit else 0)
         lor if tag land 2 <> 0 then young_bit else 0))
  done;
  (* [ok f] says whether a cell with flags [f] may be on the stack, and
     [bad] names the cells it refuses; the mark bit, clear in every
     restored cell, flags the entries seen *)
  let int_stack what ok bad =
    let n = Wire.r_varint s pos in
    if n < 0 || n > cap then
      Wire.corrupt "arena %s stack depth %d beyond capacity" what n;
    let a = Array.make cap 0 in
    for j = 0 to n - 1 do
      let i = Wire.r_varint s pos in
      if i < 0 || i >= next_fresh then
        Wire.corrupt "arena %s entry %d beyond next_fresh %d" what i
          next_fresh;
      let f = Char.code (Bytes.get flags i) in
      if f land mark_bit <> 0 then
        Wire.corrupt "arena %s entry %d repeats" what i;
      if not (ok f) then Wire.corrupt "arena %s entry %d is %s" what i bad;
      Bytes.set flags i (Char.chr (f lor mark_bit));
      a.(j) <- i
    done;
    for j = 0 to n - 1 do
      let i = a.(j) in
      Bytes.set flags i
        (Char.chr (Char.code (Bytes.get flags i) land lnot mark_bit))
    done;
    (a, n)
  in
  let free, free_n =
    int_stack "free" (fun f -> f land live_bit = 0) "a live cell"
  in
  let young, young_n =
    int_stack "young" (fun f -> f land young_bit <> 0) "not tagged young"
  in
  let live = Wire.r_varint s pos in
  let total_alloc = Wire.r_varint s pos in
  let total_freed = Wire.r_varint s pos in
  let high_water = Wire.r_varint s pos in
  t.vals <- vals;
  t.flags <- flags;
  t.next_fresh <- next_fresh;
  t.free <- free;
  t.free_n <- free_n;
  t.live <- live;
  t.young <- young;
  t.young_n <- young_n;
  t.total_alloc <- total_alloc;
  t.total_freed <- total_freed;
  t.high_water <- high_water

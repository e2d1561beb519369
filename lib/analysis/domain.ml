(* The abstract state of the flow-sensitive pass: per-GPR strided
   intervals with copy provenance, per-xmm cleanliness, abstract memory
   cells (8-byte, 8-aligned) and the taint map — a set of disjoint byte
   intervals each carrying the set of source instructions whose stored
   FP (possibly NaN-boxed) values may live there.

   Strong updates: an exact 8-byte integer store subtracts its interval
   from the taint map (the boxed value is gone); an exact FP store adds
   one.  Imprecise stores only add.

   Copy provenance ties a register to the root memory cell it was loaded
   from (transitively through reg->cell->reg copy chains the -O0-style
   code generator emits), so a compare on a freshly loaded temp can
   refine the *root* cell (e.g. the loop counter slot) at a branch. *)

module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

(* ---- taint spans --------------------------------------------------------- *)

(* byte interval [lo, hi), srcs = contributing source instruction idxs *)
type span = { lo : int; hi : int; srcs : IntSet.t }

(* Invariant of every taint map the analysis builds: sorted by lo,
   pairwise disjoint, all non-empty, and coalesced (no two touching
   spans carry equal provenance).  [taint_add] and [taint_join] rely on
   it to touch only the spans an update meets; [taint_kill] preserves
   it. *)
type taint = span list

let span_equal a b = a.lo = b.lo && a.hi = b.hi && IntSet.equal a.srcs b.srcs

let taint_equal a b =
  a == b || try List.for_all2 span_equal a b with Invalid_argument _ -> false

(* [s] lies inside [t] with no new provenance: adding it changes nothing *)
let covers t s = t.lo <= s.lo && s.hi <= t.hi && (s.srcs == t.srcs || IntSet.subset s.srcs t.srcs)

(* Add [s] to the map [rev_before @ rest], where [rev_before] (reversed)
   holds exactly the spans ending at or before [s.lo].  Every span of
   [rest] that overlaps [s] is absorbed into one merged span, which then
   coalesces with its neighbours; the untouched suffix is shared.
   Returns the new [rev_before] and the merged span consed onto that
   suffix. *)
let add_at rev_before rest s =
  let rec absorb m = function
    | t :: after when t.lo < s.hi ->
        absorb { lo = min m.lo t.lo; hi = max m.hi t.hi; srcs = IntSet.union m.srcs t.srcs } after
    | after -> (m, after)
  in
  let m, after = absorb s rest in
  let rev_before, m =
    match rev_before with
    | l :: rev when l.hi = m.lo && IntSet.equal l.srcs m.srcs ->
        (rev, { lo = l.lo; hi = m.hi; srcs = l.srcs })
    | _ -> (rev_before, m)
  in
  match after with
  | r :: after when m.hi = r.lo && IntSet.equal m.srcs r.srcs ->
      (rev_before, { lo = m.lo; hi = r.hi; srcs = m.srcs } :: after)
  | _ -> (rev_before, m :: after)

(* move the spans ending at or before [lo] from [rest] onto [rev_before] *)
let rec skip_before lo rev_before = function
  | t :: rest when t.hi <= lo -> skip_before lo (t :: rev_before) rest
  | rest -> (rev_before, rest)

let taint_add spans ~lo ~hi ~srcs =
  if hi <= lo then spans
  else begin
    let s = { lo; hi; srcs } in
    match skip_before lo [] spans with
    | _, t :: _ when covers t s -> spans
    | rev_before, rest ->
        let rev_before, rest = add_at rev_before rest s in
        List.rev_append rev_before rest
  end

(* Pointwise removal of [lo, hi); the suffix past [hi] is shared. *)
let taint_kill spans ~lo ~hi =
  let rec go = function
    | s :: _ as spans when s.lo >= hi -> spans
    | s :: rest as spans when s.hi <= lo ->
        let rest' = go rest in
        if rest' == rest then spans else s :: rest'
    | s :: rest ->
        let rest = go rest in
        let rest = if s.hi > hi then { s with lo = hi } :: rest else rest in
        if s.lo < lo then { s with hi = lo } :: rest else rest
    | [] -> []
  in
  if hi <= lo then spans else go spans

(* provenance of any taint overlapping [lo, hi); empty set = untainted *)
let taint_query spans ~lo ~hi =
  let rec go acc = function
    | s :: rest when s.lo < hi -> go (if s.hi <= lo then acc else IntSet.union acc s.srcs) rest
    | _ -> acc
  in
  go IntSet.empty spans

(* The join adds every span of [b] to [a] in order, as one sweep over
   [a]: a span that one span of the accumulator already covers with a
   superset of its sources is a no-op (coverage only grows as spans are
   added), and the rest merge at the sweep position, so each join costs
   one pass over [a] plus the work of the spans that change it.  When
   nothing changes, [a] itself is returned. *)
let taint_join a b =
  if a == b then a
  else begin
    let rec sweep changed rev_before rest = function
      | [] -> if changed then List.rev_append rev_before rest else a
      | s :: b -> (
          match skip_before s.lo rev_before rest with
          | rev_before, (t :: _ as rest) when covers t s -> sweep changed rev_before rest b
          | rev_before, rest ->
              let rev_before, rest = add_at rev_before rest s in
              sweep true rev_before rest b)
    in
    sweep false [] a b
  end

(* ---- registers, cells, compare facts ------------------------------------- *)

type rv = { si : Si.t; copy_of : int option (* root cell address *) }

type cell = { cv : Si.t; cell_copy_of : int option }

(* where a compared operand came from, for branch refinement *)
type origin = { osi : Si.t; oreg : int option (* gpr index *); ocell : int option }

type cmp_info = { ca : origin; cb : origin }

type st = {
  regs : rv array; (* 16 *)
  xmm_clean : bool array; (* 16: whole register provably not NaN-boxed *)
  cells : cell IntMap.t;
  taint : taint;
  cmp : cmp_info option;
}

let top_rv = { si = Si.top; copy_of = None }

let copy_st st =
  { st with regs = Array.copy st.regs; xmm_clean = Array.copy st.xmm_clean }

let rv_equal a b = Si.equal a.si b.si && a.copy_of = b.copy_of

let cell_equal a b = Si.equal a.cv b.cv && a.cell_copy_of = b.cell_copy_of

let equal a b =
  (try Array.for_all2 rv_equal a.regs b.regs with Invalid_argument _ -> false)
  && a.xmm_clean = b.xmm_clean
  && IntMap.equal cell_equal a.cells b.cells
  && taint_equal a.taint b.taint
  && a.cmp = b.cmp

let join_copy a b = if a = b then a else None

let join a b =
  let regs =
    Array.init 16 (fun i ->
        { si = Si.join a.regs.(i).si b.regs.(i).si;
          copy_of = join_copy a.regs.(i).copy_of b.regs.(i).copy_of })
  in
  let xmm_clean = Array.init 16 (fun i -> a.xmm_clean.(i) && b.xmm_clean.(i)) in
  let cells =
    IntMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
            Some { cv = Si.join x.cv y.cv;
                   cell_copy_of = join_copy x.cell_copy_of y.cell_copy_of }
        | _ -> None (* absent = top: join is top *))
      a.cells b.cells
  in
  { regs; xmm_clean; cells; taint = taint_join a.taint b.taint;
    cmp = (if a.cmp = b.cmp then a.cmp else None) }

(* widening point: bounds that grew go to ±∞ (Si.widen); cells must agree
   in both states to survive *)
let widen old nw =
  let regs =
    Array.init 16 (fun i ->
        { si = Si.widen old.regs.(i).si nw.regs.(i).si;
          copy_of = join_copy old.regs.(i).copy_of nw.regs.(i).copy_of })
  in
  let xmm_clean = Array.init 16 (fun i -> old.xmm_clean.(i) && nw.xmm_clean.(i)) in
  let cells =
    IntMap.merge
      (fun _ x y ->
        match (x, y) with
        | Some x, Some y ->
            Some { cv = Si.widen x.cv y.cv;
                   cell_copy_of = join_copy x.cell_copy_of y.cell_copy_of }
        | _ -> None)
      old.cells nw.cells
  in
  { regs; xmm_clean; cells; taint = taint_join old.taint nw.taint;
    cmp = (if old.cmp = nw.cmp then old.cmp else None) }

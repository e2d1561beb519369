(* Site specialization: the binding-plan table.

   After the decode cache has amortized decoding, the remaining
   software cost of every emulation is operand binding and op_map
   dispatch — paid again on every visit to a site even though the
   instruction (and hence the operand shape, lane count and arithmetic
   entry point) never changes. On the first emulation of a program
   point the engine compiles the decoded form into a *plan*: a closure
   ("superop") with all of that pre-resolved. The table here stores one
   plan per instruction index, keyed by the instruction value it was
   compiled from, so any rewrite of the site (trap-and-patch installing
   a [Patched] wrapper) makes the stored plan unfindable and forces a
   recompile.

   The payload type is a parameter: the engine functor's plan closures
   mention the arithmetic type, so the table must be generic.

   This module also owns the shadow-temp index space used by in-trace
   elision (see engine.ml): arena indices at or above [temp_base] are
   never allocated by [Arena] (its capacity is bounded by program
   working sets, orders of magnitude below 2^46), so a NaN-box carrying
   such an index denotes a slot in the engine's per-trace scratch
   buffer rather than an arena cell. Crucially a temp box is still a
   *signaling* NaN bit pattern, so any native consumer faults exactly
   as it would on a real box — elision can never change which
   instructions reach the emulator. *)

type 'p entry = {
  shape : Machine.Isa.insn;
      (* the instruction value the plan was compiled from; compared
         physically, so replacing the site's instruction invalidates *)
  payload : 'p;
}

type 'p table = { mutable slots : 'p entry option array }

let create () = { slots = [||] }

let ensure t n =
  if Array.length t.slots < n then begin
    let slots = Array.make n None in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end

let find t idx (insn : Machine.Isa.insn) =
  if idx < Array.length t.slots then
    match t.slots.(idx) with
    | Some e when e.shape == insn -> Some e.payload
    | _ -> None
  else None

let store t idx (insn : Machine.Isa.insn) payload =
  ensure t (idx + 1);
  t.slots.(idx) <- Some { shape = insn; payload }

(* Drop the plan at [idx]; true if one was present (for the
   invalidation gauge). *)
let invalidate t idx =
  if idx < Array.length t.slots && t.slots.(idx) <> None then begin
    t.slots.(idx) <- None;
    true
  end
  else false

(* Visit every occupied slot, ascending. The trace JIT scans its block
   table with this on a trap-and-patch rewrite: a block touching the
   rewritten site anywhere (not just at its head) must drop. *)
let iter t f =
  Array.iteri
    (fun idx e -> match e with Some e -> f idx e.payload | None -> ())
    t.slots

(* Sites currently holding a plan, ascending — the checkpointable view
   of the table (plans themselves are closures and are recompiled on
   restore, like decode-cache entries are re-decoded). *)
let keys t =
  let acc = ref [] in
  for i = Array.length t.slots - 1 downto 0 do
    if t.slots.(i) <> None then acc := i :: !acc
  done;
  !acc

(* ---- shadow-temp index space ---------------------------------------- *)

let temp_base = 1 lsl 46

let is_temp_box bits = Nanbox.is_boxed bits && Nanbox.unbox bits >= temp_base
let temp_slot bits = Nanbox.unbox bits - temp_base
let box_temp slot = Nanbox.box (temp_base + slot)

(* The bits every temp box of a slot below [temp_base] shares with
   [box_temp 0]: exponent, quiet bit, tag, and the payload bits from
   [temp_base] up. The sign is left out, as [Nanbox.is_boxed] ignores
   it. *)
let temp_mask = 0x7FFF_C000_0000_0000L

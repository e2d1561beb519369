(* Superblock IR: the trace JIT's intermediate form.

   A superblock is the lowered image of one recorded hot trace: the
   dynamic instruction path one trap-delivery window actually executed,
   annotated per step with how the engine should run it when compiled
   (native dispatch or guarded fast emulation) and which guards must
   hold for the compiled execution to remain
   bit-identical to the interpretive trace loop.

   Three guard kinds protect a compiled step:

   - shape: the instruction object at the step's index is still the one
     the trace was lifted from (trap-and-patch rewrites replace the
     object, so physical equality detects staleness — the same keying
     discipline as the binding-plan table);
   - rip: control flow actually arrived at the step's index (a
     conditional branch earlier in the path went the recorded way);
   - taint: a fast-emulated step requires a NaN-boxed (or foreign-sNaN)
     binary64 input, the condition under which native dispatch is
     guaranteed to fault and the interpreter would emulate. An untainted
     operand side-exits to the interpreter, which re-executes the step
     natively — bit-identical, just slower.

   Any guard failure is a side exit: compiled execution stops before
   the step and the interpretive trace loop resumes from the current
   machine state, which the executed prefix left exactly as the
   interpreter would have. *)

module Isa = Machine.Isa

type action =
  | A_native
      (* dispatch natively through the CPU; an (unexpected) FP fault is
         absorbed and emulated in place, as in the interpretive loop *)
  | A_emulate of Isa.operand list
      (* recorded as an absorbed scalar binary64 FP fault: when the
         taint guard holds (some input is boxed), emulate through the
         site's binding plan without dispatching — the fused fast path;
         the list is the FP inputs the guard checks *)

type step = {
  s_index : int;
  s_insn : Isa.insn; (* the shape the step was lifted from *)
  s_action : action;
}

type t = {
  head : int; (* the delivering site the window was headed at *)
  head_insn : Isa.insn; (* shape of the head at lift time (table key) *)
  steps : step array;
  path : (int * bool) array;
      (* the recorded (index, absorbed) window the steps were lifted
         from, kept for checkpoints: closures cannot be serialized, and
         the path plus the restored program re-lower the block exactly *)
  touches : int array;
      (* sorted distinct instruction indices the block executes
         (including the head): a trap-and-patch rewrite of any of them
         stales the block *)
}

(* The binary64 FP inputs whose boxedness forces a native fault — the
   operands a taint guard must check, in lane 0. [None] means the
   instruction is not eligible for guarded fast emulation: binary32
   forms read 32-bit lanes that cannot hold a box, Cvt_i2f has no FP
   input, and a packed form's fault flags accumulate across lanes (a
   raw lane beside a boxed one raises its own events), so only the real
   dispatch reproduces them. *)
let fp_inputs (insn : Isa.insn) : Isa.operand list option =
  match insn with
  | Isa.Fp_arith { w = Isa.F64; packed = false; op = Isa.FSQRT; src; _ } ->
      Some [ src ]
  | Isa.Fp_arith { w = Isa.F64; packed = false; dst; src; _ } ->
      Some [ dst; src ]
  | Isa.Fp_cmp { w = Isa.F64; a; b; _ } -> Some [ a; b ]
  | Isa.Fp_cmppred { w = Isa.F64; dst; src; _ } -> Some [ dst; src ]
  | Isa.Fp_round { w = Isa.F64; dst = _; src; _ } -> Some [ src ]
  | Isa.Cvt_f2f { from_w = Isa.F64; src; _ } -> Some [ src ]
  | Isa.Cvt_f2i { w = Isa.F64; src; _ } -> Some [ src ]
  | _ -> None

let touches_of ~head (steps : step array) : int array =
  let tbl = Hashtbl.create 32 in
  Hashtbl.replace tbl head ();
  Array.iter (fun s -> Hashtbl.replace tbl s.s_index ()) steps;
  let idxs = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
  let a = Array.of_list idxs in
  Array.sort compare a;
  a

let touches_site (t : t) idx =
  let rec bin lo hi =
    if lo > hi then false
    else
      let mid = (lo + hi) / 2 in
      if t.touches.(mid) = idx then true
      else if t.touches.(mid) < idx then bin (mid + 1) hi
      else bin lo (mid - 1)
  in
  bin 0 (Array.length t.touches - 1)

(* Lift one recorded hot path — the (index, absorbed) pairs one
   interpretive trace window actually executed — into a superblock. A
   step recorded as an absorbed FP fault whose instruction has
   checkable scalar binary64 inputs ([fp_inputs]) becomes a guarded
   fast-emulate step (native dispatch on a boxed input is guaranteed to
   fault, so when the taint guard holds, emulating through the site's
   binding plan without dispatching is bit-identical to the
   interpreter). Everything else stays native dispatch: an absorbed
   binary32, packed or int->float fault simply faults and absorbs again
   at run time, exactly as the interpreter would. *)
let of_trace (insns : Isa.insn array) ~(head : int)
    (path : (int * bool) array) : t =
  let lift (idx, absorbed) =
    let insn = insns.(idx) in
    let s_action =
      match (absorbed, fp_inputs insn) with
      | true, Some inputs -> A_emulate inputs
      | _ -> A_native
    in
    { s_index = idx; s_insn = insn; s_action }
  in
  let steps = Array.map lift path in
  { head; head_insn = insns.(head); steps; path;
    touches = touches_of ~head steps }

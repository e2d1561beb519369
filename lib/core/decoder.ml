(* Decoding (paper section 4.1).

   The "Capstone-dependent" layer is the VX64 instruction itself; this
   module lowers it to the Capstone-independent abstract representation
   the rest of FPVM consumes: one of a small set of operation types plus
   width/lane/operand descriptors. A decode cache keyed by instruction
   index amortizes the (modeled, expensive) decode cost to near zero,
   reproducing the paper's observation that decode vanishes from the
   Figure 9 breakdown. *)

type aop =
  | A_arith of Machine.Isa.fp_op
  | A_cmp of { signaling : bool }
  | A_cmppred of Machine.Isa.fp_pred
  | A_round of Machine.Isa.rounding_imm
  | A_f2f (* to the other width *)
  | A_f2i of { truncate : bool; size : int }
  | A_i2f of { size : int }

type decoded = {
  insn : Machine.Isa.insn;
  aop : aop;
  w : Machine.Isa.fp_width;
  lanes : int;
  dst : Machine.Isa.operand;
  src : Machine.Isa.operand;
}

(* Decode one instruction; None for instructions FPVM never emulates. *)
let decode_insn (insn : Machine.Isa.insn) : decoded option =
  let insn = Machine.Program.strip_insn insn in
  match insn with
  | Machine.Isa.Fp_arith { op; w; packed; dst; src } ->
      let lanes = if packed && w = Machine.Isa.F64 then 2 else 1 in
      Some { insn; aop = A_arith op; w; lanes; dst; src }
  | Machine.Isa.Fp_cmp { signaling; w; a; b } ->
      Some { insn; aop = A_cmp { signaling }; w; lanes = 1; dst = a; src = b }
  | Machine.Isa.Fp_cmppred { pred; w; dst; src } ->
      Some { insn; aop = A_cmppred pred; w; lanes = 1; dst; src }
  | Machine.Isa.Fp_round { imm; w; dst; src } ->
      Some { insn; aop = A_round imm; w; lanes = 1; dst; src }
  | Machine.Isa.Cvt_f2f { from_w; dst; src } ->
      Some { insn; aop = A_f2f; w = from_w; lanes = 1; dst; src }
  | Machine.Isa.Cvt_f2i { w; truncate; size; dst; src } ->
      Some { insn; aop = A_f2i { truncate; size }; w; lanes = 1; dst; src }
  | Machine.Isa.Cvt_i2f { w; size; dst; src } ->
      Some { insn; aop = A_i2f { size }; w; lanes = 1; dst; src }
  | _ -> None

let inputs d =
  match d.aop with
  | A_arith Machine.Isa.FSQRT | A_round _ | A_f2f | A_f2i _ | A_i2f _ -> [ d.src ]
  | A_arith _ | A_cmp _ | A_cmppred _ -> [ d.dst; d.src ]

let fused_inputs insn =
  match decode_insn insn with
  | Some { aop = A_i2f _; _ } -> None
  | Some ({ w = Machine.Isa.F64; lanes = 1; _ } as d) -> Some (inputs d)
  | _ -> None

type cache = {
  table : (int, decoded) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create_cache () = { table = Hashtbl.create 256; hits = 0; misses = 0 }

exception Undecodable of int

(* Returns the decoded form plus whether it was a cache hit. Counters
   are bumped here, synchronously with the lookup itself, and the hit
   flag travels with the result: callers charge cycles from the flag
   instead of diffing the counters around the call, so an observation
   hook (the soundness oracle) interleaved between decode and the
   charge can never skew the accounting. *)
let decode cache idx insn : decoded * bool =
  match Hashtbl.find_opt cache.table idx with
  | Some d ->
      cache.hits <- cache.hits + 1;
      (d, true)
  | None -> begin
      cache.misses <- cache.misses + 1;
      match decode_insn insn with
      | Some d ->
          Hashtbl.replace cache.table idx d;
          (d, false)
      | None -> raise (Undecodable idx)
    end

(* ---- checkpoints ------------------------------------------------------ *)

(* The counters, then the cached indices ascending: the decoded entries
   are reproduced by re-decoding. *)
let encode b cache =
  Wire.varint b cache.hits;
  Wire.varint b cache.misses;
  let cached =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) cache.table [])
  in
  Wire.varint b (List.length cached);
  List.iter (Wire.varint b) cached

let restore s pos cache (insns : Machine.Isa.insn array) =
  let hits = Wire.r_varint s pos in
  let misses = Wire.r_varint s pos in
  let n = Wire.r_count s pos in
  let cached = List.init n (fun _ -> Wire.r_varint s pos) in
  Hashtbl.reset cache.table;
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length insns then
        Wire.corrupt "cached decode index %d out of range" i;
      match decode_insn insns.(i) with
      | Some d -> Hashtbl.replace cache.table i d
      | None -> Wire.corrupt "cached decode index %d is not an FP instruction" i)
    cached;
  cache.hits <- hits;
  cache.misses <- misses

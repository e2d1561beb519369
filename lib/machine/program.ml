(* Programs ("binaries") for the VX64 machine, plus the assembler used by
   the workload front-ends and the IR code generator.

   A program owns a mutable instruction array (static patching rewrites
   it), a synthetic byte address for every instruction, and the initial
   contents of the data segment. *)

type t = {
  name : string;
  mutable insns : Isa.insn array;
  addrs : int array; (* synthetic byte address per instruction *)
  data_init : (int * string) list; (* offset, raw little-endian bytes *)
  data_size : int; (* bytes reserved for globals *)
  mem_size : int; (* total memory (globals + heap + stack) *)
  entry : int;
}

let recompute_addrs insns =
  let n = Array.length insns in
  let addrs = Array.make n 0 in
  let a = ref 0x401000 in
  for i = 0 to n - 1 do
    addrs.(i) <- !a;
    a := !a + Isa.insn_length insns.(i)
  done;
  addrs

(* ---- assembler ---------------------------------------------------------- *)

type label = { mutable pos : int }

type fixup = Fix_jmp of int * label | Fix_jcc of int * Isa.cond * label | Fix_call of int * label

type builder = {
  bname : string;
  mutable code : Isa.insn list; (* reversed *)
  mutable ninsns : int;
  mutable fixups : fixup list;
  dbuf : Buffer.t; (* data segment image *)
  bmem_size : int;
}

let create ?(name = "prog") ?(mem_size = 1 lsl 22) () =
  { bname = name; code = []; ninsns = 0; fixups = [];
    dbuf = Buffer.create 4096; bmem_size = mem_size }

let emit b i =
  b.code <- i :: b.code;
  b.ninsns <- b.ninsns + 1

let here b = b.ninsns

let new_label (_ : builder) = { pos = -1 }

let place b l =
  if l.pos >= 0 then invalid_arg "Asm: label placed twice";
  l.pos <- b.ninsns

let jmp b l =
  b.fixups <- Fix_jmp (b.ninsns, l) :: b.fixups;
  emit b (Isa.Jmp (-1))

let jcc b c l =
  b.fixups <- Fix_jcc (b.ninsns, c, l) :: b.fixups;
  emit b (Isa.Jcc (c, -1))

let call b l =
  b.fixups <- Fix_call (b.ninsns, l) :: b.fixups;
  emit b (Isa.Call (-1))

(* Data segment helpers: each returns the byte offset of the blob. *)
let align b n =
  while Buffer.length b.dbuf mod n <> 0 do
    Buffer.add_char b.dbuf '\000'
  done

let data_f64 b (vs : float array) =
  align b 8;
  let off = Buffer.length b.dbuf in
  Array.iter (fun v -> Buffer.add_int64_le b.dbuf (Int64.bits_of_float v)) vs;
  off

let data_i64 b (vs : int64 array) =
  align b 8;
  let off = Buffer.length b.dbuf in
  Array.iter (fun v -> Buffer.add_int64_le b.dbuf v) vs;
  off

let data_zero b bytes =
  align b 8;
  let off = Buffer.length b.dbuf in
  Buffer.add_string b.dbuf (String.make bytes '\000');
  off

let finish b : t =
  let insns = Array.of_list (List.rev b.code) in
  List.iter
    (fun f ->
      match f with
      | Fix_jmp (i, l) ->
          if l.pos < 0 then invalid_arg "Asm: unplaced label";
          insns.(i) <- Isa.Jmp l.pos
      | Fix_jcc (i, c, l) ->
          if l.pos < 0 then invalid_arg "Asm: unplaced label";
          insns.(i) <- Isa.Jcc (c, l.pos)
      | Fix_call (i, l) ->
          if l.pos < 0 then invalid_arg "Asm: unplaced label";
          insns.(i) <- Isa.Call l.pos)
    b.fixups;
  let data = Buffer.contents b.dbuf in
  { name = b.bname;
    insns;
    addrs = recompute_addrs insns;
    data_init = (if data = "" then [] else [ (0, data) ]);
    data_size = max 4096 (String.length data);
    mem_size = b.bmem_size;
    entry = 0 }

let copy t =
  { t with insns = Array.copy t.insns; addrs = Array.copy t.addrs }

(* Unwrap FPVM instrumentation (correctness traps, checked stubs,
   trap-and-patch rewrites) down to the original instruction. *)
let rec strip_insn (i : Isa.insn) =
  match i with
  | Isa.Correctness_trap x | Isa.Checked x | Isa.Patched { original = x; _ } ->
      strip_insn x
  | _ -> i

let stripped_insns t = Array.map strip_insn t.insns

(* NaN-injection harness for the flight-recorder/coach smoke path:
   retarget the [nth] eligible scalar FP instruction (xmm destination,
   counting stripped Fp_arith insns in program order) to a stub
   appended past the end of the binary that overwrites the
   destination with 0/0 before returning — a controlled NaN birth the
   recorder must chain from there to wherever the program carries it.
   Appending keeps every existing jump/call/branch target valid; memory
   destinations are skipped because an rsp-relative one would shift
   under the call's pushed return address. *)
let inject_nan t ~nth =
  if nth < 0 then invalid_arg "inject_nan: nth must be >= 0";
  let n = Array.length t.insns in
  let site = ref (-1) in
  let seen = ref 0 in
  (try
     for i = 0 to n - 1 do
       match strip_insn t.insns.(i) with
       | Isa.Fp_arith { dst = Isa.Xmm _; _ } ->
           if !seen = nth then begin
             site := i;
             raise Exit
           end;
           incr seen
       | _ -> ()
     done
   with Exit -> ());
  if !site < 0 then
    invalid_arg
      (Printf.sprintf
         "inject_nan: program has only %d eligible FP site(s) (asked for #%d)"
         !seen nth);
  let site = !site in
  match strip_insn t.insns.(site) with
  | Isa.Fp_arith { w; dst; _ } ->
      let stub = n in
      let zero = Isa.Fp_arith { op = Isa.FSUB; w; packed = false; dst; src = dst } in
      let nan = Isa.Fp_arith { op = Isa.FDIV; w; packed = false; dst; src = dst } in
      let insns = Array.append t.insns [| zero; nan; Isa.Ret |] in
      insns.(site) <- Isa.Call stub;
      { t with insns; addrs = recompute_addrs insns }
  | _ -> assert false

let disassemble t =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i insn ->
      Buffer.add_string buf
        (Format.asprintf "%4d %08x: %a\n" i t.addrs.(i) Isa.pp_insn insn))
    t.insns;
  Buffer.contents buf

(* The VX64 virtual instruction set: an x64-flavoured ISA carrying the
   SSE scalar/packed floating point subset FPVM cares about, the integer
   and bitwise instructions that make floating point virtualization hard
   (bit reinterpretation, xorpd sign games), and pseudo-instructions for
   external calls (libm, libc I/O, allocation).

   Addresses are byte addresses into one flat little-endian address
   space, which [State] stores as pages written on demand; code lives
   outside memory (Harvard style) but every instruction has a synthetic
   byte length so that code addresses, patch-size constraints, and "is
   this instruction >= 5 bytes" questions behave like x64. *)

type gpr =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

let gpr_index = function
  | RAX -> 0 | RBX -> 1 | RCX -> 2 | RDX -> 3
  | RSI -> 4 | RDI -> 5 | RBP -> 6 | RSP -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let gpr_name = function
  | RAX -> "rax" | RBX -> "rbx" | RCX -> "rcx" | RDX -> "rdx"
  | RSI -> "rsi" | RDI -> "rdi" | RBP -> "rbp" | RSP -> "rsp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10" | R11 -> "r11"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"

(* x64 memory operand: base + index*scale + displacement. *)
type mem_addr = {
  base : gpr option;
  index : gpr option;
  scale : int; (* 1, 2, 4 or 8 *)
  disp : int;
}

let addr ?base ?index ?(scale = 1) disp = { base; index; scale; disp }

type operand =
  | Reg of gpr
  | Xmm of int (* 0..15 *)
  | Imm of int64
  | Mem of mem_addr

(* Floating point operation kinds (the scalar core of the SSE ISA). *)
type fp_op = FADD | FSUB | FMUL | FDIV | FMIN | FMAX | FSQRT

type fp_width = F32 | F64

(* cmppd/cmpsd predicates (subset) *)
type fp_pred = EQ | LT | LE | NEQ | NLT | NLE | ORD | UNORD

type cond = Jz | Jnz | Jl | Jle | Jg | Jge | Jb | Jbe | Ja | Jae | Js | Jns | Jp | Jnp

type int_op = ADD | SUB | IMUL | AND | OR | XOR | SHL | SHR | SAR

type bit_op = BXOR | BAND | BOR | BANDN

(* External functions reachable via Call_ext: the workloads' libm and
   libc surface. FPVM interposes on these (demotion at call sites /
   emulated math / hijacked output). *)
type ext_fn =
  | Sin | Cos | Tan | Asin | Acos | Atan | Atan2 | Exp | Log | Log10
  | Pow | Floor | Ceil | Fabs | Fmod | Hypot | Cbrt | Sinh | Cosh | Tanh
  | Print_f64 (* printf("%.17g\n", xmm0) *)
  | Print_i64 (* printf("%ld\n", rdi) *)
  | Print_str of string
  | Write_f64 (* serialize xmm0 to the output channel (binary) *)
  | Alloc (* rax <- bump-allocate rdi bytes from the heap *)
  | Exit

type rounding_imm = RN | RD | RU | RZ (* roundsd immediates *)

type insn =
  (* --- SSE floating point (trap-capable) --- *)
  | Fp_arith of { op : fp_op; w : fp_width; packed : bool; dst : operand; src : operand }
  | Fp_cmp of { signaling : bool; w : fp_width; a : operand; b : operand }
    (* ucomisd/comisd: sets ZF/PF/CF *)
  | Fp_cmppred of { pred : fp_pred; w : fp_width; dst : operand; src : operand }
    (* cmpsd: writes all-ones/all-zeros mask into dst *)
  | Fp_round of { imm : rounding_imm; w : fp_width; dst : operand; src : operand }
  | Cvt_f2f of { from_w : fp_width; dst : operand; src : operand } (* cvtsd2ss etc *)
  | Cvt_f2i of { w : fp_width; truncate : bool; size : int; dst : operand; src : operand }
    (* cvt(t)sd2si: size 4 or 8, dst gpr *)
  | Cvt_i2f of { w : fp_width; size : int; dst : operand; src : operand }
  (* --- FP-register moves and bit operations (NOT trap-capable) --- *)
  | Mov_f of { w : fp_width; dst : operand; src : operand } (* movsd/movss *)
  | Mov_x of { dst : operand; src : operand } (* movapd: full 128-bit *)
  | Fp_bit of { op : bit_op; dst : operand; src : operand } (* xorpd/andpd/... *)
  | Movq_xr of { dst : gpr; src : int }   (* movq rax, xmm0 : bit reinterpret *)
  | Movq_rx of { dst : int; src : gpr }
  (* --- integer --- *)
  | Mov of { size : int; dst : operand; src : operand } (* 1,2,4,8 bytes *)
  | Lea of { dst : gpr; src : mem_addr }
  | Int_arith of { op : int_op; dst : operand; src : operand }
  | Cmp of { a : operand; b : operand }
  | Test of { a : operand; b : operand }
  | Inc of operand
  | Dec of operand
  | Neg of operand
  | Push of operand
  | Pop of operand
  (* --- control flow --- *)
  | Jmp of int (* target instruction index *)
  | Jcc of cond * int
  | Call of int
  | Ret
  | Call_ext of ext_fn
  | Nop
  | Halt
  (* --- FPVM instrumentation (inserted by analysis/patching, never by
         the assembler front-ends) --- *)
  | Correctness_trap of insn
    (* explicit trap to FPVM before executing the wrapped instruction
       (e9patch-style rewrite of a sink) *)
  | Checked of insn
    (* static-binary-transformation stub: inline NaN-box check around the
       wrapped instruction, calling into FPVM without a kernel trap *)
  | Patched of { site_id : int; original : insn }
    (* trap-and-patch rewrite: patch + custom handler *)
  | Free_hint of operand
    (* compiler-inserted shadow-death callback (section 3.4): the 64-bit
       slot will never be read again, so FPVM may free its shadow value
       immediately instead of waiting for the garbage collector *)

(* Synthetic encoded lengths, used for patchability questions and to make
   the address space realistic. Roughly matched to x64 encodings. *)
let rec insn_length = function
  | Fp_arith { src = Mem _; _ } -> 8
  | Fp_arith _ -> 4
  | Fp_cmp _ -> 4
  | Fp_cmppred _ -> 5
  | Fp_round _ -> 6
  | Cvt_f2f _ | Cvt_f2i _ | Cvt_i2f _ -> 4
  | Mov_f { src = Mem _; _ } | Mov_f { dst = Mem _; _ } -> 8
  | Mov_f _ -> 4
  | Mov_x _ -> 4
  | Fp_bit _ -> 4
  | Movq_xr _ | Movq_rx _ -> 5
  | Mov { src = Imm _; _ } -> 7
  | Mov { src = Mem _; _ } | Mov { dst = Mem _; _ } -> 7
  | Mov _ -> 3
  | Lea _ -> 7
  | Int_arith { src = Imm _; _ } -> 4
  | Int_arith _ -> 3
  | Cmp _ | Test _ -> 3
  | Inc _ | Dec _ | Neg _ -> 3
  | Push _ | Pop _ -> 2
  | Jmp _ -> 5
  | Jcc _ -> 6
  | Call _ -> 5
  | Ret -> 1
  | Call_ext _ -> 5
  | Nop -> 1
  | Halt -> 2
  | Correctness_trap i -> insn_length i (* in-place rewrite *)
  | Free_hint _ -> 5 (* a direct call into the runtime *)
  | Checked i -> insn_length i + 12 (* inline check sequence *)
  | Patched { original; _ } -> insn_length original

(* Does this instruction touch floating point data at all? (Used by the
   static transformation pass.) *)
let is_fp_insn = function
  | Fp_arith _ | Fp_cmp _ | Fp_cmppred _ | Fp_round _ | Cvt_f2f _
  | Cvt_f2i _ | Cvt_i2f _ -> true
  | Mov_f _ | Mov_x _ | Fp_bit _ | Movq_xr _ | Movq_rx _ -> false
  | Mov _ | Lea _ | Int_arith _ | Cmp _ | Test _ | Inc _ | Dec _ | Neg _
  | Push _ | Pop _ | Jmp _ | Jcc _ | Call _ | Ret | Call_ext _ | Nop
  | Halt | Correctness_trap _ | Checked _ | Patched _ | Free_hint _ -> false

(* One printer: [add_insn] appends an instruction's assembly text to a
   buffer, [pp_insn] prints that text, and the artifact cache hashes it. *)
let add_operand b = function
  | Reg r -> Buffer.add_string b (gpr_name r)
  | Xmm i ->
      Buffer.add_string b "xmm";
      Buffer.add_string b (string_of_int i)
  | Imm v ->
      Buffer.add_char b '$';
      Buffer.add_string b (Int64.to_string v)
  | Mem m ->
      Buffer.add_char b '[';
      Option.iter (fun r -> Buffer.add_string b (gpr_name r)) m.base;
      Option.iter
        (fun r ->
          Buffer.add_char b '+';
          Buffer.add_string b (gpr_name r))
        m.index;
      if m.scale > 1 then begin
        Buffer.add_char b '*';
        Buffer.add_string b (string_of_int m.scale)
      end;
      if m.disp >= 0 then Buffer.add_char b '+';
      Buffer.add_string b (string_of_int m.disp);
      Buffer.add_char b ']'

let fp_op_name = function
  | FADD -> "add" | FSUB -> "sub" | FMUL -> "mul" | FDIV -> "div"
  | FMIN -> "min" | FMAX -> "max" | FSQRT -> "sqrt"

let ext_fn_name = function
  | Sin -> "sin" | Cos -> "cos" | Tan -> "tan" | Asin -> "asin"
  | Acos -> "acos" | Atan -> "atan" | Atan2 -> "atan2" | Exp -> "exp"
  | Log -> "log" | Log10 -> "log10" | Pow -> "pow" | Floor -> "floor"
  | Ceil -> "ceil" | Fabs -> "fabs" | Fmod -> "fmod" | Hypot -> "hypot"
  | Cbrt -> "cbrt" | Sinh -> "sinh" | Cosh -> "cosh" | Tanh -> "tanh"
  | Print_f64 -> "printf_f64" | Print_i64 -> "printf_i64"
  | Print_str _ -> "printf_str" | Write_f64 -> "write_f64"
  | Alloc -> "malloc" | Exit -> "exit"

let rec add_insn buf insn =
  let str = Buffer.add_string buf in
  (* " <dst>, <src>" after the mnemonic *)
  let ops dst src =
    Buffer.add_char buf ' ';
    add_operand buf dst;
    str ", ";
    add_operand buf src
  in
  let two name dst src =
    str name;
    ops dst src
  in
  let one name o =
    str name;
    Buffer.add_char buf ' ';
    add_operand buf o
  in
  let wrap i =
    Buffer.add_char buf '{';
    add_insn buf i;
    Buffer.add_char buf '}'
  in
  match insn with
  | Fp_arith { op; w; packed; dst; src } ->
      str (fp_op_name op);
      str (if packed then "p" else "s");
      str (match w with F64 -> "d" | F32 -> "s");
      ops dst src
  | Fp_cmp { signaling; a; b; _ } -> two (if signaling then "comisd" else "ucomisd") a b
  | Fp_cmppred { dst; src; _ } -> two "cmpsd" dst src
  | Fp_round { dst; src; _ } -> two "roundsd" dst src
  | Cvt_f2f { dst; src; _ } -> two "cvtf2f" dst src
  | Cvt_f2i { truncate; dst; src; _ } ->
      two (if truncate then "cvttsd2si" else "cvtsd2si") dst src
  | Cvt_i2f { dst; src; _ } -> two "cvtsi2sd" dst src
  | Mov_f { dst; src; _ } -> two "movsd" dst src
  | Mov_x { dst; src } -> two "movapd" dst src
  | Fp_bit { op; dst; src } ->
      two
        (match op with BXOR -> "xorpd" | BAND -> "andpd" | BOR -> "orpd" | BANDN -> "andnpd")
        dst src
  | Movq_xr { dst; src } ->
      str "movq ";
      str (gpr_name dst);
      str ", xmm";
      str (string_of_int src)
  | Movq_rx { dst; src } ->
      str "movq xmm";
      str (string_of_int dst);
      str ", ";
      str (gpr_name src)
  | Mov { size; dst; src } ->
      str "mov";
      str (string_of_int size);
      ops dst src
  | Lea { dst; src } -> two "lea" (Reg dst) (Mem src)
  | Int_arith { op; dst; src } ->
      two
        (match op with
        | ADD -> "add" | SUB -> "sub" | IMUL -> "imul" | AND -> "and"
        | OR -> "or" | XOR -> "xor" | SHL -> "shl" | SHR -> "shr" | SAR -> "sar")
        dst src
  | Cmp { a; b } -> two "cmp" a b
  | Test { a; b } -> two "test" a b
  | Inc o -> one "inc" o
  | Dec o -> one "dec" o
  | Neg o -> one "neg" o
  | Push o -> one "push" o
  | Pop o -> one "pop" o
  | Jmp t ->
      str "jmp ";
      str (string_of_int t)
  | Jcc (c, t) ->
      str "j";
      str
        (match c with
        | Jz -> "z" | Jnz -> "nz" | Jl -> "l" | Jle -> "le" | Jg -> "g"
        | Jge -> "ge" | Jb -> "b" | Jbe -> "be" | Ja -> "a" | Jae -> "ae"
        | Js -> "s" | Jns -> "ns" | Jp -> "p" | Jnp -> "np");
      Buffer.add_char buf ' ';
      str (string_of_int t)
  | Call t ->
      str "call ";
      str (string_of_int t)
  | Ret -> str "ret"
  | Call_ext f ->
      str "call ";
      str (ext_fn_name f);
      str "@plt"
  | Nop -> str "nop"
  | Halt -> str "hlt"
  | Correctness_trap i ->
      str "fpvm.trap";
      wrap i
  | Checked i ->
      str "fpvm.check";
      wrap i
  | Patched { site_id; original } ->
      str "fpvm.patch#";
      str (string_of_int site_id);
      wrap original
  | Free_hint o -> one "fpvm.free" o

let pp_insn fmt insn =
  let b = Buffer.create 32 in
  add_insn b insn;
  Format.pp_print_string fmt (Buffer.contents b)

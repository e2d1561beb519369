(* The VX64 virtual instruction set: an x64-flavoured ISA carrying the
   SSE scalar/packed floating point subset FPVM cares about, the integer
   and bitwise instructions that make floating point virtualization hard
   (bit reinterpretation, xorpd sign games), and pseudo-instructions for
   external calls (libm, libc I/O, allocation).

   Addresses are byte addresses into a flat little-endian memory; code
   lives outside memory (Harvard style) but every instruction has a
   synthetic byte length so that code addresses, patch-size constraints,
   and "is this instruction >= 5 bytes" questions behave like x64. *)

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

let pp_operand fmt = function
  | Reg r -> Format.pp_print_string fmt (gpr_name r)
  | Xmm i -> Format.fprintf fmt "xmm%d" i
  | Imm v -> Format.fprintf fmt "$%Ld" v
  | Mem m ->
      Format.fprintf fmt "[%s%s%s%+d]"
        (match m.base with Some b -> gpr_name b | None -> "")
        (match m.index with Some i -> "+" ^ gpr_name i | None -> "")
        (if m.scale > 1 then Printf.sprintf "*%d" m.scale else "")
        m.disp

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

let rec pp_insn fmt = function
  | Fp_arith { op; w; packed; dst; src } ->
      Format.fprintf fmt "%s%s%s %a, %a" (fp_op_name op)
        (if packed then "p" else "s")
        (match w with F64 -> "d" | F32 -> "s")
        pp_operand dst pp_operand src
  | Fp_cmp { signaling; a; b; _ } ->
      Format.fprintf fmt "%scomisd %a, %a"
        (if signaling then "" else "u")
        pp_operand a pp_operand b
  | Fp_cmppred { dst; src; _ } ->
      Format.fprintf fmt "cmpsd %a, %a" pp_operand dst pp_operand src
  | Fp_round { dst; src; _ } ->
      Format.fprintf fmt "roundsd %a, %a" pp_operand dst pp_operand src
  | Cvt_f2f { dst; src; _ } ->
      Format.fprintf fmt "cvtf2f %a, %a" pp_operand dst pp_operand src
  | Cvt_f2i { truncate; dst; src; _ } ->
      Format.fprintf fmt "cvt%ssd2si %a, %a"
        (if truncate then "t" else "")
        pp_operand dst pp_operand src
  | Cvt_i2f { dst; src; _ } ->
      Format.fprintf fmt "cvtsi2sd %a, %a" pp_operand dst pp_operand src
  | Mov_f { dst; src; _ } ->
      Format.fprintf fmt "movsd %a, %a" pp_operand dst pp_operand src
  | Mov_x { dst; src } ->
      Format.fprintf fmt "movapd %a, %a" pp_operand dst pp_operand src
  | Fp_bit { op; dst; src } ->
      Format.fprintf fmt "%spd %a, %a"
        (match op with BXOR -> "xor" | BAND -> "and" | BOR -> "or" | BANDN -> "andn")
        pp_operand dst pp_operand src
  | Movq_xr { dst; src } ->
      Format.fprintf fmt "movq %s, xmm%d" (gpr_name dst) src
  | Movq_rx { dst; src } ->
      Format.fprintf fmt "movq xmm%d, %s" dst (gpr_name src)
  | Mov { size; dst; src } ->
      Format.fprintf fmt "mov%d %a, %a" size pp_operand dst pp_operand src
  | Lea { dst; src } ->
      Format.fprintf fmt "lea %s, %a" (gpr_name dst) pp_operand (Mem src)
  | Int_arith { op; dst; src } ->
      Format.fprintf fmt "%s %a, %a"
        (match op with
        | ADD -> "add" | SUB -> "sub" | IMUL -> "imul" | AND -> "and"
        | OR -> "or" | XOR -> "xor" | SHL -> "shl" | SHR -> "shr" | SAR -> "sar")
        pp_operand dst pp_operand src
  | Cmp { a; b } -> Format.fprintf fmt "cmp %a, %a" pp_operand a pp_operand b
  | Test { a; b } -> Format.fprintf fmt "test %a, %a" pp_operand a pp_operand b
  | Inc o -> Format.fprintf fmt "inc %a" pp_operand o
  | Dec o -> Format.fprintf fmt "dec %a" pp_operand o
  | Neg o -> Format.fprintf fmt "neg %a" pp_operand o
  | Push o -> Format.fprintf fmt "push %a" pp_operand o
  | Pop o -> Format.fprintf fmt "pop %a" pp_operand o
  | Jmp t -> Format.fprintf fmt "jmp %d" t
  | Jcc (c, t) ->
      Format.fprintf fmt "j%s %d"
        (match c with
        | Jz -> "z" | Jnz -> "nz" | Jl -> "l" | Jle -> "le" | Jg -> "g"
        | Jge -> "ge" | Jb -> "b" | Jbe -> "be" | Ja -> "a" | Jae -> "ae"
        | Js -> "s" | Jns -> "ns" | Jp -> "p" | Jnp -> "np")
        t
  | Call t -> Format.fprintf fmt "call %d" t
  | Ret -> Format.pp_print_string fmt "ret"
  | Call_ext f -> Format.fprintf fmt "call %s@plt" (ext_fn_name f)
  | Nop -> Format.pp_print_string fmt "nop"
  | Halt -> Format.pp_print_string fmt "hlt"
  | Correctness_trap i -> Format.fprintf fmt "fpvm.trap{%a}" pp_insn i
  | Checked i -> Format.fprintf fmt "fpvm.check{%a}" pp_insn i
  | Patched { site_id; original } ->
      Format.fprintf fmt "fpvm.patch#%d{%a}" site_id pp_insn original
  | Free_hint o -> Format.fprintf fmt "fpvm.free %a" pp_operand o

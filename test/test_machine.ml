(* VX64 machine tests: instruction semantics against expected values,
   program-level runs with output checks, fault generation under unmasked
   %mxcsr, the kernel signal path, and paged memory against a flat
   model. *)

open Machine

let xmm n = Isa.Xmm n
let reg r = Isa.Reg r
let imm v = Isa.Imm v
let immi v = Isa.Imm (Int64.of_int v)

let run_prog ?(cost = Cost_model.r815) prog =
  let st = State.create ~cost prog in
  Cpu.run_native st;
  st

let check_out name expected st =
  Alcotest.(check string) name expected (State.output st)

let simple_tests =
  [ Alcotest.test_case "fp arithmetic and print" `Quick (fun () ->
        let b = Program.create ~name:"t" () in
        let c0 = Program.data_f64 b [| 1.5; 2.25; 3.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c0) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c0 + 8)) });
        Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c0 + 16)) });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "result" "11.25\n" st);
    Alcotest.test_case "array sum loop" `Quick (fun () ->
        let b = Program.create () in
        let arr = Program.data_f64 b (Array.init 10 (fun i -> float_of_int (i + 1))) in
        (* rax = i, xmm0 = acc *)
        Program.emit b (Isa.Int_arith { op = Isa.XOR; dst = reg Isa.RAX; src = reg Isa.RAX });
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 0; src = xmm 0 });
        let loop = Program.new_label b in
        Program.place b loop;
        Program.emit b
          (Isa.Fp_arith
             { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0;
               src = Isa.Mem (Isa.addr ~index:Isa.RAX ~scale:8 arr) });
        Program.emit b (Isa.Inc (reg Isa.RAX));
        Program.emit b (Isa.Cmp { a = reg Isa.RAX; b = immi 10 });
        Program.jcc b Isa.Jl loop;
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "sum" "55\n" st);
    Alcotest.test_case "factorial via imul" `Quick (fun () ->
        let b = Program.create () in
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RAX; src = immi 1 });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 10 });
        let loop = Program.new_label b in
        Program.place b loop;
        Program.emit b (Isa.Int_arith { op = Isa.IMUL; dst = reg Isa.RAX; src = reg Isa.RCX });
        Program.emit b (Isa.Dec (reg Isa.RCX));
        Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 0 });
        Program.jcc b Isa.Jg loop;
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = reg Isa.RAX });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "10!" "3628800\n" st);
    Alcotest.test_case "call/ret with stack" `Quick (fun () ->
        let b = Program.create () in
        let fn = Program.new_label b in
        let over = Program.new_label b in
        Program.jmp b over;
        Program.place b fn;
        Program.emit b
          (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = xmm 0 });
        Program.emit b Isa.Ret;
        Program.place b over;
        let c = Program.data_f64 b [| 3.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.call b fn;
        Program.call b fn;
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "(3^2)^2" "81\n" st);
    Alcotest.test_case "comisd branching" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 1.0; 2.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 1; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Fp_cmp { signaling = false; w = Isa.F64; a = xmm 0; b = xmm 1 });
        let ge = Program.new_label b in
        Program.jcc b Isa.Jae ge;
        Program.emit b (Isa.Call_ext (Isa.Print_str "less\n"));
        Program.emit b Isa.Halt;
        Program.place b ge;
        Program.emit b (Isa.Call_ext (Isa.Print_str "geq\n"));
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "branch" "less\n" st);
    Alcotest.test_case "cvt roundtrip" `Quick (fun () ->
        let b = Program.create () in
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RBX; src = immi 42 });
        Program.emit b (Isa.Cvt_i2f { w = Isa.F64; size = 8; dst = xmm 0; src = reg Isa.RBX });
        Program.emit b (Isa.Cvt_f2i { w = Isa.F64; truncate = true; size = 8; dst = reg Isa.RDI; src = xmm 0 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "42" "42\n" st);
    Alcotest.test_case "xorpd sign flip" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 2.5 |] in
        let m = Program.data_f64 b [| -0.0; -0.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 0; src = Isa.Mem (Isa.addr m) });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "negated" "-2.5\n" st);
    Alcotest.test_case "movq bit reinterpretation" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 1.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Movq_xr { dst = Isa.RDI; src = 0 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "bits of 1.0" "4607182418800017408\n" st);
    Alcotest.test_case "packed add (both lanes)" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 1.0; 10.0; 2.0; 20.0 |] in
        Program.emit b (Isa.Mov_x { dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = true; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 16)) });
        Program.emit b (Isa.Call_ext Isa.Print_f64); (* lane 0 *)
        (* move lane 1 down via memory *)
        let tmp = Program.data_zero b 16 in
        Program.emit b (Isa.Mov_x { dst = Isa.Mem (Isa.addr tmp); src = xmm 0 });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr (tmp + 8)) });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "lanes" "3\n30\n" st);
    Alcotest.test_case "alloc bump allocator" `Quick (fun () ->
        let b = Program.create () in
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = immi 64 });
        Program.emit b (Isa.Call_ext Isa.Alloc);
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RBX; src = reg Isa.RAX });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = immi 64 });
        Program.emit b (Isa.Call_ext Isa.Alloc);
        (* distance between the two allocations *)
        Program.emit b (Isa.Int_arith { op = Isa.SUB; dst = reg Isa.RAX; src = reg Isa.RBX });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = reg Isa.RAX });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        check_out "alloc distance" "64\n" st)
  ]

(* ---- fault generation and kernel delivery --- *)

let fault_tests =
  [ Alcotest.test_case "inexact faults when unmasked" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b Isa.Halt;
        let st = State.create (Program.finish b) in
        Ieee754.Mxcsr.unmask_all st.State.mxcsr;
        (* first insn (mov) runs fine *)
        Alcotest.(check bool) "mov ok" true (Cpu.step st = Cpu.Running);
        (match Cpu.step st with
        | Cpu.Fp_fault { index; events } ->
            Alcotest.(check int) "fault index" 1 index;
            Alcotest.(check bool) "inexact" true
              (Ieee754.Flags.mem ~flag:Ieee754.Flags.inexact events)
        | _ -> Alcotest.fail "expected Fp_fault");
        (* destination must be unwritten (precise fault) *)
        Alcotest.(check (float 0.0)) "dst unwritten" 0.1
          (Int64.float_of_bits (State.get_xmm st 0 0)));
    Alcotest.test_case "masked run sets sticky flags only" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 1.0; 3.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FDIV; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        Alcotest.(check bool) "PE sticky" true
          (Ieee754.Flags.mem ~flag:Ieee754.Flags.inexact
             (Ieee754.Mxcsr.flags st.State.mxcsr)));
    Alcotest.test_case "kernel delivers SIGFPE to handler" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let st = State.create (Program.finish b) in
        Ieee754.Mxcsr.unmask_all st.State.mxcsr;
        let kern = Trapkern.create () in
        let hits = ref 0 in
        Trapkern.install_sigfpe kern (fun st frame ->
            incr hits;
            (* emulate: write 0.5 to the destination and skip the insn *)
            State.set_xmm st 0 0 (Int64.bits_of_float 0.5);
            Ieee754.Mxcsr.clear_flags st.State.mxcsr;
            st.State.rip <- frame.Trapkern.fault_index + 1);
        Trapkern.run kern st;
        Alcotest.(check int) "one trap" 1 !hits;
        Alcotest.(check int) "kernel count" 1 kern.Trapkern.fpe_count;
        Alcotest.(check string) "handler result used" "0.5\n" (State.output st);
        Alcotest.(check bool) "cycles charged" true
          (kern.Trapkern.user_cycles > 0));
    Alcotest.test_case "deployment costs ordered" `Quick (fun () ->
        let cost = Cost_model.r815 in
        let user = Cost_model.delivery_cost cost Cost_model.User_signal in
        let kern = Cost_model.delivery_cost cost Cost_model.Kernel_module in
        let uu = Cost_model.delivery_cost cost Cost_model.User_to_user in
        Alcotest.(check bool) "user > kernel" true (user > kern);
        Alcotest.(check bool) "kernel > uu" true (kern > uu);
        (* paper: kernel delivery is 7-30x cheaper than user delivery *)
        let ratio = float_of_int user /. float_of_int kern in
        Alcotest.(check bool) "ratio in band" true (ratio >= 2.0 && ratio <= 30.0));
    Alcotest.test_case "correctness trap delivered as SIGTRAP" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 7.0 |] in
        Program.emit b
          (Isa.Correctness_trap
             (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr c) }));
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let st = State.create (Program.finish b) in
        let kern = Trapkern.create () in
        Trapkern.install_sigtrap kern (fun st frame ->
            (* no demotion needed; single-step the original *)
            ignore (Cpu.dispatch st frame.Trapkern.trap_index frame.Trapkern.original));
        Trapkern.run kern st;
        Alcotest.(check string) "bits of 7.0" "4619567317775286272\n"
          (State.output st))
  ]

let cycle_tests =
  [ Alcotest.test_case "cycles accumulate" `Quick (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 1.0; 2.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FDIV; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b Isa.Halt;
        let st = run_prog (Program.finish b) in
        Alcotest.(check bool) "div cost" true
          (st.State.cycles >= Cost_model.r815.Cost_model.fp_div);
        Alcotest.(check int) "insn count" 3 st.State.insn_count;
        Alcotest.(check int) "fp insn count" 1 st.State.fp_insn_count);
    Alcotest.test_case "disassembler prints" `Quick (fun () ->
        let b = Program.create () in
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = xmm 1 });
        Program.emit b Isa.Halt;
        let d = Program.disassemble (Program.finish b) in
        Alcotest.(check bool) "contains addsd" true
          (try ignore (Str.search_forward (Str.regexp_string "addsd") d 0); true
           with Not_found -> false))
  ]

(* ---- the instruction printer ----

   [Isa.add_insn] writes an instruction's text into a buffer, and both
   [Isa.pp_insn] and the artifact cache's content digests use it. It
   replaced a [Format] printer; that printer is kept here as the oracle,
   and the two must agree on every instruction of the stock programs at
   both scales, their instrumented builds, every such instruction wrapped
   in each instrumentation form, a few operand edge cases and 200
   generated programs. *)

module Old_printer = struct
  open Isa

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
end

let printer_inputs () =
  let stock =
    List.concat_map
      (fun (e : Workloads.entry) ->
        List.concat_map
          (fun scale -> [ e.Workloads.program scale; e.Workloads.instrumented scale ])
          [ Workloads.Test; Workloads.S ])
      Workloads.all
  in
  let generated =
    List.map (fun p -> Fpvm_ir.Codegen.compile_program p)
      (QCheck.Gen.generate ~rand:(Random.State.make [| 0xFAC75 |]) ~n:200
         Random_program.gen_program)
  in
  let insns =
    List.concat_map (fun (p : Program.t) -> Array.to_list p.Program.insns) (stock @ generated)
  in
  let edge =
    let m ?base ?index ?scale disp = Isa.Mem (Isa.addr ?base ?index ?scale disp) in
    [ Isa.Mov { size = 8; dst = m 0; src = imm Int64.min_int };
      Isa.Mov { size = 4; dst = m ~index:Isa.R15 ~scale:8 (-8); src = imm Int64.max_int };
      Isa.Lea { dst = Isa.RSP; src = Isa.addr ~base:Isa.RBP ~index:Isa.RAX ~scale:2 max_int };
      Isa.Free_hint (m ~base:Isa.R9 min_int);
      Isa.Call_ext (Isa.Print_str "x y");
      Isa.Jcc (Isa.Jnp, -1) ]
  in
  let base = insns @ edge in
  base
  @ List.concat
      (List.mapi
         (fun i insn ->
           [ Isa.Correctness_trap insn; Isa.Checked insn;
             Isa.Patched { site_id = i; original = insn } ])
         base)

let printer_tests =
  [ Alcotest.test_case "add_insn = the Format printer it replaced" `Quick (fun () ->
        let inputs = printer_inputs () in
        let bad =
          List.filter
            (fun i ->
              Format.asprintf "%a" Old_printer.pp_insn i
              <> Format.asprintf "%a" Isa.pp_insn i)
            inputs
        in
        Alcotest.(check (list string)) "instructions printed differently" []
          (List.map (Format.asprintf "%a" Old_printer.pp_insn) bad);
        Alcotest.(check bool) "stock, instrumented and generated programs gathered" true
          (List.length inputs > 10_000)) ]

(* ---- memory --- *)

(* Seventeen pages, the last one partial, with a data segment. *)
let mem_prog =
  let b = Program.create ~name:"mem" ~mem_size:((16 * State.page_size) + 24) () in
  ignore (Program.data_f64 b [| 1.5; -2.0 |]);
  Program.emit b Isa.Halt;
  Program.finish b

let mem_size = mem_prog.Program.mem_size
let widths = [ 1; 2; 4; 8 ]

(* The written pages, each with its bytes. *)
let written st =
  List.filter_map
    (fun p ->
      if State.page_written st p then Some (p, Bytes.to_string st.State.pages.(p))
      else None)
    (List.init (Array.length st.State.pages) Fun.id)

(* Addresses no access of [n] bytes may reach: below zero, past the
   end, and within [n] of [max_int], where [a + n] wraps. *)
let wild_addresses n =
  [ -1; min_int; mem_size - n + 1 ] @ List.init 8 (fun k -> max_int - k)

(* The model: one flat [Bytes.t] with the data segment loaded, loads
   sign-extending 32 bits and zero-extending 16 and 8, stores
   truncating. *)
let flat_create (prog : Program.t) =
  let m = Bytes.make prog.Program.mem_size '\000' in
  List.iter
    (fun (off, blob) -> Bytes.blit_string blob 0 m off (String.length blob))
    prog.Program.data_init;
  m

let flat_load m n a =
  match n with
  | 8 -> Bytes.get_int64_le m a
  | 4 -> Int64.of_int32 (Bytes.get_int32_le m a)
  | 2 -> Int64.of_int (Bytes.get_uint16_le m a)
  | _ -> Int64.of_int (Bytes.get_uint8 m a)

let flat_store m n a v =
  match n with
  | 8 -> Bytes.set_int64_le m a v
  | 4 -> Bytes.set_int32_le m a (Int64.to_int32 v)
  | 2 -> Bytes.set_uint16_le m a (Int64.to_int v land 0xFFFF)
  | _ -> Bytes.set_uint8 m a (Int64.to_int v land 0xFF)

type access = Load of int * int | Store of int * int * int64

(* Accesses leaning toward a few page edges (straddling ones included),
   so loads often meet earlier stores there, and toward the ends of the
   first and last page. *)
let arb_accesses =
  let ps = State.page_size in
  let open QCheck.Gen in
  let access =
    oneofl widths >>= fun n ->
    let addr =
      frequency
        [ (4, map2 (fun p d -> (p * ps) + d) (oneofl [ 1; 8; 16 ]) (int_range (-8) 8));
          (2, int_bound 32);
          (2, map (fun d -> mem_size - n - d) (int_bound 32));
          (1, int_bound (mem_size - n)) ]
    in
    let a = map (fun a -> max 0 (min a (mem_size - n))) addr in
    let value = oneof [ return 0L; map Int64.of_int small_signed_int; ui64 ] in
    frequency
      [ (1, map (fun a -> Load (n, a)) a);
        (1, map2 (fun a v -> Store (n, a, v)) a value) ]
  in
  QCheck.make
    ~print:(fun (track, ops) ->
      Printf.sprintf "track %b: %s" track
        (String.concat "; "
           (List.map
              (function
                | Load (n, a) -> Printf.sprintf "ld%d %d" n a
                | Store (n, a, v) -> Printf.sprintf "st%d %d %Ld" n a v)
              ops)))
    (pair bool (list_size (int_bound 60) access))

let same_as_flat (track_writes, ops) =
  let st = State.create ~track_writes mem_prog in
  let m = flat_create mem_prog in
  let ok = ref true in
  List.iter
    (function
      | Load (n, a) ->
          let pages = written st in
          if State.load_size st n a <> flat_load m n a || written st <> pages then
            ok := false
      | Store (n, a, v) ->
          State.store_size st n a v;
          flat_store m n a v)
    ops;
  for a = 0 to mem_size - 1 do
    if State.load8 st a <> flat_load m 1 a then ok := false
  done;
  (* a fresh machine still reads its initial bytes wherever this one
     stored: no store reached the shared zero page *)
  let fresh = State.create mem_prog and init = flat_create mem_prog in
  List.iter
    (function
      | Store (n, a, _) ->
          for b = a to a + n - 1 do
            if State.load8 fresh b <> flat_load init 1 b then ok := false
          done
      | Load _ -> ())
    ops;
  !ok

let memory_tests =
  [ Alcotest.test_case "wild addresses fault, tracked or not" `Quick (fun () ->
        List.iter
          (fun track_writes ->
            let st = State.create ~track_writes mem_prog in
            let before = written st in
            List.iter
              (fun n ->
                List.iter
                  (fun a ->
                    let faults what f =
                      match f () with
                      | _ -> Alcotest.failf "%s%d at %d accepted" what n a
                      | exception State.Mem_fault a' ->
                          Alcotest.(check int) (Printf.sprintf "%s%d fault address" what n) a a'
                    in
                    faults "load" (fun () -> ignore (State.load_size st n a));
                    faults "store" (fun () -> State.store_size st n a 0x1122334455667788L))
                  (wild_addresses n))
              widths;
            Alcotest.(check bool) "refused stores changed no byte and wrote no page" true
              (written st = before);
            Alcotest.(check (list int)) "and dirtied no card" [] (State.dirty_cards st))
          [ false; true ]);
    Alcotest.test_case "unboxed word reads agree with load64" `Quick (fun () ->
        let st = State.create mem_prog and ps = State.page_size in
        let inside = ps + 16 and straddle = (2 * ps) - 3 and last = mem_size - 8 in
        List.iter
          (fun (a, v) -> State.store64 st a v)
          [ (inside, 0xFFF4_4000_0000_0003L); (straddle, 0x7FF4_0000_0000_0009L);
            (last, 0x8000_0000_0000_0001L) ];
        List.iter
          (fun a ->
            let w = State.load64 st a in
            let what = Printf.sprintf "at %d" a in
            Alcotest.(check int) (what ^ ": load63") (Int64.to_int w) (State.load63 st a);
            List.iter
              (fun v ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: equal64 %Lx" what v)
                  (Int64.equal w v) (State.equal64 st a v))
              [ w; Int64.logxor w Int64.min_int; Int64.logxor w 1L; 0L ])
          [ inside; straddle; 5 * ps; last; 0 ];
        List.iter
          (fun a ->
            let fault what f =
              match f () with
              | _ -> Alcotest.failf "%s at %d accepted" what a
              | exception State.Mem_fault a' ->
                  Alcotest.(check int) (Printf.sprintf "%s fault address" what) a a'
            in
            fault "load64" (fun () -> ignore (State.load64 st a));
            fault "load63" (fun () -> ignore (State.load63 st a));
            fault "equal64" (fun () -> ignore (State.equal64 st a 0L)))
          (wild_addresses 8));
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x9A6E5 |])
      (QCheck.Test.make ~count:300 ~name:"paged memory = flat memory" arb_accesses
         same_as_flat) ]

let () =
  Alcotest.run "machine"
    [ ("programs", simple_tests); ("faults", fault_tests); ("cycles", cycle_tests);
      ("printer", printer_tests); ("memory", memory_tests) ]

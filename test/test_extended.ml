(* Extended coverage: the binary32 softfloat instance, cross-format
   conversions, the remaining elementary functions, the FPVM engine's
   f32 emulation path ("the float problem"), universal-NaN handling,
   interval/posit engine smoke at larger scales, and S-scale workload
   sanity. *)

open Ieee754

let rne = Softfp.Nearest_even
let bits32 f = Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL
let fl32 b = Int32.float_of_bits (Int64.to_int32 b)

let q name ?(count = 2000) arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED6 |])
 (QCheck.Test.make ~count ~name arb law)

(* Random binary32 values: uniform bit patterns + realistic floats. *)
let gen_f32 =
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> Int64.of_int (i land 0xFFFFFFFF)) int);
        (3, map bits32 float);
        (1,
         oneofl
           (List.map bits32
              [ 0.0; -0.0; 1.0; -1.0; Float.infinity; Float.nan; 3.4e38;
                1.17549435e-38; 1.4e-45 ])) ])

let arb_f32 = QCheck.make ~print:(fun v -> Printf.sprintf "0x%08Lx (%h)" v (fl32 v)) gen_f32

(* Oracle: for +,-,*,/ and sqrt on binary32 operands, rounding the exact
   double result to binary32 equals direct binary32 arithmetic (the
   double has enough precision that double rounding is innocuous). *)
let f32_oracle_tests =
  let hard2 f a b = bits32 (f (fl32 a) (fl32 b)) in
  let check name hard soft =
    q (Printf.sprintf "f32 %s matches hardware" name)
      (QCheck.pair arb_f32 arb_f32) (fun (a, b) ->
        let h = hard2 hard a b in
        let s, _ = soft rne a b in
        if Float.is_nan (fl32 h) then Soft32.is_nan s else Int64.equal h s)
  in
  [ check "add" ( +. ) Soft32.add;
    check "sub" ( -. ) Soft32.sub;
    check "mul" ( *. ) Soft32.mul;
    check "div" ( /. ) Soft32.div;
    q "f32 sqrt matches hardware" arb_f32 (fun a ->
        let h = bits32 (Float.sqrt (fl32 a)) in
        let s, _ = Soft32.sqrt rne a in
        if Float.is_nan (fl32 h) then Soft32.is_nan s else Int64.equal h s);
    q "f32->f64 conversion is exact" arb_f32 (fun a ->
        QCheck.assume (not (Soft32.is_nan a));
        let w, fl = Convert.f32_to_f64 rne a in
        (* value exact; only the denormal-operand flag may fire *)
        Int64.equal w (Int64.bits_of_float (fl32 a))
        && Flags.inter fl (lnot Flags.denormal land 0x3F) = Flags.none);
    q "f64->f32->f64 roundtrip widens exactly" arb_f32 (fun a ->
        QCheck.assume (Soft32.is_finite a);
        let w, _ = Convert.f32_to_f64 rne a in
        let n, _ = Convert.f64_to_f32 rne w in
        Int64.equal n a);
    q "f32 compare matches" (QCheck.pair arb_f32 arb_f32) (fun (a, b) ->
        let fa = fl32 a and fb = fl32 b in
        let expected =
          if Float.is_nan fa || Float.is_nan fb then Softfp.Cmp_unordered
          else if fa < fb then Softfp.Cmp_lt
          else if fa > fb then Softfp.Cmp_gt
          else Softfp.Cmp_eq
        in
        fst (Soft32.compare_quiet a b) = expected)
  ]

(* ---- remaining elementary functions vs libm ---- *)

module B = Bigfloat
module E = Elementary

let ulp_diff a b =
  let key v =
    let i = Int64.bits_of_float v in
    if Int64.compare i 0L < 0 then Int64.sub Int64.min_int i else i
  in
  Int64.abs (Int64.sub (key a) (key b))

let close name ?(ulps = 64L) ?(gen = QCheck.Gen.float_range (-20.0) 20.0) f bigf =
  q (name ^ " ~ libm") ~count:400
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun a ->
      let h = f a in
      QCheck.assume (Float.is_finite h);
      let r = B.to_float (bigf ~prec:53 (B.of_float a)) in
      ulp_diff r h <= ulps)

let elementary_tests =
  [ close "sinh" Stdlib.sinh E.sinh;
    close "cosh" Stdlib.cosh E.cosh;
    close "tanh" Stdlib.tanh E.tanh;
    close "expm1" ~gen:(QCheck.Gen.float_range (-0.2) 0.2) Stdlib.expm1 E.expm1;
    close "log2" ~gen:(QCheck.Gen.float_range 0.001 1e6) (fun x -> Float.log2 x) E.log2;
    close "log10" ~gen:(QCheck.Gen.float_range 0.001 1e6) Stdlib.log10 E.log10;
    close "cbrt" ~gen:(QCheck.Gen.float_range (-1000.0) 1000.0) Float.cbrt E.cbrt;
    q "hypot ~ libm" ~count:300 (QCheck.pair QCheck.float QCheck.float)
      (fun (a, b) ->
        QCheck.assume (Float.is_finite a && Float.is_finite b);
        QCheck.assume (Float.abs a < 1e150 && Float.abs b < 1e150);
        let h = Float.hypot a b in
        let r = B.to_float (E.hypot ~prec:53 (B.of_float a) (B.of_float b)) in
        ulp_diff r h <= 64L);
    Alcotest.test_case "sinh and tanh at 2^-60 match a 600-bit reference" `Quick
      (fun () ->
        (* sinh x = sum x^(2k+1) / (2k+1)!, cosh x = sum x^(2k) / (2k)! *)
        let rp = 600 in
        let x = B.scale2 B.one (-60) in
        let x2 = B.mul ~prec:rp x x in
        let taylor t0 d =
          let rec go k sum t =
            let t = B.div_int ~prec:rp (B.mul ~prec:rp t x2) (d k) in
            if B.exponent t < B.exponent sum - rp then sum
            else go (k + 1) (B.add ~prec:rp sum t) t
          in
          go 1 t0 t0
        in
        let sh = taylor x (fun k -> 2 * k * ((2 * k) + 1))
        and ch = taylor B.one (fun k -> ((2 * k) - 1) * 2 * k) in
        let round v = B.add ~prec:200 v B.zero in
        let same = Alcotest.testable B.pp B.equal in
        Alcotest.check same "sinh" (round sh) (E.sinh ~prec:200 x);
        Alcotest.check same "tanh" (round (B.div ~prec:rp sh ch)) (E.tanh ~prec:200 x);
        Alcotest.check same "sinh(-x)" (round (B.neg sh)) (E.sinh ~prec:200 (B.neg x)));
    q "acos(cos t) = t on [0,pi]" ~count:100
      (QCheck.make ~print:string_of_float (QCheck.Gen.float_range 0.1 3.0))
      (fun t ->
        let p = 120 in
        let x = B.of_float t in
        let r = E.acos ~prec:p (E.cos ~prec:p x) in
        let d = B.to_float (B.abs (B.sub ~prec:p r x)) in
        d < 1e-30)
  ]

(* ---- engine f32 path + universal NaN ---- *)

open Machine
module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)
module E_interval = Fpvm.Engine.Make (Fpvm.Alt_interval)

let xmm n = Isa.Xmm n
let reg r = Isa.Reg r

let engine_tests =
  [ Alcotest.test_case "f32 arithmetic under FPVM == native (float problem)"
      `Quick (fun () ->
        (* single-precision ops are emulated then demoted to f32 bits *)
        let b = Program.create () in
        let c = Program.data_f64 b [||] in
        ignore c;
        (* store two f32 constants via i32 data *)
        let d =
          Program.data_i64 b
            [| Int64.of_int32 (Int32.bits_of_float 0.1);
               Int64.of_int32 (Int32.bits_of_float 0.3) |]
        in
        Program.emit b (Isa.Mov_f { w = Isa.F32; dst = xmm 0; src = Isa.Mem (Isa.addr d) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F32; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (d + 8)) });
        Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F32; packed = false; dst = xmm 0; src = xmm 0 });
        (* widen and print *)
        Program.emit b (Isa.Cvt_f2f { from_w = Isa.F32; dst = xmm 0; src = xmm 0 });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output;
        Alcotest.(check bool) "f32 ops trapped" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.fp_traps
           + v.Fpvm.Engine.stats.Fpvm.Stats.traps_avoided
           >= 2));
    Alcotest.test_case "universal NaN flows like a NaN" `Quick (fun () ->
        (* 0/0 creates a NaN the program owns; FPVM must not treat it as
           a box, and arithmetic on it stays NaN *)
        let b = Program.create () in
        let c = Program.data_f64 b [| 0.0; 1.0 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FDIV; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output;
        (* the x64 "real indefinite" QNaN is negative: prints as -nan *)
        Alcotest.(check string) "nan printed" "-nan\n" v.Fpvm.Engine.output);
    Alcotest.test_case "packed (vector) ops emulate lane by lane" `Quick
      (fun () ->
        let b = Program.create () in
        let c = Program.data_f64 b [| 0.1; 10.1; 0.2; 20.2 |] in
        let out = Program.data_zero b 16 in
        Program.emit b (Isa.Mov_x { dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = true; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 16)) });
        Program.emit b (Isa.Mov_x { dst = Isa.Mem (Isa.addr out); src = xmm 0 });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr out) });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr (out + 8)) });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let v = E_vanilla.run prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output);
    Alcotest.test_case "mpfr precision is runtime-selectable" `Quick (fun () ->
        (* enough steps for chaos to amplify the 64-vs-256-bit rounding
           difference past double-printing resolution *)
        let prog = Workloads.Lorenz.program ~steps:3000 () in
        let module E_64 =
          Fpvm.Engine.Make (Fpvm.Alt_mpfr.Make (struct let prec = 64 end)) in
        let module E_256 =
          Fpvm.Engine.Make (Fpvm.Alt_mpfr.Make (struct let prec = 256 end)) in
        let r64 = E_64.run prog in
        let r256 = E_256.run prog in
        Alcotest.(check bool) "different precisions, different trajectories"
          true
          (r64.Fpvm.Engine.output <> r256.Fpvm.Engine.output));
    Alcotest.test_case "interval engine handles a full workload" `Quick
      (fun () ->
        let prog = Workloads.Nas_cg.program ~n:8 ~cg_iters:3 () in
        let r = E_interval.run prog in
        List.iter
          (fun line ->
            Alcotest.(check bool) "finite" true
              (Float.is_finite (float_of_string line)))
          (String.split_on_char '\n' (String.trim r.Fpvm.Engine.output)))
  ]

(* ---- every trapping FP form: FPVM+Vanilla == native ----

   One small program per form x width. Each loads its operands afresh,
   executes the form, then serializes the destination's 16 bytes (or
   prints the integer result, or the branches a comparison's flags
   take), ten times over, so trap-and-patch also services the rewritten
   site. xmm lane 1 and the upper half of a binary32 lane 0 hold marker
   values native execution either keeps or clears. *)

let forms_tests =
  let f64b = Int64.bits_of_float in
  (* a binary32 value in the low half of a 64-bit word, marker above *)
  let hi32 b = Int64.logor 0x12345678_00000000L b in
  let v w x = match w with Isa.F64 -> f64b x | Isa.F32 -> hi32 (bits32 x) in
  let qnan = function Isa.F64 -> 0x7FF8_0000_0000_0000L | Isa.F32 -> hi32 0x7FC00000L in
  let snan = function Isa.F64 -> 0x7FF0_0000_0000_0001L | Isa.F32 -> hi32 0x7F800001L in
  let lane1 = f64b 2.5 in
  (* [program ~xmm1 ~rax ~mem insn out]: xmm1 (lane 0, lane 1), rax and
     the 24-byte block [mem] are reloaded before every execution of
     [insn at], where [at off] is the block's operand at byte [off]. *)
  let program ?(xmm1 = (0L, lane1)) ?(rax = 0xDEADBEEF_CAFEBABEL)
      ?(mem = [| 0L; lane1; 0L |]) insn out =
    let b = Program.create () in
    let xi = Program.data_i64 b [| fst xmm1; snd xmm1 |] in
    let m = Program.data_zero b 24 in
    let o = Program.data_zero b 16 in
    let at off = Isa.Mem (Isa.addr (m + off)) in
    let r11 = reg Isa.R11 in
    Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = Isa.Imm 10L });
    let top = Program.new_label b in
    Program.place b top;
    Array.iteri
      (fun i word ->
        Program.emit b (Isa.Mov { size = 8; dst = r11; src = Isa.Imm word });
        Program.emit b (Isa.Mov { size = 8; dst = at (8 * i); src = r11 }))
      mem;
    Program.emit b (Isa.Mov_x { dst = xmm 1; src = Isa.Mem (Isa.addr xi) });
    Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RAX; src = Isa.Imm rax });
    Program.emit b (insn at);
    let write_words src =
      List.iter
        (fun off ->
          Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = src off });
          Program.emit b (Isa.Call_ext Isa.Write_f64))
        [ 0; 8 ]
    in
    (match out with
    | `Xmm1 ->
        Program.emit b (Isa.Mov_x { dst = Isa.Mem (Isa.addr o); src = xmm 1 });
        write_words (fun off -> Isa.Mem (Isa.addr (o + off)))
    | `Mem -> write_words at
    | `Rax ->
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = reg Isa.RAX });
        Program.emit b (Isa.Call_ext Isa.Print_i64)
    | `Flags ->
        List.iter
          (fun c ->
            let taken = Program.new_label b and join = Program.new_label b in
            Program.jcc b c taken;
            Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Imm 0L });
            Program.jmp b join;
            Program.place b taken;
            Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Imm 1L });
            Program.place b join;
            Program.emit b (Isa.Call_ext Isa.Print_i64))
          [ Isa.Jz; Isa.Jp; Isa.Jb ]);
    Program.emit b (Isa.Dec (reg Isa.RCX));
    Program.jcc b Isa.Jnz top;
    Program.emit b Isa.Halt;
    Program.finish b
  in
  let wname = function Isa.F64 -> "binary64" | Isa.F32 -> "binary32" in
  (* (name, traps under FPVM, program) *)
  let cases w =
    let arith op packed ~a ~b ~a1 ~b1 =
      program ~xmm1:(a, a1) ~mem:[| b; b1; 0L |]
        (fun at -> Isa.Fp_arith { op; w; packed; dst = xmm 1; src = at 0 })
        `Xmm1
    in
    (* an int64 source in rax, an int32 one in memory *)
    let i2f ~size ~dst x =
      program ~xmm1:(v w 0.0, lane1) ~rax:x ~mem:[| v w 0.0; lane1; x |]
        (fun at ->
          Isa.Cvt_i2f
            { w; size;
              dst = (if dst = `Xmm1 then xmm 1 else at 0);
              src = (if size = 8 then reg Isa.RAX else at 16) })
        dst
    in
    let big = match w with Isa.F64 -> 9007199254740993L | Isa.F32 -> 1099511627779L in
    [ ("divide", true, arith Isa.FDIV false ~a:(v w 1.0) ~b:(v w 3.0) ~a1:lane1 ~b1:0L);
      ("sqrt", true, arith Isa.FSQRT false ~a:(v w 1.0) ~b:(v w 2.0) ~a1:lane1 ~b1:0L);
      ("packed divide", true,
       arith Isa.FDIV true ~a:(v w 1.0) ~b:(v w 3.0) ~a1:(v w 2.0) ~b1:(v w 7.0));
      ("quiet compare of a signaling NaN", true,
       program ~xmm1:(snan w, lane1) ~mem:[| v w 1.0; 0L; 0L |]
         (fun at -> Isa.Fp_cmp { signaling = false; w; a = xmm 1; b = at 0 })
         `Flags);
      ("signaling compare of a quiet NaN", true,
       program ~xmm1:(qnan w, lane1) ~mem:[| v w 1.0; 0L; 0L |]
         (fun at -> Isa.Fp_cmp { signaling = true; w; a = xmm 1; b = at 0 })
         `Flags);
      ("cmppred NLT of a quiet NaN", true,
       program ~xmm1:(qnan w, lane1) ~mem:[| v w 1.0; 0L; 0L |]
         (fun at -> Isa.Fp_cmppred { pred = Isa.NLT; w; dst = xmm 1; src = at 0 })
         `Xmm1);
      ("round down", true,
       program ~xmm1:(v w 0.0, lane1) ~mem:[| v w 2.5; 0L; 0L |]
         (fun at -> Isa.Fp_round { imm = Isa.RD; w; dst = xmm 1; src = at 0 })
         `Xmm1);
      ((match w with Isa.F64 -> "narrowing convert" | Isa.F32 -> "widening convert"),
       true,
       program ~xmm1:(v Isa.F32 0.0, lane1)
         ~mem:[| (match w with Isa.F64 -> f64b 0.1 | Isa.F32 -> snan Isa.F32); 0L; 0L |]
         (fun at -> Isa.Cvt_f2f { from_w = w; dst = xmm 1; src = at 0 })
         `Xmm1);
      ("truncating convert to int32", true,
       program ~mem:[| v w 1.5; 0L; 0L |]
         (fun at ->
           Isa.Cvt_f2i { w; truncate = true; size = 4; dst = reg Isa.RAX; src = at 0 })
         `Rax);
      ("rounding convert to int64", true,
       program ~mem:[| v w (-2.5); 0L; 0L |]
         (fun at ->
           Isa.Cvt_f2i { w; truncate = false; size = 8; dst = reg Isa.RAX; src = at 0 })
         `Rax);
      ("int64 convert into xmm", true, i2f ~size:8 ~dst:`Xmm1 big);
      (* every int32 is exact in binary64 *)
      ("int32 convert into xmm", w = Isa.F32, i2f ~size:4 ~dst:`Xmm1 16777217L);
      ("int64 convert into memory", true, i2f ~size:8 ~dst:`Mem (Int64.neg big));
      ("int32 convert into memory", w = Isa.F32, i2f ~size:4 ~dst:`Mem (-16777219L)) ]
    |> List.map (fun (name, traps, prog) -> (wname w ^ " " ^ name, traps, prog))
  in
  let configs =
    let ( >>= ) c (k, v) =
      match Fpvm.Engine.set c k v with Ok c -> c | Error e -> failwith e
    in
    let d = Fpvm.Engine.default_config in
    List.concat_map
      (fun gc ->
        List.map
          (fun kvs -> List.fold_left ( >>= ) d (("gc", gc) :: kvs))
          [ []; [ ("trace-len", "1") ]; [ ("plans", "off") ];
            [ ("jit", "off") ]; [ ("approach", "patch") ] ])
      [ "inc"; "full" ]
  in
  List.map
    (fun (name, traps, prog) ->
      Alcotest.test_case name `Quick (fun () ->
          let native = Fpvm.Engine.run_native prog in
          List.iter
            (fun config ->
              let r = E_vanilla.run ~config prog in
              let line = Fpvm.Engine.config_line config in
              Alcotest.(check string) ("output " ^ line) native.Fpvm.Engine.output
                r.Fpvm.Engine.output;
              Alcotest.(check string) ("bytes " ^ line)
                native.Fpvm.Engine.serialized r.Fpvm.Engine.serialized;
              Alcotest.(check bool) ("emulated " ^ line) traps
                (r.Fpvm.Engine.stats.Fpvm.Stats.emulated_insns > 0))
            configs))
    (cases Isa.F64 @ cases Isa.F32)

let heap_tests =
  [ Alcotest.test_case "heap-allocated FP data: boxes survive GC, VSA heap a-locs"
      `Quick (fun () ->
        (* malloc an array, fill it with rounded values, read it back
           with an integer sanity check, and sum: exercises GC scanning
           of the heap and the analysis's allocation-site a-locs *)
        let b = Program.create () in
        let c = Program.data_f64 b [| 0.1; 0.0 |] in
        (* rbx = malloc(10 * 8) *)
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Imm 80L });
        Program.emit b (Isa.Call_ext Isa.Alloc);
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RBX; src = reg Isa.RAX });
        (* fill: a[i] = 0.1 * (i+1), all rounded -> boxed under FPVM *)
        Program.emit b (Isa.Int_arith { op = Isa.XOR; dst = reg Isa.RCX; src = reg Isa.RCX });
        let fill = Program.new_label b in
        Program.place b fill;
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr (c + 8)); src = xmm 0 });
        Program.emit b
          (Isa.Mov_f
             { w = Isa.F64;
               dst = Isa.Mem (Isa.addr ~base:Isa.RBX ~index:Isa.RCX ~scale:8 0);
               src = xmm 0 });
        Program.emit b (Isa.Inc (reg Isa.RCX));
        Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = Isa.Imm 10L });
        Program.jcc b Isa.Jl fill;
        (* integer peek at one heap slot (a heap-a-loc sink) *)
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr ~base:Isa.RBX 24) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        (* sum the array *)
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 1; src = xmm 1 });
        Program.emit b (Isa.Int_arith { op = Isa.XOR; dst = reg Isa.RCX; src = reg Isa.RCX });
        let sum = Program.new_label b in
        Program.place b sum;
        Program.emit b
          (Isa.Fp_arith
             { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 1;
               src = Isa.Mem (Isa.addr ~base:Isa.RBX ~index:Isa.RCX ~scale:8 0) });
        Program.emit b (Isa.Inc (reg Isa.RCX));
        Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = Isa.Imm 10L });
        Program.jcc b Isa.Jl sum;
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = xmm 1 });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        (* GC every few emulations: heap boxes must survive every pass *)
        let config =
          { Fpvm.Engine.default_config with Fpvm.Engine.gc_interval = 4 }
        in
        let v = E_vanilla.run ~config prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          v.Fpvm.Engine.output;
        Alcotest.(check bool) "gc ran while boxes lived on the heap" true
          (v.Fpvm.Engine.stats.Fpvm.Stats.gc_passes > 2));
    Alcotest.test_case "posit16 roundtrip (exhaustive)" `Quick (fun () ->
        for i = 0 to 65535 do
          let p = Int64.of_int i in
          if not (Posit.is_nar Posit.posit16 p) then begin
            let f = Posit.to_float Posit.posit16 p in
            if not (Int64.equal (Posit.of_float Posit.posit16 f) p) then
              Alcotest.failf "posit16 roundtrip failed at %d" i
          end
        done)
  ]

(* ---- S-scale smoke: validation holds at evaluation scale ---- *)

let s_scale_tests =
  [ Alcotest.test_case "S scale: native == reference (all workloads)" `Slow
      (fun () ->
        List.iter
          (fun (e : Workloads.entry) ->
            match e.Workloads.reference Workloads.S with
            | None -> ()
            | Some expected ->
                let r = Fpvm.Engine.run_native (e.Workloads.program Workloads.S) in
                Alcotest.(check string) (e.Workloads.name ^ " S") expected
                  r.Fpvm.Engine.output)
          Workloads.all);
    Alcotest.test_case "S scale: vanilla == native (lorenz, CG)" `Slow
      (fun () ->
        List.iter
          (fun name ->
            let e = Option.get (Workloads.find name) in
            let prog = e.Workloads.program Workloads.S in
            let native = Fpvm.Engine.run_native prog in
            let v = E_vanilla.run prog in
            Alcotest.(check string) name native.Fpvm.Engine.output
              v.Fpvm.Engine.output)
          [ "lorenz"; "NAS CG" ])
  ]

let () =
  Alcotest.run "extended"
    [ ("f32-oracle", f32_oracle_tests);
      ("elementary", elementary_tests);
      ("engine", engine_tests);
      ("forms", forms_tests);
      ("heap", heap_tests);
      ("s-scale", s_scale_tests) ]

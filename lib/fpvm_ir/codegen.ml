(* IR -> VX64 code generation.

   A deliberately -O0-flavoured backend: every temp lives in a memory
   slot and every instruction round-trips operands through scratch
   registers (xmm0-2, r10/r11). That is exactly the code shape FPVM
   stresses: values (and NaN-boxes) constantly flow through memory, so
   the conservative GC and the static analysis both have real work.

   [mode] selects the deployment story:
   - [`Plain]: an ordinary binary, to be run natively or under the
     trap-and-emulate FPVM.
   - [`Instrumented]: the compiler-based FPVM approach (paper 3.4) - the
     equivalent of the IR transformation pass: every FP instruction is
     emitted wrapped in an inline check stub, so no hardware trapping is
     needed and checks are cheaper than binary patching. The pass also
     exploits the compiler's liveness knowledge (the paper's claimed GC
     advantage): after the last consuming read of an FP temporary whose
     box bits never escape into another location, it emits a Free_hint
     so FPVM can reclaim the shadow value immediately instead of waiting
     for a conservative GC pass. *)

module Isa = Machine.Isa
module Program = Machine.Program

type mode = [ `Plain | `Instrumented ]

let ext_of_name = function
  | "sin" -> Isa.Sin
  | "cos" -> Isa.Cos
  | "tan" -> Isa.Tan
  | "asin" -> Isa.Asin
  | "acos" -> Isa.Acos
  | "atan" -> Isa.Atan
  | "atan2" -> Isa.Atan2
  | "exp" -> Isa.Exp
  | "log" -> Isa.Log
  | "log10" -> Isa.Log10
  | "pow" -> Isa.Pow
  | "floor" -> Isa.Floor
  | "ceil" -> Isa.Ceil
  | "fabs" -> Isa.Fabs
  | "fmod" -> Isa.Fmod
  | "hypot" -> Isa.Hypot
  | "cbrt" -> Isa.Cbrt
  | "sinh" -> Isa.Sinh
  | "cosh" -> Isa.Cosh
  | "tanh" -> Isa.Tanh
  | n -> invalid_arg ("Codegen: unknown math function " ^ n)

let compile ?(mode : mode = `Plain) ?(mem_size = 1 lsl 22) (f : Ir.func) :
    Program.t =
  let b = Program.create ~name:f.Ir.fname ~mem_size () in
  (* --- data layout --- *)
  let vars : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let arrays : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (d : Ast.decl) ->
      match d with
      | Ast.Fscalar (n, v) -> Hashtbl.replace vars n (Program.data_f64 b [| v |])
      | Ast.Iscalar (n, v) ->
          Hashtbl.replace vars n (Program.data_i64 b [| Int64.of_int v |])
      | Ast.Farray (n, vs) -> Hashtbl.replace arrays n (Program.data_f64 b vs)
      | Ast.Iarray (n, vs) -> Hashtbl.replace arrays n (Program.data_i64 b vs))
    f.Ir.decls;
  (* constants for sign manipulation via xmm bitwise ops *)
  let neg_mask =
    Program.data_f64 b [| -0.0; -0.0 |]
  in
  let abs_mask =
    Program.data_i64 b [| 0x7FFFFFFFFFFFFFFFL; 0x7FFFFFFFFFFFFFFFL |]
  in
  (* temp slots *)
  let fslots = Program.data_zero b (8 * max 1 f.Ir.n_ftemps) in
  let islots = Program.data_zero b (8 * max 1 f.Ir.n_itemps) in
  let scratch = Program.data_zero b 16 in
  let fslot t = Isa.Mem (Isa.addr (fslots + (8 * t))) in
  let islot t = Isa.Mem (Isa.addr (islots + (8 * t))) in
  let var n =
    match Hashtbl.find_opt vars n with
    | Some off -> Isa.Mem (Isa.addr off)
    | None -> invalid_arg ("Codegen: undeclared variable " ^ n)
  in
  let arr n =
    match Hashtbl.find_opt arrays n with
    | Some off -> off
    | None -> invalid_arg ("Codegen: undeclared array " ^ n)
  in
  (* --- emission helpers --- *)
  let emit i = Program.emit b i in
  (* FP-trappable instructions go through here so the instrumented mode
     can wrap them. *)
  let emit_fp i =
    match mode with
    | `Plain -> emit i
    | `Instrumented -> emit (Isa.Checked i)
  in
  let xmm n = Isa.Xmm n in
  let r10 = Isa.Reg Isa.R10 and r11 = Isa.Reg Isa.R11 in
  let load_f t = emit (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = fslot t }) in
  let store_f t = emit (Isa.Mov_f { w = Isa.F64; dst = fslot t; src = xmm 0 }) in
  let load_i reg t = emit (Isa.Mov { size = 8; dst = reg; src = islot t }) in
  let store_i t reg = emit (Isa.Mov { size = 8; dst = islot t; src = reg }) in
  (* labels *)
  let labels = Array.init f.Ir.n_labels (fun _ -> Program.new_label b) in
  let cc_of_f : Ast.cmpop -> Isa.cond = function
    | Ast.Lt -> Isa.Jb
    | Ast.Le -> Isa.Jbe
    | Ast.Gt -> Isa.Ja
    | Ast.Ge -> Isa.Jae
    | Ast.Eq -> Isa.Jz
    | Ast.Ne -> Isa.Jnz
  in
  let cc_of_i : Ast.cmpop -> Isa.cond = function
    | Ast.Lt -> Isa.Jl
    | Ast.Le -> Isa.Jle
    | Ast.Gt -> Isa.Jg
    | Ast.Ge -> Isa.Jge
    | Ast.Eq -> Isa.Jz
    | Ast.Ne -> Isa.Jnz
  in
  (* --- shadow-death hints (Instrumented mode) ---
     For each ftemp: the position of its last read, and whether any read
     copies the raw bits to a longer-lived location (FMove / FStoreVar /
     FStoreArr), in which case freeing the shadow early would dangle the
     copy. Temps are statically single-assignment and every def/use chain
     sits inside one lowered statement, so "last static read" is a sound
     death point for non-escaping temps. *)
  let insts_arr = Array.of_list f.Ir.insts in
  let last_read = Hashtbl.create 64 in
  let no_free = Hashtbl.create 16 in
  let note p t = Hashtbl.replace last_read t p in
  Array.iteri
    (fun p inst ->
      match (inst : Ir.inst) with
      | Ir.FMove (d, s) ->
          note p s;
          (* the source's box bits outlive the temp in the destination,
             and the destination aliases a value owned elsewhere *)
          Hashtbl.replace no_free s ();
          Hashtbl.replace no_free d ()
      | Ir.FBin (_, _, a, bb) -> note p a; note p bb
      | Ir.FNegI (_, s) | Ir.FAbsI (_, s) | Ir.FSqrt (_, s) -> note p s
      | Ir.FCall (_, _, args) -> List.iter (note p) args
      | Ir.FStoreVar (_, t) | Ir.FStoreArr (_, _, t) ->
          note p t;
          Hashtbl.replace no_free t ()
      | Ir.FLoadVar (t, _) | Ir.FLoadArr (t, _, _) ->
          (* the temp holds a copy of a longer-lived location's box:
             freeing through it would dangle that location *)
          Hashtbl.replace no_free t ()
      | Ir.IOfFloat (_, s) | Ir.IBitsOfF (_, s) -> note p s
      | Ir.CondBr (Ir.Cf (_, a, bb), _) -> note p a; note p bb
      | Ir.PrintF t | Ir.SerializeF t -> note p t
      | _ -> ())
    insts_arr;
  let emit_death_hints p =
    if mode = `Instrumented then
      Hashtbl.iter
        (fun t lp ->
          if lp = p && not (Hashtbl.mem no_free t) then
            emit (Isa.Free_hint (fslot t)))
        last_read
  in
  (* --- per-instruction code --- *)
  let gen (inst : Ir.inst) =
    match inst with
    | Ir.FConst (t, c) ->
        let off = Program.data_f64 b [| c |] in
        emit (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr off) });
        store_f t
    | Ir.FMove (d, s) ->
        load_f s;
        store_f d
    | Ir.FBin (op, d, a, bb) ->
        let fpop =
          match op with
          | Ast.FAdd -> Isa.FADD
          | Ast.FSub -> Isa.FSUB
          | Ast.FMul -> Isa.FMUL
          | Ast.FDiv -> Isa.FDIV
        in
        load_f a;
        emit_fp (Isa.Fp_arith { op = fpop; w = Isa.F64; packed = false; dst = xmm 0; src = fslot bb });
        store_f d
    | Ir.FNegI (d, s) ->
        (* the xorpd sign-flip idiom compilers love *)
        load_f s;
        emit (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 0; src = Isa.Mem (Isa.addr neg_mask) });
        store_f d
    | Ir.FAbsI (d, s) ->
        load_f s;
        emit (Isa.Fp_bit { op = Isa.BAND; dst = xmm 0; src = Isa.Mem (Isa.addr abs_mask) });
        store_f d
    | Ir.FSqrt (d, s) ->
        emit_fp (Isa.Fp_arith { op = Isa.FSQRT; w = Isa.F64; packed = false; dst = xmm 0; src = fslot s });
        store_f d
    | Ir.FCall (name, d, args) ->
        List.iteri
          (fun i a ->
            emit (Isa.Mov_f { w = Isa.F64; dst = xmm i; src = fslot a }))
          args;
        emit (Isa.Call_ext (ext_of_name name));
        store_f d
    | Ir.FLoadVar (t, n) ->
        emit (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = var n });
        store_f t
    | Ir.FStoreVar (n, t) ->
        load_f t;
        emit (Isa.Mov_f { w = Isa.F64; dst = var n; src = xmm 0 })
    | Ir.FLoadArr (t, a, i) ->
        load_i r10 i;
        emit
          (Isa.Mov_f
             { w = Isa.F64; dst = xmm 0;
               src = Isa.Mem (Isa.addr ~index:Isa.R10 ~scale:8 (arr a)) });
        store_f t
    | Ir.FStoreArr (a, i, t) ->
        load_i r10 i;
        load_f t;
        emit
          (Isa.Mov_f
             { w = Isa.F64;
               dst = Isa.Mem (Isa.addr ~index:Isa.R10 ~scale:8 (arr a));
               src = xmm 0 })
    | Ir.FOfInt (d, s) ->
        load_i r10 s;
        emit_fp (Isa.Cvt_i2f { w = Isa.F64; size = 8; dst = xmm 0; src = r10 });
        store_f d
    | Ir.IConst (t, v) ->
        emit (Isa.Mov { size = 8; dst = r10; src = Isa.Imm v });
        store_i t r10
    | Ir.IMove (d, s) ->
        load_i r10 s;
        store_i d r10
    | Ir.IBin (op, d, a, bb) ->
        let iop =
          match op with
          | Ast.IAdd -> Isa.ADD
          | Ast.ISub -> Isa.SUB
          | Ast.IMul -> Isa.IMUL
          | Ast.IAnd -> Isa.AND
          | Ast.IOr -> Isa.OR
          | Ast.IXor -> Isa.XOR
          | Ast.IShl -> Isa.SHL
          | Ast.IShr -> Isa.SHR
        in
        load_i r10 a;
        load_i r11 bb;
        emit (Isa.Int_arith { op = iop; dst = r10; src = r11 });
        store_i d r10
    | Ir.ILoadVar (t, n) ->
        emit (Isa.Mov { size = 8; dst = r10; src = var n });
        store_i t r10
    | Ir.IStoreVar (n, t) ->
        load_i r10 t;
        emit (Isa.Mov { size = 8; dst = var n; src = r10 })
    | Ir.ILoadArr (t, a, i) ->
        load_i r10 i;
        emit
          (Isa.Mov
             { size = 8; dst = r11;
               src = Isa.Mem (Isa.addr ~index:Isa.R10 ~scale:8 (arr a)) });
        store_i t r11
    | Ir.IStoreArr (a, i, t) ->
        load_i r10 i;
        load_i r11 t;
        emit
          (Isa.Mov
             { size = 8;
               dst = Isa.Mem (Isa.addr ~index:Isa.R10 ~scale:8 (arr a));
               src = r11 })
    | Ir.IOfFloat (d, s) ->
        emit_fp (Isa.Cvt_f2i { w = Isa.F64; truncate = true; size = 8; dst = r10; src = fslot s });
        store_i d r10
    | Ir.IBitsOfF (d, s) ->
        (* The Figure 6 idiom: spill the double, load its bits back as an
           integer. Exactly what static analysis must catch. *)
        load_f s;
        emit (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr scratch); src = xmm 0 });
        emit (Isa.Mov { size = 8; dst = r10; src = Isa.Mem (Isa.addr scratch) });
        store_i d r10
    | Ir.Lbl l -> Program.place b labels.(l)
    | Ir.Jmp l -> Program.jmp b labels.(l)
    | Ir.CondBr (c, l) -> begin
        match c with
        | Ir.Cf (op, a, bb) ->
            load_f a;
            emit_fp (Isa.Fp_cmp { signaling = false; w = Isa.F64; a = xmm 0; b = fslot bb });
            Program.jcc b (cc_of_f op) labels.(l)
        | Ir.Ci (op, a, bb) ->
            load_i r10 a;
            load_i r11 bb;
            emit (Isa.Cmp { a = r10; b = r11 });
            Program.jcc b (cc_of_i op) labels.(l)
      end
    | Ir.PrintF t ->
        emit (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = fslot t });
        emit (Isa.Call_ext Isa.Print_f64)
    | Ir.PrintI t ->
        emit (Isa.Mov { size = 8; dst = Isa.Reg Isa.RDI; src = islot t });
        emit (Isa.Call_ext Isa.Print_i64)
    | Ir.PrintS s -> emit (Isa.Call_ext (Isa.Print_str s))
    | Ir.SerializeF t ->
        emit (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = fslot t });
        emit (Isa.Call_ext Isa.Write_f64)
  in
  Array.iteri
    (fun p inst ->
      gen inst;
      emit_death_hints p)
    insts_arr;
  emit Isa.Halt;
  Program.finish b

(* Front door: AST program -> binary. *)
let compile_program ?(mode : mode = `Plain) ?mem_size (p : Ast.program) :
    Program.t =
  compile ~mode ?mem_size (Lower.lower p)

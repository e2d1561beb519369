(* The VX64 interpreter.

   Floating point semantics come from the ieee754 softfloat kernel; every
   FP instruction ORs its exception flags into the sticky %mxcsr bits and
   faults precisely (destination unwritten, RIP at the faulting
   instruction) when an unmasked event occurs — the contract FPVM's
   trap-and-emulate engine relies on. Moves, xmm bitwise operations and
   integer loads of FP data never fault, reproducing the x64 coverage
   holes that force the paper's hybrid static analysis. *)

module F = Ieee754.Flags
module S64 = Ieee754.Soft64
module S32 = Ieee754.Soft32

type outcome =
  | Running
  | Halted
  | Fp_fault of { index : int; events : F.t }
      (* unmasked FP exception at instruction [index] *)
  | Correctness_fault of { index : int; original : Isa.insn }
      (* explicit trap inserted by static analysis *)

exception Invalid_insn of string

(* ---- operand access ----------------------------------------------------- *)

let read_f64 st (o : Isa.operand) lane =
  match o with
  | Isa.Xmm i -> State.get_xmm st i lane
  | Isa.Mem m -> State.load64 st (State.ea st m + (8 * lane))
  | Isa.Reg _ | Isa.Imm _ -> raise (Invalid_insn "f64 operand")

let write_f64 st (o : Isa.operand) lane v =
  match o with
  | Isa.Xmm i -> State.set_xmm st i lane v
  | Isa.Mem m -> State.store64 st (State.ea st m + (8 * lane)) v
  | Isa.Reg _ | Isa.Imm _ -> raise (Invalid_insn "f64 operand")

let read_f32 st (o : Isa.operand) =
  match o with
  | Isa.Xmm i -> Int64.logand (State.get_xmm st i 0) 0xFFFFFFFFL
  | Isa.Mem m -> Int64.logand (State.load32 st (State.ea st m)) 0xFFFFFFFFL
  | Isa.Reg _ | Isa.Imm _ -> raise (Invalid_insn "f32 operand")

let write_f32 st (o : Isa.operand) v =
  match o with
  | Isa.Xmm i ->
      State.set_xmm st i 0
        (Int64.logor
           (Int64.logand (State.get_xmm st i 0) 0xFFFFFFFF00000000L)
           (Int64.logand v 0xFFFFFFFFL))
  | Isa.Mem m -> State.store32 st (State.ea st m) v
  | Isa.Reg _ | Isa.Imm _ -> raise (Invalid_insn "f32 operand")

let read_int st size (o : Isa.operand) =
  match o with
  | Isa.Reg r -> State.get_gpr st r
  | Isa.Imm v -> v
  | Isa.Mem m -> State.load_size st size (State.ea st m)
  | Isa.Xmm _ -> raise (Invalid_insn "int operand")

let write_int st size (o : Isa.operand) v =
  match o with
  | Isa.Reg r ->
      (* 32-bit writes zero the upper half, like x64. *)
      if size = 8 then State.set_gpr st r v
      else if size = 4 then State.set_gpr st r (Int64.logand v 0xFFFFFFFFL)
      else begin
        let old = State.get_gpr st r in
        let mask = Int64.sub (Int64.shift_left 1L (size * 8)) 1L in
        State.set_gpr st r
          (Int64.logor (Int64.logand old (Int64.lognot mask)) (Int64.logand v mask))
      end
  | Isa.Mem m -> State.store_size st size (State.ea st m) v
  | Isa.Imm _ | Isa.Xmm _ -> raise (Invalid_insn "int dest")

let read_fp st (w : Isa.fp_width) o lane =
  match w with Isa.F64 -> read_f64 st o lane | Isa.F32 -> read_f32 st o

(* ---- FP semantics shared with FPVM's emulation -------------------------- *)

(* Where an FP instruction's result lands: binary64 bits fill [lane] of
   the destination; binary32 bits fill the low half of lane 0 and keep
   the rest of the location; a converted integer fills the whole 64-bit
   destination. A binary64 int->float convert into an xmm register also
   clears lane 1. *)
let write_result st (insn : Isa.insn) lane v =
  match insn with
  | Isa.Fp_arith { w = Isa.F64; dst; _ }
  | Isa.Fp_cmppred { w = Isa.F64; dst; _ }
  | Isa.Fp_round { w = Isa.F64; dst; _ }
  | Isa.Cvt_f2f { from_w = Isa.F32; dst; _ } ->
      write_f64 st dst lane v
  | Isa.Cvt_i2f { w = Isa.F64; dst; _ } -> (
      write_f64 st dst lane v;
      match dst with Isa.Xmm i -> State.set_xmm st i 1 0L | _ -> ())
  | Isa.Fp_arith { w = Isa.F32; dst; _ }
  | Isa.Fp_cmppred { w = Isa.F32; dst; _ }
  | Isa.Fp_round { w = Isa.F32; dst; _ }
  | Isa.Cvt_f2f { from_w = Isa.F64; dst; _ }
  | Isa.Cvt_i2f { w = Isa.F32; dst; _ } ->
      write_f32 st dst v
  | Isa.Cvt_f2i { dst; _ } -> write_int st 8 dst v
  | _ -> raise (Invalid_insn "no FP result")

(* x64 comisd flag encoding *)
let set_compare_flags st (c : Ieee754.Softfp.cmp) =
  (match c with
  | Ieee754.Softfp.Cmp_unordered ->
      st.State.zf <- true; st.State.pf <- true; st.State.cf <- true
  | Ieee754.Softfp.Cmp_lt ->
      st.State.zf <- false; st.State.pf <- false; st.State.cf <- true
  | Ieee754.Softfp.Cmp_gt ->
      st.State.zf <- false; st.State.pf <- false; st.State.cf <- false
  | Ieee754.Softfp.Cmp_eq ->
      st.State.zf <- true; st.State.pf <- false; st.State.cf <- false);
  st.State.of_ <- false;
  st.State.sf <- false

let pred_holds (pred : Isa.fp_pred) (c : Ieee754.Softfp.cmp) =
  let open Ieee754.Softfp in
  match (pred, c) with
  | Isa.EQ, Cmp_eq -> true
  | Isa.LT, Cmp_lt -> true
  | Isa.LE, (Cmp_lt | Cmp_eq) -> true
  | Isa.NEQ, (Cmp_lt | Cmp_gt | Cmp_unordered) -> true
  | Isa.NLT, (Cmp_gt | Cmp_eq | Cmp_unordered) -> true
  | Isa.NLE, (Cmp_gt | Cmp_unordered) -> true
  | Isa.ORD, (Cmp_lt | Cmp_eq | Cmp_gt) -> true
  | Isa.UNORD, Cmp_unordered -> true
  | _ -> false

let round_mode (imm : Isa.rounding_imm) =
  match imm with
  | Isa.RN -> Ieee754.Softfp.Nearest_even
  | Isa.RD -> Ieee754.Softfp.Toward_neg
  | Isa.RU -> Ieee754.Softfp.Toward_pos
  | Isa.RZ -> Ieee754.Softfp.Toward_zero

(* ---- integer flags ------------------------------------------------------- *)

let parity8 v =
  let b = Int64.to_int (Int64.logand v 0xFFL) in
  let rec pop acc v = if v = 0 then acc else pop (acc + (v land 1)) (v lsr 1) in
  pop 0 b land 1 = 0

let set_logic_flags st r =
  st.State.zf <- Int64.equal r 0L;
  st.State.sf <- Int64.compare r 0L < 0;
  st.State.cf <- false;
  st.State.of_ <- false;
  st.State.pf <- parity8 r

let set_addsub_flags st ~is_sub a b r =
  st.State.zf <- Int64.equal r 0L;
  st.State.sf <- Int64.compare r 0L < 0;
  st.State.pf <- parity8 r;
  if is_sub then begin
    st.State.cf <- Int64.unsigned_compare a b < 0;
    st.State.of_ <-
      Int64.compare (Int64.logand (Int64.logxor a b) (Int64.logxor a r)) 0L < 0
  end
  else begin
    st.State.cf <- Int64.unsigned_compare r a < 0;
    st.State.of_ <-
      Int64.compare
        (Int64.logand (Int64.logxor a r) (Int64.logxor b r))
        0L
      < 0
  end

let cond_holds st (c : Isa.cond) =
  let open State in
  match c with
  | Isa.Jz -> st.zf
  | Isa.Jnz -> not st.zf
  | Isa.Jl -> st.sf <> st.of_
  | Isa.Jle -> st.zf || st.sf <> st.of_
  | Isa.Jg -> (not st.zf) && st.sf = st.of_
  | Isa.Jge -> st.sf = st.of_
  | Isa.Jb -> st.cf
  | Isa.Jbe -> st.cf || st.zf
  | Isa.Ja -> (not st.cf) && not st.zf
  | Isa.Jae -> not st.cf
  | Isa.Js -> st.sf
  | Isa.Jns -> not st.sf
  | Isa.Jp -> st.pf
  | Isa.Jnp -> not st.pf

(* ---- native external calls ----------------------------------------------- *)

let f64_of_xmm st i = Int64.float_of_bits (State.get_xmm st i 0)
let set_xmm_f64 st i v =
  State.set_xmm st i 0 (Int64.bits_of_float v);
  State.set_xmm st i 1 0L

let native_ext st (fn : Isa.ext_fn) =
  let unary f =
    set_xmm_f64 st 0 (f (f64_of_xmm st 0));
    State.add_cycles st st.State.cost.Cost_model.libm_call
  in
  let binary f =
    set_xmm_f64 st 0 (f (f64_of_xmm st 0) (f64_of_xmm st 1));
    State.add_cycles st st.State.cost.Cost_model.libm_call
  in
  match fn with
  | Isa.Sin -> unary Stdlib.sin
  | Isa.Cos -> unary Stdlib.cos
  | Isa.Tan -> unary Stdlib.tan
  | Isa.Asin -> unary Stdlib.asin
  | Isa.Acos -> unary Stdlib.acos
  | Isa.Atan -> unary Stdlib.atan
  | Isa.Atan2 -> binary Stdlib.atan2
  | Isa.Exp -> unary Stdlib.exp
  | Isa.Log -> unary Stdlib.log
  | Isa.Log10 -> unary Stdlib.log10
  | Isa.Pow -> binary ( ** )
  | Isa.Floor -> unary Float.floor
  | Isa.Ceil -> unary Float.ceil
  | Isa.Fabs -> unary Float.abs
  | Isa.Fmod -> binary Float.rem
  | Isa.Hypot -> binary Float.hypot
  | Isa.Cbrt -> unary Float.cbrt
  | Isa.Sinh -> unary Stdlib.sinh
  | Isa.Cosh -> unary Stdlib.cosh
  | Isa.Tanh -> unary Stdlib.tanh
  | Isa.Print_f64 ->
      Buffer.add_string st.State.out
        (Printf.sprintf "%.17g\n" (f64_of_xmm st 0))
  | Isa.Print_i64 ->
      Buffer.add_string st.State.out
        (Printf.sprintf "%Ld\n" (State.get_gpr st Isa.RDI))
  | Isa.Print_str s -> Buffer.add_string st.State.out s
  | Isa.Write_f64 ->
      Buffer.add_int64_le st.State.serialized (State.get_xmm st 0 0)
  | Isa.Alloc ->
      let n = Int64.to_int (State.get_gpr st Isa.RDI) in
      let p = (st.State.heap_ptr + 15) / 16 * 16 in
      st.State.heap_ptr <- p + n;
      if st.State.heap_ptr >= st.State.stack_base - 65536 then
        raise (State.Mem_fault st.State.heap_ptr);
      State.set_gpr st Isa.RAX (Int64.of_int p)
  | Isa.Exit -> st.State.halted <- true

(* ---- the dispatcher ------------------------------------------------------- *)

(* Execute [insn] as the instruction at index [idx]. Advances RIP (or
   redirects it for control flow). Returns the outcome; on Fp_fault /
   Correctness_fault, RIP is left at the faulting instruction. *)
let rec dispatch st idx (insn : Isa.insn) : outcome =
  let cost = st.State.cost in
  let advance () = st.State.rip <- idx + 1 in
  let cyc n = State.add_cycles st n in
  match insn with
  | Isa.Fp_arith { op; w; packed; dst; src } -> begin
      st.State.fp_insn_count <- st.State.fp_insn_count + 1;
      cyc (Cost_model.fp_cost cost op);
      if (match src with Isa.Mem _ -> true | _ -> false) then
        cyc cost.Cost_model.mem_op;
      let mode = Ieee754.Mxcsr.rounding st.State.mxcsr in
      let lanes = if packed then 2 else 1 in
      let results = Array.make lanes 0L in
      let events = ref F.none in
      for lane = 0 to lanes - 1 do
        let r, fl =
          match w with
          | Isa.F64 -> begin
              let b = read_f64 st src lane in
              match op with
              | Isa.FSQRT -> S64.sqrt mode b
              | Isa.FADD -> S64.add mode (read_f64 st dst lane) b
              | Isa.FSUB -> S64.sub mode (read_f64 st dst lane) b
              | Isa.FMUL -> S64.mul mode (read_f64 st dst lane) b
              | Isa.FDIV -> S64.div mode (read_f64 st dst lane) b
              | Isa.FMIN -> S64.min_op (read_f64 st dst lane) b
              | Isa.FMAX -> S64.max_op (read_f64 st dst lane) b
            end
          | Isa.F32 -> begin
              let b = read_f32 st src in
              match op with
              | Isa.FSQRT -> S32.sqrt mode b
              | Isa.FADD -> S32.add mode (read_f32 st dst) b
              | Isa.FSUB -> S32.sub mode (read_f32 st dst) b
              | Isa.FMUL -> S32.mul mode (read_f32 st dst) b
              | Isa.FDIV -> S32.div mode (read_f32 st dst) b
              | Isa.FMIN -> S32.min_op (read_f32 st dst) b
              | Isa.FMAX -> S32.max_op (read_f32 st dst) b
            end
        in
        results.(lane) <- r;
        events := F.union !events fl
      done;
      Ieee754.Mxcsr.set_flags st.State.mxcsr !events;
      let unmasked = Ieee754.Mxcsr.unmasked_events st.State.mxcsr !events in
      if unmasked <> F.none then Fp_fault { index = idx; events = unmasked }
      else begin
        for lane = 0 to lanes - 1 do
          write_result st insn lane results.(lane)
        done;
        advance ();
        Running
      end
    end
  | Isa.Fp_cmp { signaling; w; a; b } -> begin
      st.State.fp_insn_count <- st.State.fp_insn_count + 1;
      cyc cost.Cost_model.fp_add;
      let cmp, fl =
        match w with
        | Isa.F64 ->
            let x = read_f64 st a 0 and y = read_f64 st b 0 in
            if signaling then S64.compare_signaling x y else S64.compare_quiet x y
        | Isa.F32 ->
            let x = read_f32 st a and y = read_f32 st b in
            if signaling then S32.compare_signaling x y else S32.compare_quiet x y
      in
      Ieee754.Mxcsr.set_flags st.State.mxcsr fl;
      let unmasked = Ieee754.Mxcsr.unmasked_events st.State.mxcsr fl in
      if unmasked <> F.none then Fp_fault { index = idx; events = unmasked }
      else begin
        set_compare_flags st cmp;
        advance ();
        Running
      end
    end
  | Isa.Fp_cmppred { pred; w; dst; src } -> begin
      st.State.fp_insn_count <- st.State.fp_insn_count + 1;
      cyc cost.Cost_model.fp_add;
      let signaling =
        match pred with
        | Isa.LT | Isa.LE | Isa.NLT | Isa.NLE -> true
        | Isa.EQ | Isa.NEQ | Isa.ORD | Isa.UNORD -> false
      in
      let cmp, fl =
        match w with
        | Isa.F64 ->
            let x = read_f64 st dst 0 and y = read_f64 st src 0 in
            if signaling then S64.compare_signaling x y else S64.compare_quiet x y
        | Isa.F32 ->
            let x = read_f32 st dst and y = read_f32 st src in
            if signaling then S32.compare_signaling x y else S32.compare_quiet x y
      in
      Ieee754.Mxcsr.set_flags st.State.mxcsr fl;
      let unmasked = Ieee754.Mxcsr.unmasked_events st.State.mxcsr fl in
      if unmasked <> F.none then Fp_fault { index = idx; events = unmasked }
      else begin
        write_result st insn 0 (if pred_holds pred cmp then -1L else 0L);
        advance ();
        Running
      end
    end
  | Isa.Fp_round { imm; w; src; _ } -> begin
      st.State.fp_insn_count <- st.State.fp_insn_count + 1;
      cyc cost.Cost_model.fp_add;
      let mode = round_mode imm in
      let r, fl =
        match w with
        | Isa.F64 -> S64.round_to_integral mode (read_f64 st src 0)
        | Isa.F32 -> S32.round_to_integral mode (read_f32 st src)
      in
      Ieee754.Mxcsr.set_flags st.State.mxcsr fl;
      let unmasked = Ieee754.Mxcsr.unmasked_events st.State.mxcsr fl in
      if unmasked <> F.none then Fp_fault { index = idx; events = unmasked }
      else begin
        write_result st insn 0 r;
        advance ();
        Running
      end
    end
  | Isa.Cvt_f2f { from_w; src; _ } -> begin
      st.State.fp_insn_count <- st.State.fp_insn_count + 1;
      cyc cost.Cost_model.fp_add;
      let mode = Ieee754.Mxcsr.rounding st.State.mxcsr in
      let r, fl =
        match from_w with
        | Isa.F64 -> Ieee754.Convert.f64_to_f32 mode (read_f64 st src 0)
        | Isa.F32 -> Ieee754.Convert.f32_to_f64 mode (read_f32 st src)
      in
      Ieee754.Mxcsr.set_flags st.State.mxcsr fl;
      let unmasked = Ieee754.Mxcsr.unmasked_events st.State.mxcsr fl in
      if unmasked <> F.none then Fp_fault { index = idx; events = unmasked }
      else begin
        write_result st insn 0 r;
        advance ();
        Running
      end
    end
  | Isa.Cvt_f2i { w; truncate; size; src; _ } -> begin
      st.State.fp_insn_count <- st.State.fp_insn_count + 1;
      cyc cost.Cost_model.fp_add;
      let mode =
        if truncate then Ieee754.Softfp.Toward_zero
        else Ieee754.Mxcsr.rounding st.State.mxcsr
      in
      let v, fl =
        match (w, size) with
        | Isa.F64, 8 -> S64.to_int64 mode (read_f64 st src 0)
        | Isa.F64, _ ->
            let v, fl = S64.to_int32 mode (read_f64 st src 0) in
            (Int64.of_int32 v, fl)
        | Isa.F32, 8 -> S32.to_int64 mode (read_f32 st src)
        | Isa.F32, _ ->
            let v, fl = S32.to_int32 mode (read_f32 st src) in
            (Int64.of_int32 v, fl)
      in
      Ieee754.Mxcsr.set_flags st.State.mxcsr fl;
      let unmasked = Ieee754.Mxcsr.unmasked_events st.State.mxcsr fl in
      if unmasked <> F.none then Fp_fault { index = idx; events = unmasked }
      else begin
        write_result st insn 0 v;
        advance ();
        Running
      end
    end
  | Isa.Cvt_i2f { w; size; src; _ } -> begin
      st.State.fp_insn_count <- st.State.fp_insn_count + 1;
      cyc cost.Cost_model.fp_add;
      let mode = Ieee754.Mxcsr.rounding st.State.mxcsr in
      let iv = read_int st size src in
      let iv =
        if size = 4 then Int64.of_int32 (Int64.to_int32 iv) else iv
      in
      let r, fl =
        match w with
        | Isa.F64 -> S64.of_int64 mode iv
        | Isa.F32 -> S32.of_int64 mode iv
      in
      Ieee754.Mxcsr.set_flags st.State.mxcsr fl;
      let unmasked = Ieee754.Mxcsr.unmasked_events st.State.mxcsr fl in
      if unmasked <> F.none then Fp_fault { index = idx; events = unmasked }
      else begin
        write_result st insn 0 r;
        advance ();
        Running
      end
    end
  (* --- non-trapping FP data movement / bit ops --- *)
  | Isa.Mov_f { w; dst; src } ->
      cyc cost.Cost_model.fp_move;
      (match w with
      | Isa.F64 -> begin
          let v = read_f64 st src 0 in
          write_f64 st dst 0 v;
          (* load from memory zeroes the upper lane *)
          match (dst, src) with
          | Isa.Xmm i, Isa.Mem _ -> State.set_xmm st i 1 0L
          | _ -> ()
        end
      | Isa.F32 -> write_f32 st dst (read_f32 st src));
      advance ();
      Running
  | Isa.Mov_x { dst; src } ->
      cyc cost.Cost_model.fp_move;
      (match (dst, src) with
      | Isa.Xmm d, Isa.Xmm s ->
          State.set_xmm st d 0 (State.get_xmm st s 0);
          State.set_xmm st d 1 (State.get_xmm st s 1)
      | Isa.Xmm d, Isa.Mem m ->
          let a = State.ea st m in
          State.set_xmm st d 0 (State.load64 st a);
          State.set_xmm st d 1 (State.load64 st (a + 8))
      | Isa.Mem m, Isa.Xmm s ->
          let a = State.ea st m in
          State.store64 st a (State.get_xmm st s 0);
          State.store64 st (a + 8) (State.get_xmm st s 1)
      | _ -> raise (Invalid_insn "movapd"));
      advance ();
      Running
  | Isa.Fp_bit { op; dst; src } ->
      cyc cost.Cost_model.fp_move;
      let f a b =
        match op with
        | Isa.BXOR -> Int64.logxor a b
        | Isa.BAND -> Int64.logand a b
        | Isa.BOR -> Int64.logor a b
        | Isa.BANDN -> Int64.logand (Int64.lognot a) b
      in
      for lane = 0 to 1 do
        let a = read_f64 st dst lane and b = read_f64 st src lane in
        write_f64 st dst lane (f a b)
      done;
      advance ();
      Running
  | Isa.Movq_xr { dst; src } ->
      cyc cost.Cost_model.fp_move;
      State.set_gpr st dst (State.get_xmm st src 0);
      advance ();
      Running
  | Isa.Movq_rx { dst; src } ->
      cyc cost.Cost_model.fp_move;
      State.set_xmm st dst 0 (State.get_gpr st src);
      State.set_xmm st dst 1 0L;
      advance ();
      Running
  (* --- integer --- *)
  | Isa.Mov { size; dst; src } ->
      cyc
        (match (dst, src) with
        | (Isa.Mem _, _ | _, Isa.Mem _) -> cost.Cost_model.mem_op
        | _ -> cost.Cost_model.int_op);
      let v = read_int st size src in
      (* 32-bit loads sign-extend for arithmetic convenience? x64 movl
         zero-extends; we zero-extend in write_int. *)
      write_int st size dst v;
      advance ();
      Running
  | Isa.Lea { dst; src } ->
      cyc cost.Cost_model.int_op;
      State.set_gpr st dst (Int64.of_int (State.ea st src));
      advance ();
      Running
  | Isa.Int_arith { op; dst; src } ->
      cyc cost.Cost_model.int_op;
      let a = read_int st 8 dst and b = read_int st 8 src in
      let r =
        match op with
        | Isa.ADD -> Int64.add a b
        | Isa.SUB -> Int64.sub a b
        | Isa.IMUL -> Int64.mul a b
        | Isa.AND -> Int64.logand a b
        | Isa.OR -> Int64.logor a b
        | Isa.XOR -> Int64.logxor a b
        | Isa.SHL -> Int64.shift_left a (Int64.to_int b land 63)
        | Isa.SHR -> Int64.shift_right_logical a (Int64.to_int b land 63)
        | Isa.SAR -> Int64.shift_right a (Int64.to_int b land 63)
      in
      (match op with
      | Isa.ADD -> set_addsub_flags st ~is_sub:false a b r
      | Isa.SUB -> set_addsub_flags st ~is_sub:true a b r
      | Isa.AND | Isa.OR | Isa.XOR -> set_logic_flags st r
      | Isa.IMUL | Isa.SHL | Isa.SHR | Isa.SAR ->
          st.State.zf <- Int64.equal r 0L;
          st.State.sf <- Int64.compare r 0L < 0;
          st.State.pf <- parity8 r);
      write_int st 8 dst r;
      advance ();
      Running
  | Isa.Cmp { a; b } ->
      cyc cost.Cost_model.int_op;
      let x = read_int st 8 a and y = read_int st 8 b in
      set_addsub_flags st ~is_sub:true x y (Int64.sub x y);
      advance ();
      Running
  | Isa.Test { a; b } ->
      cyc cost.Cost_model.int_op;
      let x = read_int st 8 a and y = read_int st 8 b in
      set_logic_flags st (Int64.logand x y);
      advance ();
      Running
  | Isa.Inc o ->
      cyc cost.Cost_model.int_op;
      let v = Int64.add (read_int st 8 o) 1L in
      write_int st 8 o v;
      st.State.zf <- Int64.equal v 0L;
      st.State.sf <- Int64.compare v 0L < 0;
      advance ();
      Running
  | Isa.Dec o ->
      cyc cost.Cost_model.int_op;
      let v = Int64.sub (read_int st 8 o) 1L in
      write_int st 8 o v;
      st.State.zf <- Int64.equal v 0L;
      st.State.sf <- Int64.compare v 0L < 0;
      advance ();
      Running
  | Isa.Neg o ->
      cyc cost.Cost_model.int_op;
      let v = Int64.neg (read_int st 8 o) in
      write_int st 8 o v;
      st.State.zf <- Int64.equal v 0L;
      st.State.sf <- Int64.compare v 0L < 0;
      advance ();
      Running
  | Isa.Push o ->
      cyc cost.Cost_model.mem_op;
      State.push64 st (read_int st 8 o);
      advance ();
      Running
  | Isa.Pop o ->
      cyc cost.Cost_model.mem_op;
      let v = State.pop64 st in
      write_int st 8 o v;
      advance ();
      Running
  (* --- control flow --- *)
  | Isa.Jmp t ->
      cyc cost.Cost_model.branch;
      st.State.rip <- t;
      Running
  | Isa.Jcc (c, t) ->
      cyc cost.Cost_model.branch;
      if cond_holds st c then st.State.rip <- t else advance ();
      Running
  | Isa.Call t ->
      cyc cost.Cost_model.branch;
      State.push64 st (Int64.of_int (idx + 1));
      st.State.rip <- t;
      Running
  | Isa.Ret ->
      cyc cost.Cost_model.branch;
      st.State.rip <- Int64.to_int (State.pop64 st);
      Running
  | Isa.Call_ext fn -> begin
      cyc cost.Cost_model.call_ext;
      let handled =
        match st.State.hooks.State.on_ext_call with
        | Some h -> h st fn
        | None -> false
      in
      if not handled then native_ext st fn;
      if st.State.halted then Halted
      else begin
        advance ();
        Running
      end
    end
  | Isa.Nop ->
      cyc cost.Cost_model.int_op;
      advance ();
      Running
  | Isa.Halt ->
      st.State.halted <- true;
      Halted
  (* --- FPVM instrumentation --- *)
  | Isa.Correctness_trap original ->
      Correctness_fault { index = idx; original }
  | Isa.Checked original -> begin
      cyc cost.Cost_model.checked_stub;
      let handled =
        match st.State.hooks.State.on_checked with
        | Some h -> h st idx original
        | None -> false
      in
      if handled then begin
        (* FPVM emulated the instruction and fixed up RIP itself. *)
        if st.State.rip = idx then st.State.rip <- idx + 1;
        Running
      end
      else dispatch st idx original
    end
  | Isa.Free_hint o -> begin
      cyc cost.Cost_model.int_op;
      (match st.State.hooks.State.on_free_hint with
      | Some h -> h st o
      | None -> ());
      advance ();
      Running
    end
  | Isa.Patched { site_id; original } -> begin
      cyc cost.Cost_model.patch_check;
      let handled =
        match st.State.hooks.State.on_patched with
        | Some h -> h st idx site_id original
        | None -> false
      in
      if handled then begin
        if st.State.rip = idx then st.State.rip <- idx + 1;
        Running
      end
      else dispatch st idx original
    end

let step st : outcome =
  if st.State.halted then Halted
  else begin
    let idx = st.State.rip in
    if idx < 0 || idx >= Array.length st.State.prog.Program.insns then begin
      st.State.halted <- true;
      Halted
    end
    else begin
      st.State.insn_count <- st.State.insn_count + 1;
      let insn = st.State.prog.Program.insns.(idx) in
      (match st.State.hooks.State.on_step with
      | Some h -> h st idx insn
      | None -> ());
      dispatch st idx insn
    end
  end

(* Run without any FPVM attached (the "native" baseline): all exceptions
   masked, so no faults can occur. *)
let run_native ?(max_insns = max_int) st =
  let rec go n =
    if n >= max_insns then failwith "run_native: instruction budget exceeded"
    else
      match step st with
      | Running -> go (n + 1)
      | Halted -> ()
      | Fp_fault _ -> failwith "run_native: unexpected FP fault (mask set?)"
      | Correctness_fault _ ->
          failwith "run_native: correctness trap in unpatched binary"
  in
  go 0

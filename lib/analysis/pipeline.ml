(* The precision-tiered VSA pipeline (paper §4.2, per Balakrishnan-Reps):
   a forward abstract interpretation over the real CFG, with

   tier 1 — CFG + reverse-postorder worklist (Cfg, Fixpoint);
   tier 2 — strided-interval value tracking for GPRs and 8-byte memory
            cells (Si / Domain), with copy provenance from registers back
            to their root cells and compare/branch refinement, so an
            indexed store  [A + i*8]  with  i ∈ 1[0,n-1]  taints exactly
            8[A, A+8(n-1)] instead of Anywhere;
   tier 3 — flow-sensitive taint with strong updates: an exact 8-byte
            integer (or provably-clean FP) store kills the FP taint of
            the bytes it overwrites;
   tier 4 — sink classification with exemptions the flow-insensitive
            pass cannot justify (clean-operand xmm bit ops, dead
            gpr<-xmm moves), feeding trap-check elision in the engine.

   Conservatism contract: if the analysis cannot *prove* an instruction
   never observes a NaN-boxed value, the instruction is patched.  The
   runtime soundness oracle (engine --oracle) checks the complement: no
   unpatched integer load may ever observe a live boxed value.

   Taint soundness argument (why integer stores never *add* taint):
   boxed values can only be written to memory by FP stores of dirty xmm
   registers — GPRs never hold boxed bits, because every integer load
   that could observe a box is itself a sink (hence patched, hence
   demoted before the load executes), Cvt_f2i results are real integers,
   and Movq_xr sinks demote their source first.  The oracle validates
   exactly this inductive invariant at runtime.

   Known gap (documented): integer arithmetic
   performed *in place* on a tainted memory cell (Int_arith/Inc/Dec/Neg
   with a memory destination) keeps the taint — the result of arithmetic
   on a boxed pattern may still look boxed — but is not itself treated
   as a sink class. *)

type sink_kind = K_int_load | K_movq | K_fp_bit

type sink = { sink_index : int; kind : sink_kind; srcs : int list }

type t = {
  sinks : sink list; (* ascending by index *)
  sources : int list; (* static FP-store sites that may write boxed values *)
  total_int_loads : int;
  proven_safe_loads : int;
  trap_checks_elided : int; (* proven loads + exempted movq / fp_bit sites *)
  iterations : int; (* block transfers until fixpoint *)
  n_blocks : int;
  n_loop_heads : int;
  tainted : (int * int * int list) list; (* [lo,hi) spans w/ sources, at exit *)
  bailed_out : bool; (* iteration budget blown: everything conservative *)
}

(* ---- memory access resolution ------------------------------------------- *)

type acc = { alo : int; ahi : int (* exclusive *); aexact : int option }

let gi = Machine.Isa.gpr_index

let addr_si (st : Domain.st) (m : Machine.Isa.mem_addr) =
  let reg_si r = st.Domain.regs.(gi r).Domain.si in
  let base = match m.base with None -> Si.singleton 0 | Some r -> reg_si r in
  let index =
    match m.index with
    | None -> Si.singleton 0
    | Some r -> Si.mul (reg_si r) (Si.singleton m.scale)
  in
  Si.add (Si.add base index) (Si.singleton m.disp)

let resolve mem_size (st : Domain.st) (m : Machine.Isa.mem_addr) size : acc =
  let a = addr_si st m in
  match Si.as_singleton a with
  | Some v when v >= 0 && v + size <= mem_size -> { alo = v; ahi = v + size; aexact = Some v }
  | Some v -> { alo = max 0 (min v mem_size); ahi = max 0 (min (v + size) mem_size); aexact = None }
  | None ->
      let lo, hi =
        match Si.bounds a with
        | Some (Some l, Some h) -> (l, h + size)
        | Some (Some l, None) -> (l, mem_size)
        | Some (None, Some h) -> (0, h + size)
        | _ -> (0, mem_size)
      in
      let lo = max 0 (min lo mem_size) in
      let hi = max lo (min hi mem_size) in
      { alo = lo; ahi = hi; aexact = None }

let is_cell mem_size a = a land 7 = 0 && a >= 0 && a + 8 <= mem_size

let overlaps_cell a lo hi = a + 8 > lo && a < hi

(* drop cell bindings inside [lo,hi) and sever provenance links into it;
   a range that meets no binding and no link leaves the state as it is *)
let invalidate_range (st : Domain.st) lo hi : Domain.st =
  if hi <= lo then st
  else begin
    let meets = function Some c -> overlaps_cell c lo hi | None -> false in
    let reg_hit = Array.exists (fun (r : Domain.rv) -> meets r.Domain.copy_of) st.Domain.regs in
    let cell_hit =
      (match Ptree.Map.min_geq (lo - 7) st.Domain.cells with
      | Some (a, _) -> a < hi
      | None -> false)
      || Ptree.Map.exists (fun _ (c : Domain.cell) -> meets c.Domain.cell_copy_of) st.Domain.cells
    in
    let regs =
      if not reg_hit then st.Domain.regs
      else
        Array.map
          (fun (r : Domain.rv) -> if meets r.Domain.copy_of then { r with Domain.copy_of = None } else r)
          st.Domain.regs
    in
    let cells =
      if not cell_hit then st.Domain.cells
      else
        Ptree.Map.filter_map
          (fun a (c : Domain.cell) ->
            if overlaps_cell a lo hi then None
            else if meets c.Domain.cell_copy_of then Some { c with Domain.cell_copy_of = None }
            else Some c)
          st.Domain.cells
    in
    if reg_hit || cell_hit then { st with Domain.regs; cells } else st
  end

let untainted (st : Domain.st) lo hi = Ptree.Set.is_empty (Domain.taint_query st.Domain.taint ~lo ~hi)

(* ---- the transfer function ----------------------------------------------- *)

type ctx = {
  insns : Machine.Isa.insn array;
  mem_size : int;
  heap_base : int;
  cfg : Cfg.t;
  mutable reporting : bool; (* set by [report]: its walk records sources *)
  mutable srcs_acc : Ptree.Set.t; (* static source sites seen *)
}

let set_reg (st : Domain.st) r (rv : Domain.rv) =
  let regs = Array.copy st.Domain.regs in
  regs.(r) <- rv;
  { st with Domain.regs = regs }

let set_xmm_clean (st : Domain.st) x v =
  if st.Domain.xmm_clean.(x) = v then st
  else begin
    let xc = Array.copy st.Domain.xmm_clean in
    xc.(x) <- v;
    { st with Domain.xmm_clean = xc }
  end

let load_rv (st : Domain.st) a : Domain.rv =
  match Ptree.Map.find_opt a st.Domain.cells with
  | Some c ->
      { Domain.si = c.Domain.cv;
        copy_of = Some (match c.Domain.cell_copy_of with Some r -> r | None -> a) }
  | None -> { Domain.si = Si.top; copy_of = Some a }

(* exact 8-byte integer (or provably-clean) store: strong update *)
let store_clean_exact ctx (st : Domain.st) a (rv : Domain.rv) : Domain.st =
  let st = invalidate_range st a (a + 8) in
  let st = { st with Domain.taint = Domain.taint_kill st.Domain.taint ~lo:a ~hi:(a + 8) } in
  if is_cell ctx.mem_size a then begin
    let root = match rv.Domain.copy_of with Some rc when rc <> a -> Some rc | _ -> None in
    { st with Domain.cells = Ptree.Map.add a { Domain.cv = rv.Domain.si; cell_copy_of = root } st.Domain.cells }
  end
  else st

(* a dirty FP store: invalidate + taint the (bounded) range *)
let store_dirty ctx idx (st : Domain.st) (a : acc) : Domain.st =
  if ctx.reporting then ctx.srcs_acc <- Ptree.Set.add idx ctx.srcs_acc;
  let st = invalidate_range st a.alo a.ahi in
  { st with Domain.taint = Domain.taint_add st.Domain.taint ~lo:a.alo ~hi:a.ahi ~srcs:(Ptree.Set.singleton idx) }

let rv_of_operand ctx (st : Domain.st) size (o : Machine.Isa.operand) : Domain.rv =
  match o with
  | Machine.Isa.Reg r -> st.Domain.regs.(gi r)
  | Machine.Isa.Imm v -> { Domain.si = Si.singleton (Int64.to_int v); copy_of = None }
  | Machine.Isa.Mem m ->
      let a = resolve ctx.mem_size st m size in
      if size = 8 then
        (match a.aexact with
        | Some v when is_cell ctx.mem_size v -> load_rv st v
        | _ -> Domain.top_rv)
      else if size = 4 then { Domain.si = Si.range 0 0xFFFFFFFF; copy_of = None }
      else Domain.top_rv
  | Machine.Isa.Xmm _ -> Domain.top_rv

(* does [m] mention register [r]? *)
let mem_uses (m : Machine.Isa.mem_addr) r = m.base = Some r || m.index = Some r

(* does the instruction after a Movq_xr fully overwrite [dst] without
   reading it?  (the dead-move exemption) *)
let overwrites_without_read (next : Machine.Isa.insn) (dst : Machine.Isa.gpr) =
  match next with
  | Machine.Isa.Mov { size = 8; dst = Machine.Isa.Reg r; src } when r = dst -> begin
      match src with
      | Machine.Isa.Imm _ -> true
      | Machine.Isa.Reg s -> s <> dst
      | Machine.Isa.Mem m -> not (mem_uses m dst)
      | Machine.Isa.Xmm _ -> false
    end
  | Machine.Isa.Lea { dst = r; src } when r = dst -> not (mem_uses src dst)
  | Machine.Isa.Pop (Machine.Isa.Reg r) when r = dst -> true
  | Machine.Isa.Movq_xr { dst = r; _ } when r = dst -> true
  | Machine.Isa.Cvt_f2i { dst = Machine.Isa.Reg r; _ } when r = dst -> true
  | _ -> false

let int_op_si (op : Machine.Isa.int_op) a b =
  match op with
  | Machine.Isa.ADD -> Si.add a b
  | Machine.Isa.SUB -> Si.sub a b
  | Machine.Isa.IMUL -> Si.mul a b
  | Machine.Isa.AND -> Si.logand a b
  | Machine.Isa.OR -> Si.logor a b
  | Machine.Isa.XOR -> Si.logxor a b
  | Machine.Isa.SHL -> (match Si.as_singleton b with Some k -> Si.shl a k | None -> Si.top)
  | Machine.Isa.SHR | Machine.Isa.SAR -> begin
      match (Si.as_singleton a, Si.as_singleton b) with
      | Some x, Some k when k >= 0 && k < 63 ->
          Si.singleton
            (if op = Machine.Isa.SAR then x asr k
             else if x >= 0 then x lsr k
             else Int64.to_int (Int64.shift_right_logical (Int64.of_int x) k))
      | _ -> Si.top
    end

let origin_of ctx (st : Domain.st) (o : Machine.Isa.operand) : Domain.origin =
  match o with
  | Machine.Isa.Reg r ->
      { Domain.osi = st.Domain.regs.(gi r).Domain.si;
        oreg = Some (gi r);
        ocell = st.Domain.regs.(gi r).Domain.copy_of }
  | Machine.Isa.Imm v -> { Domain.osi = Si.singleton (Int64.to_int v); oreg = None; ocell = None }
  | Machine.Isa.Mem m -> begin
      let a = resolve ctx.mem_size st m 8 in
      match a.aexact with
      | Some v when is_cell ctx.mem_size v ->
          let rv = load_rv st v in
          { Domain.osi = rv.Domain.si; oreg = None; ocell = rv.Domain.copy_of }
      | _ -> { Domain.osi = Si.top; oreg = None; ocell = None }
    end
  | Machine.Isa.Xmm _ -> { Domain.osi = Si.top; oreg = None; ocell = None }

(* FP store helper: [w8] is the store width in bytes (8 or 16); clean
   stores kill taint when exact, dirty stores taint the range. *)
let fp_store ctx idx (st : Domain.st) (m : Machine.Isa.mem_addr) ~bytes ~clean : Domain.st =
  let a = resolve ctx.mem_size st m bytes in
  if clean then begin
    let st = invalidate_range st a.alo a.ahi in
    match a.aexact with
    | Some v -> { st with Domain.taint = Domain.taint_kill st.Domain.taint ~lo:v ~hi:(v + bytes) }
    | None -> st
  end
  else store_dirty ctx idx st a

let xmm_of (o : Machine.Isa.operand) = match o with Machine.Isa.Xmm i -> Some i | _ -> None

(* Transfer one instruction.  [idx] is its index; returns the post
   state.  The compare-fact slot is cleared unless the instruction is a
   Cmp (which sets it) or a Jcc (which reads it downstream). *)
let transfer ctx idx (st0 : Domain.st) (insn : Machine.Isa.insn) : Domain.st =
  let st =
    match insn with
    | Machine.Isa.Cmp _ | Machine.Isa.Jcc _ -> st0
    | _ -> if st0.Domain.cmp = None then st0 else { st0 with Domain.cmp = None }
  in
  let mem_size = ctx.mem_size in
  match insn with
  (* ---- integer data movement ---- *)
  | Machine.Isa.Mov { size; dst; src } -> begin
      let rv = rv_of_operand ctx st size src in
      match dst with
      | Machine.Isa.Reg r ->
          if size = 8 then set_reg st (gi r) rv
          else if size = 4 then
            (* 32-bit writes zero-extend *)
            let si =
              match Si.bounds rv.Domain.si with
              | Some (Some l, Some h) when l >= 0 && h < 0x100000000 -> rv.Domain.si
              | _ -> Si.range 0 0xFFFFFFFF
            in
            set_reg st (gi r) { Domain.si; copy_of = None }
          else set_reg st (gi r) Domain.top_rv
      | Machine.Isa.Mem m -> begin
          let a = resolve mem_size st m size in
          match a.aexact with
          | Some v when size = 8 ->
              (* full 8-byte overwrite: strong update, kills taint *)
              let st = store_clean_exact ctx st v rv in
              (* the source register now mirrors the cell *)
              (match src with
              | Machine.Isa.Reg sr when rv.Domain.copy_of = None && is_cell mem_size v ->
                  set_reg st (gi sr) { rv with Domain.copy_of = Some v }
              | _ -> st)
          | _ ->
              (* partial or imprecise: no strong update (a 4-byte store
                 cannot un-box the containing word) *)
              invalidate_range st a.alo a.ahi
        end
      | _ -> st
    end
  | Machine.Isa.Lea { dst; src } ->
      set_reg st (gi dst) { Domain.si = addr_si st src; copy_of = None }
  | Machine.Isa.Int_arith { op; dst; src } -> begin
      let b = (rv_of_operand ctx st 8 src).Domain.si in
      match dst with
      | Machine.Isa.Reg r ->
          let res =
            match (op, src) with
            | Machine.Isa.XOR, Machine.Isa.Reg s when s = r -> Si.singleton 0
            | _ -> int_op_si op st.Domain.regs.(gi r).Domain.si b
          in
          set_reg st (gi r) { Domain.si = res; copy_of = None }
      | Machine.Isa.Mem m ->
          (* read-modify-write on memory: value changes (drop binding)
             but taint survives — arithmetic on a boxed pattern may
             still look boxed (documented gap) *)
          let a = resolve mem_size st m 8 in
          invalidate_range st a.alo a.ahi
      | _ -> st
    end
  | Machine.Isa.Cmp { a; b } ->
      { st with Domain.cmp = Some { Domain.ca = origin_of ctx st a; cb = origin_of ctx st b } }
  | Machine.Isa.Test _ -> st
  | Machine.Isa.Inc o | Machine.Isa.Dec o | Machine.Isa.Neg o -> begin
      let delta v =
        match insn with
        | Machine.Isa.Inc _ -> Si.add v (Si.singleton 1)
        | Machine.Isa.Dec _ -> Si.sub v (Si.singleton 1)
        | _ -> Si.neg v
      in
      match o with
      | Machine.Isa.Reg r ->
          set_reg st (gi r) { Domain.si = delta st.Domain.regs.(gi r).Domain.si; copy_of = None }
      | Machine.Isa.Mem m ->
          let a = resolve mem_size st m 8 in
          invalidate_range st a.alo a.ahi
      | _ -> st
    end
  | Machine.Isa.Push o -> begin
      let rv = rv_of_operand ctx st 8 o in
      let rsp = st.Domain.regs.(gi Machine.Isa.RSP) in
      let nsp = Si.sub rsp.Domain.si (Si.singleton 8) in
      let st = set_reg st (gi Machine.Isa.RSP) { Domain.si = nsp; copy_of = None } in
      match Si.as_singleton nsp with
      | Some a when a >= 0 && a + 8 <= mem_size -> store_clean_exact ctx st a rv
      | _ ->
          let lo, hi =
            match Si.bounds nsp with
            | Some (Some l, Some h) -> (max 0 l, min mem_size (h + 8))
            | _ -> (0, mem_size)
          in
          invalidate_range st lo hi
    end
  | Machine.Isa.Pop o -> begin
      let rsp = st.Domain.regs.(gi Machine.Isa.RSP) in
      let rv =
        match Si.as_singleton rsp.Domain.si with
        | Some a when is_cell mem_size a -> load_rv st a
        | _ -> Domain.top_rv
      in
      let st =
        set_reg st (gi Machine.Isa.RSP)
          { Domain.si = Si.add rsp.Domain.si (Si.singleton 8); copy_of = None }
      in
      match o with
      | Machine.Isa.Reg r when r <> Machine.Isa.RSP -> set_reg st (gi r) rv
      | Machine.Isa.Mem m -> begin
          let a = resolve mem_size st m 8 in
          match a.aexact with
          | Some v -> store_clean_exact ctx st v rv
          | None -> invalidate_range st a.alo a.ahi
        end
      | _ -> st
    end
  (* ---- control flow ---- *)
  | Machine.Isa.Jmp _ | Machine.Isa.Jcc _ | Machine.Isa.Nop | Machine.Isa.Halt -> st
  | Machine.Isa.Call t ->
      ignore t;
      let rsp = st.Domain.regs.(gi Machine.Isa.RSP) in
      let nsp = Si.sub rsp.Domain.si (Si.singleton 8) in
      let st = set_reg st (gi Machine.Isa.RSP) { Domain.si = nsp; copy_of = None } in
      (match Si.as_singleton nsp with
      | Some a when a >= 0 && a + 8 <= mem_size ->
          store_clean_exact ctx st a { Domain.si = Si.singleton (idx + 1); copy_of = None }
      | _ -> st)
  | Machine.Isa.Ret ->
      let rsp = st.Domain.regs.(gi Machine.Isa.RSP) in
      set_reg st (gi Machine.Isa.RSP)
        { Domain.si = Si.add rsp.Domain.si (Si.singleton 8); copy_of = None }
  | Machine.Isa.Call_ext fn -> begin
      match fn with
      | Machine.Isa.Alloc ->
          set_reg st (gi Machine.Isa.RAX)
            { Domain.si = Si.range ctx.heap_base (mem_size - 1); copy_of = None }
      | Machine.Isa.Print_f64 | Machine.Isa.Print_i64 | Machine.Isa.Print_str _
      | Machine.Isa.Write_f64 | Machine.Isa.Exit -> st
      | _ ->
          (* libm: result lands in xmm0, boxed under emulation *)
          set_xmm_clean st 0 false
    end
  | Machine.Isa.Free_hint _ -> st
  (* ---- FP instructions ---- *)
  | Machine.Isa.Fp_arith { w; dst; src = _; _ } -> begin
      match (dst, w) with
      | Machine.Isa.Xmm x, _ -> set_xmm_clean st x false
      | Machine.Isa.Mem m, Machine.Isa.F64 -> fp_store ctx idx st m ~bytes:8 ~clean:false
      | Machine.Isa.Mem m, Machine.Isa.F32 ->
          let a = resolve mem_size st m 4 in
          invalidate_range st a.alo a.ahi
      | _ -> st
    end
  | Machine.Isa.Fp_cmp _ -> st
  | Machine.Isa.Fp_cmppred { w; dst; _ } -> begin
      (* writes an all-ones / all-zeros mask: never a boxed pattern *)
      match (dst, w) with
      | Machine.Isa.Xmm _, _ -> st (* lane0 clean, lane1 untouched: flag unchanged *)
      | Machine.Isa.Mem m, Machine.Isa.F64 -> begin
          let a = resolve mem_size st m 8 in
          match a.aexact with
          | Some v -> store_clean_exact ctx st v Domain.top_rv
          | None -> invalidate_range st a.alo a.ahi
        end
      | Machine.Isa.Mem m, Machine.Isa.F32 ->
          let a = resolve mem_size st m 4 in
          invalidate_range st a.alo a.ahi
      | _ -> st
    end
  | Machine.Isa.Fp_round { w; dst; _ } -> begin
      let to_f32 = w = Machine.Isa.F32 in
      match dst with
      | Machine.Isa.Xmm x ->
          if to_f32 then st (* merges low 32 bits: boxedness of the word unchanged *)
          else set_xmm_clean st x false
      | Machine.Isa.Mem m ->
          if to_f32 then
            let a = resolve mem_size st m 4 in
            invalidate_range st a.alo a.ahi
          else fp_store ctx idx st m ~bytes:8 ~clean:false
      | _ -> st
    end
  | Machine.Isa.Cvt_f2f { from_w; dst; _ } -> begin
      let to_f32 = from_w = Machine.Isa.F64 in (* narrowing writes 4 bytes *)
      match dst with
      | Machine.Isa.Xmm x ->
          if to_f32 then st (* merges low 32 bits: boxedness of the word unchanged *)
          else set_xmm_clean st x false
      | Machine.Isa.Mem m ->
          if to_f32 then
            let a = resolve mem_size st m 4 in
            invalidate_range st a.alo a.ahi
          else fp_store ctx idx st m ~bytes:8 ~clean:false
      | _ -> st
    end
  | Machine.Isa.Cvt_f2i { dst; _ } -> begin
      (* result is a real integer (emulated or native): clean *)
      match dst with
      | Machine.Isa.Reg r -> set_reg st (gi r) Domain.top_rv
      | Machine.Isa.Mem m -> begin
          let a = resolve mem_size st m 8 in
          match a.aexact with
          | Some v -> store_clean_exact ctx st v Domain.top_rv
          | None -> invalidate_range st a.alo a.ahi
        end
      | _ -> st
    end
  | Machine.Isa.Cvt_i2f { w; dst; _ } -> begin
      match (dst, w) with
      | Machine.Isa.Xmm x, Machine.Isa.F64 -> set_xmm_clean st x false
      | Machine.Isa.Xmm _, Machine.Isa.F32 -> st
      | Machine.Isa.Mem m, Machine.Isa.F64 -> fp_store ctx idx st m ~bytes:8 ~clean:false
      | Machine.Isa.Mem m, Machine.Isa.F32 ->
          let a = resolve mem_size st m 4 in
          invalidate_range st a.alo a.ahi
      | _ -> st
    end
  | Machine.Isa.Mov_f { w = Machine.Isa.F64; dst; src } -> begin
      let src_clean =
        match src with
        | Machine.Isa.Xmm s -> st.Domain.xmm_clean.(s)
        | Machine.Isa.Mem m ->
            let a = resolve mem_size st m 8 in
            untainted st a.alo a.ahi
        | _ -> false
      in
      match (dst, src) with
      | Machine.Isa.Xmm d, Machine.Isa.Mem _ ->
          (* memory load zeroes the upper lane *)
          set_xmm_clean st d src_clean
      | Machine.Isa.Xmm d, Machine.Isa.Xmm _ ->
          (* lane0 replaced, lane1 keeps its old bits *)
          set_xmm_clean st d (st.Domain.xmm_clean.(d) && src_clean)
      | Machine.Isa.Mem m, _ -> fp_store ctx idx st m ~bytes:8 ~clean:src_clean
      | _ -> st
    end
  | Machine.Isa.Mov_f { w = Machine.Isa.F32; dst; src = _ } -> begin
      (* 4-byte moves can neither create nor destroy a boxed 8-byte
         pattern (boxedness lives in the high dword) *)
      match dst with
      | Machine.Isa.Mem m ->
          let a = resolve mem_size st m 4 in
          invalidate_range st a.alo a.ahi
      | _ -> st
    end
  | Machine.Isa.Mov_x { dst; src } -> begin
      let src_clean =
        match src with
        | Machine.Isa.Xmm s -> st.Domain.xmm_clean.(s)
        | Machine.Isa.Mem m ->
            let a = resolve mem_size st m 16 in
            untainted st a.alo a.ahi
        | _ -> false
      in
      match dst with
      | Machine.Isa.Xmm d -> set_xmm_clean st d src_clean
      | Machine.Isa.Mem m -> begin
          let a = resolve mem_size st m 16 in
          if src_clean then begin
            let st = invalidate_range st a.alo a.ahi in
            match a.aexact with
            | Some v -> { st with Domain.taint = Domain.taint_kill st.Domain.taint ~lo:v ~hi:(v + 16) }
            | None -> st
          end
          else store_dirty ctx idx st a
        end
      | _ -> st
    end
  | Machine.Isa.Fp_bit { op; dst; src } -> begin
      match (dst, src) with
      | Machine.Isa.Xmm d, Machine.Isa.Xmm s when d = s ->
          if op = Machine.Isa.BXOR || op = Machine.Isa.BANDN then set_xmm_clean st d true
            (* xorpd x,x / andnpd x,x zero the register *)
          else st (* and/or with itself: bits unchanged *)
      | Machine.Isa.Xmm d, _ ->
          (* bit ops on clean inputs can still fabricate a box-shaped
             pattern (e.g. OR setting the tag bit), so the result is
             conservatively dirty *)
          set_xmm_clean st d false
      | Machine.Isa.Mem m, _ ->
          (* in-place rmw on 16 bytes: existing taint survives, no new
             FPVM-introduced box can appear *)
          let a = resolve mem_size st m 16 in
          invalidate_range st a.alo a.ahi
      | _ -> st
    end
  | Machine.Isa.Movq_xr { dst; _ } -> set_reg st (gi dst) Domain.top_rv
  | Machine.Isa.Movq_rx { dst; _ } ->
      (* xmm <- gpr zeroes the upper lane; GPRs never hold boxed bits
         (the inductive invariant the oracle checks) *)
      set_xmm_clean st dst true
  | Machine.Isa.Correctness_trap _ | Machine.Isa.Checked _ | Machine.Isa.Patched _ ->
      st (* never appears: the pipeline runs on the stripped program *)

(* ---- branch refinement ---------------------------------------------------- *)

(* meet the origin's register and root cell with [si'] on one edge *)
let refine_origin (st : Domain.st) (o : Domain.origin) si' : Domain.st option =
  let m = Si.meet o.Domain.osi si' in
  if Si.is_bot m then None
  else begin
    let st =
      match o.Domain.oreg with
      | Some r when Si.equal st.Domain.regs.(r).Domain.si o.Domain.osi ->
          set_reg st r { st.Domain.regs.(r) with Domain.si = m }
      | _ -> st
    in
    let st =
      match o.Domain.ocell with
      | Some c -> begin
          match Ptree.Map.find_opt c st.Domain.cells with
          | Some cell when Si.equal cell.Domain.cv o.Domain.osi ->
              { st with Domain.cells = Ptree.Map.add c { cell with Domain.cv = m } st.Domain.cells }
          | None ->
              { st with
                Domain.cells = Ptree.Map.add c { Domain.cv = m; cell_copy_of = None } st.Domain.cells }
          | Some _ -> st
        end
      | None -> st
    in
    Some st
  end

let half_below hi = Si.range Si.ninf hi (* (-inf, hi] *)
let half_above lo = Si.range lo Si.pinf (* [lo, +inf) *)

(* refine both compare operands along a signed-condition edge.
   [taken] selects the branch direction. *)
let refine_edge (st : Domain.st) (c : Machine.Isa.cond) ~taken : Domain.st option =
  match st.Domain.cmp with
  | None -> Some st
  | Some { Domain.ca; cb } -> begin
      let cond =
        if taken then c
        else
          (* negate *)
          match c with
          | Machine.Isa.Jz -> Machine.Isa.Jnz
          | Machine.Isa.Jnz -> Machine.Isa.Jz
          | Machine.Isa.Jl -> Machine.Isa.Jge
          | Machine.Isa.Jge -> Machine.Isa.Jl
          | Machine.Isa.Jle -> Machine.Isa.Jg
          | Machine.Isa.Jg -> Machine.Isa.Jle
          | c -> c (* unsigned / parity / sign: unhandled, treated below *)
      in
      let ab = Si.bounds ca.Domain.osi and bb = Si.bounds cb.Domain.osi in
      let alo, ahi = match ab with Some (l, h) -> (l, h) | None -> (None, None) in
      let blo, bhi = match bb with Some (l, h) -> (l, h) | None -> (None, None) in
      let fin d v = match v with Some x -> x | None -> d in
      let refine2 sa sb =
        match refine_origin st ca sa with
        | None -> None
        | Some st -> refine_origin st cb sb
      in
      match cond with
      | Machine.Isa.Jl ->
          (* a < b:  a <= bhi-1,  b >= alo+1 *)
          refine2 (half_below (Si.ssub (fin Si.pinf bhi) 1)) (half_above (Si.sadd (fin Si.ninf alo) 1))
      | Machine.Isa.Jle ->
          refine2 (half_below (fin Si.pinf bhi)) (half_above (fin Si.ninf alo))
      | Machine.Isa.Jg ->
          refine2 (half_above (Si.sadd (fin Si.ninf blo) 1)) (half_below (Si.ssub (fin Si.pinf ahi) 1))
      | Machine.Isa.Jge ->
          refine2 (half_above (fin Si.ninf blo)) (half_below (fin Si.pinf ahi))
      | Machine.Isa.Jz ->
          (* equal: meet each with the other *)
          refine2 cb.Domain.osi ca.Domain.osi
      | _ -> Some st (* Jnz and unsigned conds: no useful bound *)
    end

(* ---- context and report -------------------------------------------------- *)

let entry_state mem_size =
  let regs = Array.make 16 Domain.top_rv in
  regs.(gi Machine.Isa.RSP) <-
    { Domain.si = Si.singleton (mem_size - 16); copy_of = None };
  { Domain.regs = regs;
    xmm_clean = Array.make 16 false; (* entry registers hold unknown caller bits *)
    cells = Ptree.Map.empty;
    taint = [];
    cmp = None }

let context (prog : Machine.Program.t) =
  let insns = Machine.Program.stripped_insns prog in
  { insns;
    mem_size = prog.Machine.Program.mem_size;
    heap_base = ((prog.Machine.Program.data_size + 15) / 16 * 16) + 16;
    cfg = Cfg.build insns ~entry:prog.Machine.Program.entry;
    reporting = false;
    srcs_acc = Ptree.Set.empty }

(* Build the result from a converged fixpoint whose states carry an
   integer half ([int_of] projects it).  One walk replays [transfer]
   over every block from its in-state and classifies each integer load,
   gpr<-xmm move and xmm bit op against the integer pre-state; a block
   the fixpoint never reached, or every block after a bailout, has no
   state, so nothing in it is proven.  [transfer] may observe the walk:
   Fpa issues its verdicts from it. *)
let report ctx ~(int_of : 'a -> Domain.st) ~(transfer : int -> 'a -> Machine.Isa.insn -> 'a)
    (fix : 'a Fixpoint.t) : t =
  let insns = ctx.insns and mem_size = ctx.mem_size in
  let sinks = ref [] and loads = ref 0 and proven = ref 0 and exempt = ref 0 in
  let sink i kind srcs = sinks := { sink_index = i; kind; srcs } :: !sinks in
  let classify (blk : Cfg.block) i (st : Domain.st option) =
    match insns.(i) with
    | Machine.Isa.Mov { src = Machine.Isa.Mem m; size; _ } when size >= 4 -> begin
        incr loads;
        match st with
        | None -> sink i K_int_load []
        | Some st ->
            let a = resolve mem_size st m size in
            let tq = Domain.taint_query st.Domain.taint ~lo:a.alo ~hi:a.ahi in
            if Ptree.Set.is_empty tq then incr proven
            else sink i K_int_load (Ptree.Set.elements tq)
      end
    | Machine.Isa.Movq_xr { dst; src } -> begin
        match st with
        | Some st
          when (i < blk.Cfg.last && overwrites_without_read insns.(i + 1) dst)
               || st.Domain.xmm_clean.(src) ->
            incr exempt
        | _ -> sink i K_movq []
      end
    | Machine.Isa.Fp_bit { op = _; dst; src } when not (xmm_of dst <> None && dst = src) -> begin
        let operand_clean st (o : Machine.Isa.operand) =
          match o with
          | Machine.Isa.Xmm x -> st.Domain.xmm_clean.(x)
          | Machine.Isa.Mem m ->
              let a = resolve mem_size st m 16 in
              untainted st a.alo a.ahi
          | _ -> false
        in
        match st with
        | Some st when operand_clean st dst && operand_clean st src -> incr exempt
        | None -> sink i K_fp_bit []
        | Some st ->
            let of_op (o : Machine.Isa.operand) =
              match o with
              | Machine.Isa.Mem m ->
                  let a = resolve mem_size st m 16 in
                  Domain.taint_query st.Domain.taint ~lo:a.alo ~hi:a.ahi
              | _ -> Ptree.Set.empty
            in
            sink i K_fp_bit (Ptree.Set.elements (Ptree.Set.union (of_op dst) (of_op src)))
      end
    | _ -> ()
  in
  ctx.reporting <- true;
  Array.iter
    (fun (blk : Cfg.block) ->
      let st = ref (if fix.Fixpoint.bailed_out then None else fix.Fixpoint.states.(blk.Cfg.id)) in
      for i = blk.Cfg.first to blk.Cfg.last do
        classify blk i (Option.map int_of !st);
        st := Option.map (fun s -> transfer i s insns.(i)) !st
      done)
    ctx.cfg.Cfg.blocks;
  (* exit taint: the join of every reached block's in-state taint *)
  let exit_taint =
    Array.fold_left
      (fun acc st ->
        match st with None -> acc | Some st -> Domain.taint_join acc (int_of st).Domain.taint)
      [] fix.Fixpoint.states
  in
  { sinks = List.sort (fun a b -> compare a.sink_index b.sink_index) !sinks;
    sources = Ptree.Set.elements ctx.srcs_acc;
    total_int_loads = !loads;
    proven_safe_loads = !proven;
    trap_checks_elided = !proven + !exempt;
    iterations = fix.Fixpoint.iterations;
    n_blocks = Array.length ctx.cfg.Cfg.blocks;
    n_loop_heads = ctx.cfg.Cfg.n_loop_heads;
    tainted =
      List.map
        (fun (s : Domain.span) -> (s.Domain.lo, s.Domain.hi, Ptree.Set.elements s.Domain.srcs))
        exit_taint;
    bailed_out = fix.Fixpoint.bailed_out }

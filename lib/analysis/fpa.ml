(* Fpa: the fourth tier of the static-analysis pipeline — a
   flow-sensitive abstract interpretation of floating-point *values*
   (Fpdomain) run in lockstep with the integer/taint tier (Pipeline),
   over the same CFG, reusing the strided-interval address resolution
   so per-cell FP facts get strong updates exactly where the taint
   tier does.

   Products, per trap-capable FP site (arithmetic, compares, rounds,
   conversions, libm calls):

     v_sub_free  — no raw input lane can hold a subnormal: the JIT may
                   fuse the step without its runtime subnormal scan;
     v_born_free — no NaN/Inf birth is possible here: numprof/shadow
                   instrumentation may be elided at the site;
     v_risks     — the specific births that could not be ruled out
                   ("nan:sqrt-negative", "inf:div-by-zero", ...);
     v_srcs      — producer sites feeding the operands (provenance).

   State pairing: each block's in-state is (Pipeline int state, FP
   state); the FP transfer runs on the *pre* integer state (addresses
   are computed before an instruction writes), then the integer
   transfer advances.  Branch refinement sharpens only the integer
   half; the FP half flows unchanged down both edges.  This paired
   fixpoint is the analysis's only one: the integer tier's result is
   built from the integer halves (Pipeline.report), so [analyze]
   returns both tiers.

   FP state representation: 32 lane slots (xmm register x 2 lanes)
   plus a map from 8-aligned cell address to abstract value with the
   ABSENT = TOP convention — only cells with a known-better-than-top
   value are materialized (the initial data segment, classified from
   the program's raw image, plus cells written through resolvable
   addresses).  Imprecise stores drop every cell they may touch. *)

module P = Pipeline
module D = Fpdomain
module Isa = Machine.Isa

type verdict = {
  v_index : int;
  v_sub_free : bool;
  v_born_free : bool;
  v_risks : string list;
  v_srcs : int list;
}

type t = {
  verdicts : verdict array; (* ascending by v_index *)
  sites : int;
  sub_free : int;
  born_free : int;
  proven : int; (* sites with either proof *)
  iterations : int;
  bailed_out : bool;
}

(* ---- the FP half of the paired state ------------------------------------- *)

type fpst = {
  fx : D.v array; (* 32 slots: xmm i lane l at 2i + l *)
  fmem : D.v Ptree.Map.t; (* 8-aligned cell -> value; absent = top *)
}

let fx_get f x lane = f.fx.((x * 2) + lane)

let fx_set f x lane v =
  let fx = Array.copy f.fx in
  fx.((x * 2) + lane) <- v;
  { f with fx }

let cell_get f a = match Ptree.Map.find_opt a f.fmem with Some v -> v | None -> D.top

let f_equal a b =
  a == b
  || Ptree.Map.equal D.equal a.fmem b.fmem
     && (a.fx == b.fx || Array.for_all2 D.equal a.fx b.fx)

(* [g] is a join or a widening, so [g x x = x]: physically equal values
   are kept as they are, and so is [a] when [b] adds nothing to it *)
let f_merge g a b =
  let g x y = if x == y then x else g x y in
  let fx = Domain.map2_keep g a.fx b.fx and fmem = Ptree.Map.inter g a.fmem b.fmem in
  if fx == a.fx && fmem == a.fmem then a else { fx; fmem }

let f_join = f_merge D.join
let f_widen = f_merge D.widen

(* drop every cell a store into [lo,hi) may touch (back to top): the
   keys in [lo-7, hi) *)
let drop_range f lo hi =
  if hi <= lo then f
  else begin
    let fmem = Ptree.Map.remove_range (lo - 7) hi f.fmem in
    if fmem == f.fmem then f else { f with fmem }
  end

let drop_acc f (a : P.acc) = drop_range f a.P.alo a.P.ahi

(* ---- initial state -------------------------------------------------------- *)

(* Memory is zero-filled at State.create, then data_init is blitted:
   classify every 8-aligned data-segment cell from the raw image so
   constants (coefficients, grids) enter the analysis bit-exactly. *)
let initial_fmem (prog : Machine.Program.t) =
  let data_size = prog.Machine.Program.data_size in
  let image = Bytes.make (max 0 data_size) '\000' in
  List.iter
    (fun (off, s) ->
      let len = min (String.length s) (Bytes.length image - off) in
      if off >= 0 && len > 0 then Bytes.blit_string s 0 image off len)
    prog.Machine.Program.data_init;
  let m = ref Ptree.Map.empty in
  let a = ref 0 in
  while !a + 8 <= data_size do
    m := Ptree.Map.add !a (D.classify_bits (Bytes.get_int64_le image !a)) !m;
    a := !a + 8
  done;
  !m

let entry_fpst prog = { fx = Array.make 32 D.top; fmem = initial_fmem prog }

(* ---- FP reads and writes -------------------------------------------------- *)

let read_fp ctx (ist : Domain.st) f (o : Isa.operand) lane : D.v =
  match o with
  | Isa.Xmm x -> fx_get f x lane
  | Isa.Mem m -> begin
      let a = P.resolve ctx.P.mem_size ist m 8 in
      match a.P.aexact with
      | Some v when P.is_cell ctx.P.mem_size (v + (8 * lane)) ->
          cell_get f (v + (8 * lane))
      | _ -> D.top
    end
  | Isa.Reg _ | Isa.Imm _ -> D.top

(* an 8-byte FP store of [v]: strong update on an exact cell,
   otherwise drop the whole may-touch range *)
let store_fp ctx (ist : Domain.st) f (m : Isa.mem_addr) lane v =
  let a = P.resolve ctx.P.mem_size ist m 8 in
  match a.P.aexact with
  | Some c when P.is_cell ctx.P.mem_size (c + (8 * lane)) ->
      { f with fmem = Ptree.Map.add (c + (8 * lane)) v f.fmem }
  | _ -> drop_acc f a

let int_store ctx (ist : Domain.st) f (m : Isa.mem_addr) size =
  drop_acc f (P.resolve ctx.P.mem_size ist m size)

let fzero = D.const 0.0

(* binary libm entry points (read xmm0 and xmm1) *)
let ext_binary = function
  | Isa.Atan2 | Isa.Pow | Isa.Fmod | Isa.Hypot -> true
  | _ -> false

let ext_math = function
  | Isa.Print_f64 | Isa.Print_i64 | Isa.Print_str _ | Isa.Write_f64
  | Isa.Alloc | Isa.Exit ->
      false
  | _ -> true

(* trap-capable FP sites the report pass issues verdicts for *)
let is_site (insn : Isa.insn) =
  match insn with
  | Isa.Fp_arith _ | Isa.Fp_cmp _ | Isa.Fp_cmppred _ | Isa.Fp_round _
  | Isa.Cvt_f2f _ | Isa.Cvt_f2i _ ->
      true
  | Isa.Call_ext fn -> ext_math fn
  | _ -> false

(* ---- the FP transfer function --------------------------------------------- *)

(* [observe idx risks inputs] fires once per site during the report
   pass with the operand-lane values the site reads plus the birth
   risks the abstract evaluation could not exclude.  At a scalar
   binary64 site the inputs are the lanes the engine's runtime
   subnormal scan reads (Decoder.fused_inputs); a packed site lists
   both lanes, though packed steps always run native. *)
let ftransfer ctx ?observe (ist : Domain.st) (f : fpst) idx (insn : Isa.insn) :
    fpst =
  let obs risks inputs =
    match observe with Some g -> g idx risks inputs | None -> ()
  in
  let rd o lane = read_fp ctx ist f o lane in
  match insn with
  | Isa.Fp_arith { op; w = Isa.F64; packed; dst; src } ->
      let lanes = if packed then 2 else 1 in
      let risks = ref [] and inputs = ref [] and results = ref [] in
      for lane = 0 to lanes - 1 do
        let c = rd src lane in
        let r, rk =
          match op with
          | Isa.FSQRT ->
              inputs := c :: !inputs;
              D.fsqrt c
          | _ ->
              let a = rd dst lane in
              inputs := c :: a :: !inputs;
              (match op with
              | Isa.FADD -> D.fadd a c
              | Isa.FSUB -> D.fsub a c
              | Isa.FMUL -> D.fmul a c
              | Isa.FDIV -> D.fdiv a c
              | Isa.FMIN | Isa.FMAX -> D.fminmax a c
              | Isa.FSQRT -> assert false)
        in
        risks := !risks @ List.filter (fun t -> not (List.mem t !risks)) rk;
        results := (lane, D.with_src idx r) :: !results
      done;
      obs !risks (List.rev !inputs);
      List.fold_left
        (fun f (lane, r) ->
          match dst with
          | Isa.Xmm x -> fx_set f x lane r
          | Isa.Mem m -> store_fp ctx ist f m lane r
          | _ -> f)
        f !results
  | Isa.Fp_arith { w = Isa.F32; dst; _ } -> begin
      obs [ "unknown:f32" ] [ D.top ];
      match dst with
      | Isa.Xmm x -> fx_set f x 0 D.top (* low 32 bits merge: word unknown *)
      | Isa.Mem m -> int_store ctx ist f m 4
      | _ -> f
    end
  | Isa.Fp_cmp { w = Isa.F64; a; b; _ } ->
      obs [] [ rd a 0; rd b 0 ];
      f
  | Isa.Fp_cmp _ ->
      obs [ "unknown:f32" ] [ D.top ];
      f
  | Isa.Fp_cmppred { w = Isa.F64; dst; src; _ } -> begin
      obs [] [ rd dst 0; rd src 0 ];
      (* writes an all-ones (a NaN pattern) or all-zeros (+0) mask *)
      let mask = D.with_src idx { D.bot with D.nan = true; D.zero = true } in
      match dst with
      | Isa.Xmm x -> fx_set f x 0 mask
      | Isa.Mem m -> store_fp ctx ist f m 0 mask
      | _ -> f
    end
  | Isa.Fp_cmppred { dst; _ } -> begin
      obs [ "unknown:f32" ] [ D.top ];
      match dst with
      | Isa.Xmm x -> fx_set f x 0 D.top
      | Isa.Mem m -> int_store ctx ist f m 4
      | _ -> f
    end
  | Isa.Fp_round { w = Isa.F64; dst; src; _ } -> begin
      let a = rd src 0 in
      let r, risks = D.fround a in
      obs risks [ a ];
      let r = D.with_src idx r in
      match dst with
      | Isa.Xmm x -> fx_set f x 0 r
      | Isa.Mem m -> store_fp ctx ist f m 0 r
      | _ -> f
    end
  | Isa.Fp_round { dst; _ } -> begin
      obs [ "unknown:f32" ] [ D.top ];
      match dst with
      | Isa.Xmm x -> fx_set f x 0 D.top
      | Isa.Mem m -> int_store ctx ist f m 4
      | _ -> f
    end
  | Isa.Cvt_f2f { from_w = Isa.F64; dst; _ } -> begin
      (* narrowing: the f32 result merges into 4 bytes *)
      let a =
        match insn with Isa.Cvt_f2f { src; _ } -> rd src 0 | _ -> D.top
      in
      obs (D.cvt_f2f_risks a) [ a ];
      match dst with
      | Isa.Xmm x -> fx_set f x 0 D.top
      | Isa.Mem m -> int_store ctx ist f m 4
      | _ -> f
    end
  | Isa.Cvt_f2f { from_w = Isa.F32; dst; _ } -> begin
      (* widening is exact; every f32 lands in the f64 normal range *)
      obs [] [ D.top ];
      let r = D.with_src idx D.of_f32 in
      match dst with
      | Isa.Xmm x -> fx_set f x 0 r
      | Isa.Mem m -> store_fp ctx ist f m 0 r
      | _ -> f
    end
  | Isa.Cvt_f2i { w; size; dst; src; _ } -> begin
      (if w = Isa.F64 then
         let a = rd src 0 in
         obs (D.cvt_f2i_risks ~size a) [ a ]
       else obs [ "unknown:f32" ] [ D.top ]);
      match dst with
      | Isa.Mem m -> int_store ctx ist f m (max size 8)
      | _ -> f
    end
  | Isa.Cvt_i2f { w = Isa.F64; size; dst; src } -> begin
      let r =
        match Si.as_singleton (P.rv_of_operand ctx ist size src).Domain.si with
        | Some k ->
            let k =
              if size = 4 && k land 0x80000000 <> 0 then k - 0x100000000
              else k
            in
            D.const (float_of_int k)
        | None -> D.of_int ~bits:(if size = 8 then 63 else 31)
      in
      let r = D.with_src idx r in
      match dst with
      | Isa.Xmm x -> fx_set (fx_set f x 0 r) x 1 fzero
      | Isa.Mem m -> store_fp ctx ist f m 0 r
      | _ -> f
    end
  | Isa.Cvt_i2f { dst; _ } -> begin
      match dst with
      | Isa.Xmm x -> fx_set f x 0 D.top
      | Isa.Mem m -> int_store ctx ist f m 4
      | _ -> f
    end
  | Isa.Mov_f { w = Isa.F64; dst; src } -> begin
      let v = rd src 0 in
      match (dst, src) with
      | Isa.Xmm d, Isa.Mem _ ->
          (* memory load zeroes the upper lane *)
          fx_set (fx_set f d 0 v) d 1 fzero
      | Isa.Xmm d, _ -> fx_set f d 0 v (* reg move: lane1 keeps its bits *)
      | Isa.Mem m, _ -> store_fp ctx ist f m 0 v
      | _ -> f
    end
  | Isa.Mov_f { w = Isa.F32; dst; _ } -> begin
      match dst with
      | Isa.Xmm x -> fx_set f x 0 D.top
      | Isa.Mem m -> int_store ctx ist f m 4
      | _ -> f
    end
  | Isa.Mov_x { dst; src } -> begin
      let v0 = rd src 0 and v1 = rd src 1 in
      match dst with
      | Isa.Xmm d -> fx_set (fx_set f d 0 v0) d 1 v1
      | Isa.Mem m -> begin
          let a = P.resolve ctx.P.mem_size ist m 16 in
          match a.P.aexact with
          | Some c
            when P.is_cell ctx.P.mem_size c && P.is_cell ctx.P.mem_size (c + 8)
            ->
              { f with
                fmem = Ptree.Map.add (c + 8) v1 (Ptree.Map.add c v0 f.fmem) }
          | _ -> drop_acc f a
        end
      | _ -> f
    end
  | Isa.Fp_bit { op; dst; src } -> begin
      match (dst, src) with
      | Isa.Xmm d, Isa.Xmm s
        when d = s && (op = Isa.BXOR || op = Isa.BANDN) ->
          (* xorpd/andnpd x,x: the canonical zeroing idiom *)
          fx_set (fx_set f d 0 (D.with_src idx fzero)) d 1
            (D.with_src idx fzero)
      | Isa.Xmm d, Isa.Xmm s when d = s -> f (* and/or with itself *)
      | Isa.Xmm d, _ ->
          (* bit ops can forge any pattern *)
          fx_set (fx_set f d 0 D.top) d 1 D.top
      | Isa.Mem m, _ -> int_store ctx ist f m 16
      | _ -> f
    end
  | Isa.Movq_rx { dst; _ } ->
      (* gpr bits are untracked as FP; upper lane is zeroed *)
      fx_set (fx_set f dst 0 D.top) dst 1 fzero
  | Isa.Movq_xr _ -> f
  | Isa.Call_ext fn when ext_math fn ->
      let a = fx_get f 0 0 in
      let c = if ext_binary fn then fx_get f 1 0 else D.bot in
      let r, risks = D.ext_transfer fn a c in
      obs risks (if ext_binary fn then [ a; c ] else [ a ]);
      fx_set (fx_set f 0 0 (D.with_src idx r)) 0 1 fzero
  | Isa.Call_ext _ -> f (* print/write/alloc/exit: no FP state change *)
  (* ---- integer instructions that write memory drop FP cell facts ---- *)
  | Isa.Mov { size; dst = Isa.Mem m; _ } -> int_store ctx ist f m size
  | Isa.Int_arith { dst = Isa.Mem m; _ } -> int_store ctx ist f m 8
  | Isa.Inc (Isa.Mem m) | Isa.Dec (Isa.Mem m) | Isa.Neg (Isa.Mem m) ->
      int_store ctx ist f m 8
  | Isa.Pop (Isa.Mem m) -> int_store ctx ist f m 8
  | Isa.Push _ | Isa.Call _ -> begin
      (* writes 8 bytes at RSP - 8 (the pre-state RSP) *)
      let rsp = ist.Domain.regs.(P.gi Isa.RSP).Domain.si in
      let nsp = Si.sub rsp (Si.singleton 8) in
      match Si.as_singleton nsp with
      | Some a -> drop_range f a (a + 8)
      | None -> begin
          match Si.bounds nsp with
          | Some (Some l, Some h) ->
              drop_range f (max 0 l) (min ctx.P.mem_size (h + 8))
          | _ -> { f with fmem = Ptree.Map.empty }
        end
    end
  | _ -> f

(* ---- the paired fixpoint --------------------------------------------------- *)

type pair = Domain.st * fpst

let pair_equal ((a, fa) as p) ((b, fb) as q) = p == q || (Domain.equal a b && f_equal fa fb)

(* the left pair itself when neither half changed *)
let pair_merge join f_merge ((a, fa) as p) (b, fb) =
  let j = join a b and fj = f_merge fa fb in
  if j == a && fj == fa then p else (j, fj)

let pair_join = pair_merge Domain.join f_join
let pair_widen = pair_merge Domain.widen f_widen

let transfer_pair ctx ?observe i ((ist, f) : pair) insn : pair =
  let f' = ftransfer ctx ?observe ist f i insn in
  (P.transfer ctx i ist insn, f')

(* branch refinement sharpens the integer half only *)
let transfer_block ctx (blk : Cfg.block) (pin : pair) : (int * pair) list =
  let p = ref pin in
  for i = blk.Cfg.first to blk.Cfg.last do
    p := transfer_pair ctx i !p ctx.P.insns.(i)
  done;
  let st, fp = !p in
  let n = Array.length ctx.P.insns in
  match ctx.P.insns.(blk.Cfg.last) with
  | Isa.Jcc (c, t) when t >= 0 && t < n && blk.Cfg.last + 1 < n ->
      let tb = ctx.P.cfg.Cfg.block_of.(t)
      and fb = ctx.P.cfg.Cfg.block_of.(blk.Cfg.last + 1) in
      if tb = fb then [ (tb, ({ st with Domain.cmp = None }, fp)) ]
      else begin
        let strip st = { st with Domain.cmp = None } in
        let taken = P.refine_edge st c ~taken:true in
        let fall = P.refine_edge st c ~taken:false in
        (match taken with Some s -> [ (tb, (strip s, fp)) ] | None -> [])
        @ (match fall with Some s -> [ (fb, (strip s, fp)) ] | None -> [])
      end
  | _ -> List.map (fun s -> (s, (st, fp))) blk.Cfg.succs

let unproven_verdict i insn =
  { v_index = i;
    v_sub_free = false;
    v_born_free = false;
    v_risks =
      [ (match insn with
        | Isa.Call_ext _ -> "unproven:libm"
        | _ -> "unproven:no-fact") ];
    v_srcs = [] }

let born_free_of risks =
  List.for_all
    (fun r ->
      not
        (String.length r >= 4
         && (String.sub r 0 4 = "nan:" || String.sub r 0 4 = "inf:"
            || String.length r >= 8
               && String.sub r 0 8 = "unknown:"
            || String.length r >= 9
               && String.sub r 0 9 = "unproven:")))
    risks

(* Both tiers from one fixpoint over paired states.  Pipeline.report
   walks the converged pairs once: it classifies the integer sinks on
   the integer halves while [observe] collects the FP verdicts. *)
let analyze (prog : Machine.Program.t) : P.t * t =
  let ctx = P.context prog in
  let fix =
    Fixpoint.run ctx.P.cfg
      ~entry:(P.entry_state ctx.P.mem_size, entry_fpst prog)
      ~transfer:(transfer_block ctx) ~join:pair_join ~widen:pair_widen ~equal:pair_equal
  in
  let seen : (int, verdict) Hashtbl.t = Hashtbl.create 64 in
  let observe idx risks (inputs : D.v list) =
    let v_sub_free =
      inputs <> [] && List.for_all (fun (v : D.v) -> not v.D.sub) inputs
    in
    let v_srcs =
      Ptree.Set.elements
        (List.fold_left (fun acc (v : D.v) -> Ptree.Set.union acc v.D.srcs) Ptree.Set.empty inputs)
    in
    Hashtbl.replace seen idx
      { v_index = idx;
        v_sub_free;
        v_born_free = born_free_of risks;
        v_risks = risks;
        v_srcs }
  in
  let p = P.report ctx ~int_of:fst ~transfer:(transfer_pair ctx ~observe) fix in
  let verdicts = ref [] in
  Array.iteri
    (fun i insn ->
      if is_site insn then
        match Hashtbl.find_opt seen i with
        | Some v -> verdicts := v :: !verdicts
        | None -> verdicts := unproven_verdict i insn :: !verdicts)
    ctx.P.insns;
  let verdicts =
    Array.of_list
      (List.sort (fun a b -> compare a.v_index b.v_index) !verdicts)
  in
  let count p = Array.fold_left (fun n v -> if p v then n + 1 else n) 0 verdicts in
  ( p,
    { verdicts;
      sites = Array.length verdicts;
      sub_free = count (fun v -> v.v_sub_free);
      born_free = count (fun v -> v.v_born_free);
      proven = count (fun v -> v.v_sub_free || v.v_born_free);
      iterations = fix.Fixpoint.iterations;
      bailed_out = fix.Fixpoint.bailed_out } )

(* per-index lookup arrays for the engine's O(1) consumers *)
let sub_free_array t n =
  let a = Array.make n false in
  Array.iter (fun v -> if v.v_index < n then a.(v.v_index) <- v.v_sub_free) t.verdicts;
  a

let born_free_array t n =
  let a = Array.make n false in
  Array.iter (fun v -> if v.v_index < n then a.(v.v_index) <- v.v_born_free) t.verdicts;
  a

(* Tests for the tiered static analysis (lib/analysis): the
   strided-interval domain, the CFG, flow-sensitive precision of the
   pipeline (strong updates, bounded array stores, branch refinement),
   the sink-exemption idioms (self-xor zeroing, clean BANDN, dead
   gpr<-xmm moves), idempotent patching, the engine's soundness oracle /
   trace-hint invalidation, the taint map and store invalidation against
   the code they replaced, and a digest that pins every analysis fact
   bit for bit. *)

open Machine
module Si = Analysis.Si
module Cfg = Analysis.Cfg
module AP = Analysis.Pipeline
module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)

let xmm n = Isa.Xmm n
let reg r = Isa.Reg r
let immi v = Isa.Imm (Int64.of_int v)

(* ---- strided intervals ---- *)

let si = Alcotest.testable Si.pp Si.equal

let si_tests =
  [ Alcotest.test_case "join of singletons infers stride" `Quick (fun () ->
        Alcotest.check si "4 |_| 12"
          (Si.range ~stride:8 4 12)
          (Si.join (Si.singleton 4) (Si.singleton 12));
        Alcotest.check si "join with bot" (Si.singleton 7)
          (Si.join Si.bot (Si.singleton 7)));
    Alcotest.test_case "contains respects congruence" `Quick (fun () ->
        let v = Si.range ~stride:8 0 24 in
        Alcotest.(check bool) "16 in" true (Si.contains v 16);
        Alcotest.(check bool) "24 in" true (Si.contains v 24);
        Alcotest.(check bool) "12 out (wrong class)" false (Si.contains v 12);
        Alcotest.(check bool) "32 out (above hi)" false (Si.contains v 32));
    Alcotest.test_case "norm clips hi onto the lattice" `Quick (fun () ->
        (* [0,20] with stride 8 only reaches 16 *)
        Alcotest.check si "clip" (Si.range ~stride:8 0 16)
          (Si.range ~stride:8 0 20));
    Alcotest.test_case "meet snaps onto the congruence class" `Quick
      (fun () ->
        (* 8Z[0,64] /\ [10,20] = {16} *)
        Alcotest.check si "snap" (Si.singleton 16)
          (Si.meet (Si.range ~stride:8 0 64) (Si.range 10 20));
        (* empty after snapping *)
        Alcotest.check si "empty" Si.bot
          (Si.meet (Si.range ~stride:8 0 64) (Si.range 9 15)));
    Alcotest.test_case "widen sends grown bounds to infinity, keeps stride"
      `Quick (fun () ->
        let w = Si.widen (Si.range ~stride:8 0 16) (Si.range ~stride:8 0 32) in
        (match Si.bounds w with
        | Some (Some 0, None) -> ()
        | _ -> Alcotest.fail "expected [0, +inf)");
        Alcotest.(check bool) "stride survives" true (Si.contains w 800);
        Alcotest.(check bool) "congruence survives" false (Si.contains w 801));
    Alcotest.test_case "mul by a constant scales the stride" `Quick (fun () ->
        Alcotest.check si "8 * [0,10]"
          (Si.range ~stride:8 0 80)
          (Si.mul (Si.singleton 8) (Si.range 0 10));
        Alcotest.check si "shl 3"
          (Si.range ~stride:8 0 80)
          (Si.shl (Si.range 0 10) 3));
    Alcotest.test_case "logand with a non-negative mask is bounded" `Quick
      (fun () ->
        Alcotest.check si "top & 255" (Si.range 0 255)
          (Si.logand Si.top (Si.singleton 255));
        Alcotest.check si "const fold" (Si.singleton 4)
          (Si.logand (Si.singleton 12) (Si.singleton 6)))
  ]

(* ---- CFG construction ---- *)

(* 0: mov rcx, 3          block A
   1: loop: dec rcx       block B (loop head)
   2: cmp rcx, 0
   3: jg loop
   4: halt                block C *)
let loop_insns =
  [| Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 3 };
     Isa.Dec (reg Isa.RCX);
     Isa.Cmp { a = reg Isa.RCX; b = immi 0 };
     Isa.Jcc (Isa.Jg, 1);
     Isa.Halt
  |]

let cfg_tests =
  [ Alcotest.test_case "blocks, edges, loop heads" `Quick (fun () ->
        let g = Cfg.build loop_insns ~entry:0 in
        Alcotest.(check int) "3 blocks" 3 (Array.length g.Cfg.blocks);
        Alcotest.(check int) "one loop head" 1 g.Cfg.n_loop_heads;
        (* every instruction maps into a block that spans it *)
        Array.iteri
          (fun i b ->
            let blk = g.Cfg.blocks.(b) in
            Alcotest.(check bool) "span" true
              (blk.Cfg.first <= i && i <= blk.Cfg.last))
          g.Cfg.block_of;
        (* the loop body has two predecessors (entry + back edge) *)
        let body = g.Cfg.blocks.(g.Cfg.block_of.(1)) in
        Alcotest.(check int) "preds" 2 (List.length body.Cfg.preds);
        Alcotest.(check bool) "marked as head" true
          g.Cfg.loop_head.(body.Cfg.id);
        (* all three blocks are reachable and appear in rpo *)
        Alcotest.(check int) "rpo" 3 (Array.length g.Cfg.rpo);
        Alcotest.(check int) "entry first in rpo" g.Cfg.entry g.Cfg.rpo.(0));
    Alcotest.test_case "unreachable code is excluded" `Quick (fun () ->
        let insns =
          [| Isa.Jmp 2; Isa.Dec (reg Isa.RAX) (* dead *); Isa.Halt |]
        in
        let g = Cfg.build insns ~entry:0 in
        Alcotest.(check bool) "dead block" false
          g.Cfg.reachable.(g.Cfg.block_of.(1)))
  ]

(* ---- pipeline precision ---- *)

(* FP stores through a bounded induction variable (arr[i], i in 0..3)
   followed by an integer load of an unrelated slot placed just past the
   array.  The strided-interval pass bounds the store range to
   [arr, arr+32) and proves the load clean. *)
let build_array_prog () =
  let b = Program.create ~name:"array" () in
  let arr = Program.data_f64 b [| 1.0; 2.0; 3.0; 4.0 |] in
  let islot = Program.data_i64 b [| 42L |] in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr arr) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (arr + 8)) });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 0 });
  let loop = Program.new_label b in
  let done_ = Program.new_label b in
  Program.place b loop;
  Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 4 });
  Program.jcc b Isa.Jge done_;
  Program.emit b
    (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr ~index:Isa.RCX ~scale:8 arr); src = xmm 0 });
  Program.emit b (Isa.Inc (reg Isa.RCX));
  Program.jmp b loop;
  Program.place b done_;
  let load_idx = Program.here b in
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr islot) });
  Program.emit b (Isa.Call_ext Isa.Print_i64);
  Program.emit b Isa.Halt;
  (Program.finish b, load_idx)

(* Figure-6 idiom: FP store then integer reload of the same slot. *)
let build_bits_prog () =
  let b = Program.create ~name:"bits" () in
  let c = Program.data_f64 b [| 0.1; 0.2 |] in
  let slot = Program.data_zero b 8 in
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
  Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
  Program.emit b (Isa.Call_ext Isa.Print_i64);
  Program.emit b Isa.Halt;
  Program.finish b

let sink_indices (p : AP.t) = List.map (fun s -> s.AP.sink_index) p.AP.sinks

let pipeline_tests =
  [ Alcotest.test_case "figure-6 load is the one sink, with provenance"
      `Quick (fun () ->
        let prog = build_bits_prog () in
        let p, _ = Analysis.Fpa.analyze prog in
        Alcotest.(check (list int)) "sinks" [ 3 ] (sink_indices p);
        let s = List.hd p.AP.sinks in
        Alcotest.(check bool) "kind" true (s.AP.kind = AP.K_int_load);
        (* provenance: the taint flows from the FP store at index 2 *)
        Alcotest.(check (list int)) "srcs" [ 2 ] s.AP.srcs;
        Alcotest.(check bool) "not bailed" false p.AP.bailed_out);
    Alcotest.test_case "bounded array store leaves outside load clean"
      `Quick (fun () ->
        let prog, load_idx = build_array_prog () in
        let p, _ = Analysis.Fpa.analyze prog in
        Alcotest.(check bool) "load proven safe" false
          (List.mem load_idx (sink_indices p));
        Alcotest.(check bool) "some load proven" true
          (p.AP.proven_safe_loads >= 1));
    Alcotest.test_case "integer store strongly updates (kills) taint"
      `Quick (fun () ->
        let b = Program.create ~name:"strong" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        let slot = Program.data_zero b 8 in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
        (* overwrite the whole slot with a plain integer: taint dies *)
        Program.emit b (Isa.Mov { size = 8; dst = Isa.Mem (Isa.addr slot); src = immi 7 });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let p, _ = Analysis.Fpa.analyze (Program.finish b) in
        Alcotest.(check (list int)) "no sinks" [] (sink_indices p);
        Alcotest.(check int) "proven" p.AP.total_int_loads
          p.AP.proven_safe_loads)
  ]

(* ---- sink-exemption idioms (satellite: self-xor, BANDN, dead movq) ---- *)

(* common prologue: dirty xmm0 with a promoted FP result *)
let dirty_prologue b c =
  Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
  Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) })

let idiom_tests =
  [ Alcotest.test_case "self-xor zeroing is exempt, and cleans the register"
      `Quick (fun () ->
        let b = Program.create ~name:"selfxor" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        dirty_prologue b c;
        (* xorpd xmm0, xmm0 zeroes it: not a bit-observation... *)
        let x = Program.here b in
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 0; src = xmm 0 });
        (* ...and the subsequent reinterpret of the zeroed register is
           provably clean *)
        let m = Program.here b in
        Program.emit b (Isa.Movq_xr { dst = Isa.RDI; src = 0 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let p, _ = Analysis.Fpa.analyze (Program.finish b) in
        let sinks = sink_indices p in
        Alcotest.(check bool) "xor exempt" false (List.mem x sinks);
        Alcotest.(check bool) "movq of zeroed xmm exempt" false
          (List.mem m sinks));
    Alcotest.test_case "BANDN sign-mask: clean operands exempt, dirty sinks"
      `Quick (fun () ->
        let b = Program.create ~name:"bandn" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        (* both operands zeroed: andnpd is exempt *)
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 1; src = xmm 1 });
        Program.emit b (Isa.Fp_bit { op = Isa.BXOR; dst = xmm 2; src = xmm 2 });
        let clean = Program.here b in
        Program.emit b (Isa.Fp_bit { op = Isa.BANDN; dst = xmm 1; src = xmm 2 });
        (* a promoted result flowing into andnpd must stay a sink *)
        dirty_prologue b c;
        let dirtyi = Program.here b in
        Program.emit b (Isa.Fp_bit { op = Isa.BANDN; dst = xmm 0; src = xmm 2 });
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let p, _ = Analysis.Fpa.analyze (Program.finish b) in
        let sinks = p.AP.sinks in
        Alcotest.(check bool) "clean bandn exempt" false
          (List.exists (fun s -> s.AP.sink_index = clean) sinks);
        Alcotest.(check bool) "dirty bandn is a sink" true
          (List.exists
             (fun s -> s.AP.sink_index = dirtyi && s.AP.kind = AP.K_fp_bit)
             sinks));
    Alcotest.test_case "gpr<-xmm immediately overwritten is dead" `Quick
      (fun () ->
        let b = Program.create ~name:"deadmovq" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        dirty_prologue b c;
        (* movq rdi, xmm0 whose result is clobbered before any read *)
        let dead = Program.here b in
        Program.emit b (Isa.Movq_xr { dst = Isa.RDI; src = 0 });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = immi 5 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        (* the same movq actually consumed must be a sink *)
        let live = Program.here b in
        Program.emit b (Isa.Movq_xr { dst = Isa.RDI; src = 0 });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let p, _ = Analysis.Fpa.analyze (Program.finish b) in
        let sinks = p.AP.sinks in
        Alcotest.(check bool) "dead movq exempt" false
          (List.exists (fun s -> s.AP.sink_index = dead) sinks);
        Alcotest.(check bool) "live movq sinks" true
          (List.exists
             (fun s -> s.AP.sink_index = live && s.AP.kind = AP.K_movq)
             sinks))
  ]

(* ---- idempotent patching (satellite) ---- *)

let patch_tests =
  [ Alcotest.test_case "apply_patches twice is a no-op the second time"
      `Quick (fun () ->
        let prog = build_bits_prog () in
        let a = Fpvm.Vsa.analyze prog in
        Fpvm.Vsa.apply_patches prog a;
        (match prog.Program.insns.(3) with
        | Isa.Correctness_trap _ -> ()
        | _ -> Alcotest.fail "sink not wrapped");
        let once = Array.copy prog.Program.insns in
        Fpvm.Vsa.apply_patches prog a;
        Array.iteri
          (fun i insn ->
            if insn <> once.(i) then
              Alcotest.failf "insn %d changed on second application" i)
          prog.Program.insns)
  ]

(* ---- soundness oracle + trace terminators ---- *)

let oracle_tests =
  [ Alcotest.test_case "oracle is quiet when the analysis patches" `Quick
      (fun () ->
        (* figure-6 idiom plus a clean integer load: the sink gets
           patched (so the oracle skips it) while the clean load stays
           bare and is checked on every dispatch *)
        let b = Program.create ~name:"bits+clean" () in
        let c = Program.data_f64 b [| 0.1; 0.2 |] in
        let slot = Program.data_zero b 8 in
        let islot = Program.data_i64 b [| 42L |] in
        dirty_prologue b c;
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr slot); src = xmm 0 });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr slot) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RDI; src = Isa.Mem (Isa.addr islot) });
        Program.emit b (Isa.Call_ext Isa.Print_i64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let cfg = { Fpvm.Engine.default_config with oracle = true } in
        let r = E_vanilla.run ~config:cfg prog in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          r.Fpvm.Engine.output;
        Alcotest.(check bool) "loads observed" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.oracle_loads_checked > 0);
        Alcotest.(check int) "no boxed leaks" 0
          r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads);
    Alcotest.test_case "oracle catches an unprotected boxed load" `Quick
      (fun () ->
        (* facts with no sinks: the figure-6 reload runs unpatched and
           observes the NaN-boxed bits; the oracle must report it *)
        let prog = build_bits_prog () in
        let facts = { (Fpvm.Vsa.analyze prog) with Fpvm.Vsa.sinks = [] } in
        let cfg = { Fpvm.Engine.default_config with oracle = true } in
        let r = E_vanilla.resume (E_vanilla.prepare ~config:cfg ~facts prog) in
        Alcotest.(check bool) "violation detected" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads > 0));
    Alcotest.test_case "demotion split: figure-6 demotions are boxed" `Quick
      (fun () ->
        let prog = build_bits_prog () in
        let r = E_vanilla.run prog in
        let s = r.Fpvm.Engine.stats in
        Alcotest.(check int) "split sums" s.Fpvm.Stats.correctness_demotions
          (s.Fpvm.Stats.corr_demote_boxed + s.Fpvm.Stats.corr_demote_clean);
        Alcotest.(check bool) "boxed demotions counted" true
          (s.Fpvm.Stats.corr_demote_boxed > 0));
    Alcotest.test_case "trap-and-patch invalidates trace runs across a rewrite"
      `Quick (fun () ->
        (* patching rewrites instructions mid-run, and a trace must end
           at the Patched site it reaches.  Output must stay exact. *)
        let b = Program.create ~name:"hint" () in
        let c = Program.data_f64 b [| 0.1; 1.1; 0.3 |] in
        Program.emit b (Isa.Mov_f { w = Isa.F64; dst = xmm 0; src = Isa.Mem (Isa.addr c) });
        Program.emit b (Isa.Mov { size = 8; dst = reg Isa.RCX; src = immi 40 });
        let loop = Program.new_label b in
        Program.place b loop;
        Program.emit b (Isa.Fp_arith { op = Isa.FMUL; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 8)) });
        Program.emit b (Isa.Fp_arith { op = Isa.FADD; w = Isa.F64; packed = false; dst = xmm 0; src = Isa.Mem (Isa.addr (c + 16)) });
        Program.emit b (Isa.Dec (reg Isa.RCX));
        Program.emit b (Isa.Cmp { a = reg Isa.RCX; b = immi 0 });
        Program.jcc b Isa.Jg loop;
        Program.emit b (Isa.Call_ext Isa.Print_f64);
        Program.emit b Isa.Halt;
        let prog = Program.finish b in
        let native = Fpvm.Engine.run_native prog in
        let cfg =
          { Fpvm.Engine.default_config with
            approach = Fpvm.Engine.Trap_and_patch;
            oracle = true
          }
        in
        let ses = E_vanilla.prepare ~config:cfg (Program.copy prog) in
        (* count the patch handlers that run inside a trap's resident
           window: none may, since the window ends at the rewrite *)
        let in_window = ref false and crossed = ref 0 in
        Fpvm.Probe.add_tel (E_vanilla.probe ses.E_vanilla.eng) (fun _ ev ->
            match ev with
            | Fpvm.Probe.T_trace_enter _ -> in_window := true
            | Fpvm.Probe.T_trace_exit _ -> in_window := false
            | _ -> ());
        let hooks = ses.E_vanilla.st.State.hooks in
        let handler = Option.get hooks.State.on_patched in
        hooks.State.on_patched <-
          Some
            (fun st idx site insn ->
              if !in_window then incr crossed;
              handler st idx site insn);
        let r = E_vanilla.resume ses in
        Alcotest.(check string) "identical" native.Fpvm.Engine.output
          r.Fpvm.Engine.output;
        Alcotest.(check int) "oracle clean" 0
          r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads;
        Alcotest.(check bool) "sites patched" true
          (r.Fpvm.Engine.stats.Fpvm.Stats.patch_invocations > 0);
        Alcotest.(check int) "no window runs a patched site" 0 !crossed)
  ]

(* ---- the taint map against the list fold it replaced ----

   [Oracle] is the taint map as it was before joins and stores were made
   to touch only the spans they meet: whole-list partitions, a fold of
   [taint_add] for the join and a full [coalesce] after every add. The
   new operations must return the very same spans on every coalesced
   map, and every result must keep the map invariant. *)

module D = Analysis.Domain
module IS = Analysis.Ptree.Set
module PM = Analysis.Ptree.Map

let ints l = String.concat "," (List.map string_of_int l)

module Oracle = struct
  open D

  let rec coalesce = function
    | a :: b :: rest when a.hi = b.lo && IS.equal a.srcs b.srcs ->
        coalesce ({ lo = a.lo; hi = b.hi; srcs = a.srcs } :: rest)
    | a :: rest -> a :: coalesce rest
    | [] -> []

  let taint_add spans ~lo ~hi ~srcs =
    if hi <= lo then spans
    else begin
      let before, rest = List.partition (fun s -> s.hi <= lo) spans in
      let overlap, after = List.partition (fun s -> s.lo < hi) rest in
      let merged =
        List.fold_left
          (fun acc s -> { lo = min acc.lo s.lo; hi = max acc.hi s.hi; srcs = IS.union acc.srcs s.srcs })
          { lo; hi; srcs } overlap
      in
      coalesce (before @ (merged :: after))
    end

  let taint_kill spans ~lo ~hi =
    if hi <= lo then spans
    else
      List.concat_map
        (fun s ->
          if s.hi <= lo || s.lo >= hi then [ s ]
          else
            (if s.lo < lo then [ { s with hi = lo } ] else [])
            @ if s.hi > hi then [ { s with lo = hi } ] else [])
        spans

  let taint_query spans ~lo ~hi =
    List.fold_left
      (fun acc s -> if s.hi <= lo || s.lo >= hi then acc else IS.union acc s.srcs)
      IS.empty spans

  let taint_join a b = List.fold_left (fun acc s -> taint_add acc ~lo:s.lo ~hi:s.hi ~srcs:s.srcs) a b
end

let show_taint (t : D.taint) =
  String.concat " "
    (List.map
       (fun (s : D.span) ->
         Printf.sprintf "[%d,%d){%s}" s.D.lo s.D.hi (ints (IS.elements s.D.srcs)))
       t)

let show_span (lo, hi, srcs) = Printf.sprintf "[%d,%d){%s}" lo hi (ints (IS.elements srcs))

(* sorted, pairwise disjoint, non-empty, coalesced *)
let rec well_formed = function
  | [] -> true
  | [ (s : D.span) ] -> s.D.lo < s.D.hi
  | (s : D.span) :: (t :: _ as rest) ->
      s.D.lo < s.D.hi && s.D.hi <= t.D.lo
      && (not (s.D.hi = t.D.lo && IS.equal s.D.srcs t.D.srcs))
      && well_formed rest

(* a small pool of source sets, so equal, subset and superset sets meet *)
let gen_srcs =
  QCheck.Gen.oneofl
    (List.map IS.of_list [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 2 ]; [ 1; 3 ]; [ 0; 1; 2; 3 ] ])

(* Spans laid end to end with small gaps (often none) and pool sources,
   so touching equal-source spans are common before coalescing. *)
let gen_map_of ~min =
  let open QCheck.Gen in
  let rec spans pos k =
    if k = 0 then return []
    else
      let* gap = oneofl [ 0; 0; 1; 3; 8 ] in
      let* len = int_range 1 8 in
      let* srcs = gen_srcs in
      let lo = pos + gap in
      let* rest = spans (lo + len) (k - 1) in
      return ({ D.lo; hi = lo + len; srcs } :: rest)
  in
  let* start = int_bound 8 in
  let* n = int_range min 8 in
  map Oracle.coalesce (spans start n)

let gen_map = gen_map_of ~min:0

(* A span placed against [m]: anywhere (possibly empty), nested in one
   span, partly overlapping two, exactly one span, or touching one on
   either side; with that span's sources, a subset, a superset or any. *)
let gen_span (m : D.taint) =
  let open QCheck.Gen in
  let any =
    let* lo = int_bound 80 in
    let* len = int_range (-1) 12 in
    let* srcs = gen_srcs in
    return (lo, lo + len, srcs)
  in
  match m with
  | [] -> any
  | _ ->
      let* t = oneofl m and* u = oneofl m in
      let* srcs =
        oneof
          [ return t.D.srcs;
            return (IS.singleton (IS.min_elt t.D.srcs));
            return (IS.add 5 t.D.srcs);
            gen_srcs ]
      in
      let* len = int_range 1 6 in
      frequency
        [ (2, any);
          (3,
           let* a = int_range t.D.lo (t.D.hi - 1) in
           let* b = int_range (a + 1) t.D.hi in
           return (a, b, srcs));
          (2,
           let t, u = if t.D.lo <= u.D.lo then (t, u) else (u, t) in
           let* a = int_range t.D.lo (t.D.hi - 1) in
           let* b = int_range (u.D.lo + 1) u.D.hi in
           return (a, b, srcs));
          (1, return (t.D.lo, t.D.hi, srcs));
          (1, return (t.D.hi, t.D.hi + len, srcs));
          (1, return (t.D.lo - len, t.D.lo, srcs)) ]

(* the second operand of a join: unrelated, or built from spans placed
   against the first so that covered spans are common *)
let gen_join_pair =
  let open QCheck.Gen in
  let* a = gen_map in
  let* b =
    oneof
      [ gen_map;
        (let* n = int_bound 6 in
         let* spans = list_repeat n (gen_span a) in
         return
           (List.fold_left
              (fun acc (lo, hi, srcs) -> Oracle.taint_add acc ~lo ~hi ~srcs)
              [] spans)) ]
  in
  return (a, b)

(* spans inside one span of [m] with a subset of its sources: at most
   one per span of [m], in order, so that they also form a map (a span
   touching its predecessor with equal sources is left out, since the
   two would coalesce into a span no single span of [m] covers) *)
let gen_covered =
  let open QCheck.Gen in
  let* m = gen_map_of ~min:1 in
  let inside (t : D.span) =
    let* a = int_range t.D.lo (t.D.hi - 1) in
    let* b = int_range (a + 1) t.D.hi in
    let* srcs =
      oneofl [ t.D.srcs; IS.singleton (IS.min_elt t.D.srcs); IS.singleton (IS.max_elt t.D.srcs) ]
    in
    let* keep = bool in
    return (if keep then [ { D.lo = a; hi = b; srcs } ] else [])
  in
  let* picks = flatten_l (List.map inside m) in
  let rec drop_touching = function
    | (a : D.span) :: b :: rest when a.D.hi = b.D.lo && IS.equal a.D.srcs b.D.srcs ->
        drop_touching (a :: rest)
    | a :: rest -> a :: drop_touching rest
    | [] -> []
  in
  return (m, drop_touching (List.concat picks))

let arb_covered =
  QCheck.make
    ~print:(fun (m, b) -> show_taint m ^ " + " ^ show_taint b)
    gen_covered

let arb_map_span =
  QCheck.make
    ~print:(fun (m, sp) -> show_taint m ^ " + " ^ show_span sp)
    QCheck.Gen.(gen_map >>= fun m -> map (fun sp -> (m, sp)) (gen_span m))

let arb_pair =
  QCheck.make ~print:(fun (a, b) -> show_taint a ^ " | " ^ show_taint b) gen_join_pair

let same_taint a b = List.length a = List.length b && List.for_all2 D.span_equal a b

let oracle_prop name arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x7A1 |])
    (QCheck.Test.make ~count:3000 ~name arb law)

let taint_tests =
  [ oracle_prop "generated maps are well formed" arb_pair (fun (a, b) ->
        well_formed a && well_formed b);
    oracle_prop "add = whole-list add" arb_map_span (fun (m, (lo, hi, srcs)) ->
        let r = D.taint_add m ~lo ~hi ~srcs in
        well_formed r && same_taint r (Oracle.taint_add m ~lo ~hi ~srcs));
    oracle_prop "kill = whole-list kill" arb_map_span (fun (m, (lo, hi, _)) ->
        let r = D.taint_kill m ~lo ~hi in
        well_formed r && same_taint r (Oracle.taint_kill m ~lo ~hi));
    oracle_prop "query = whole-list query" arb_map_span (fun (m, (lo, hi, _)) ->
        IS.equal (D.taint_query m ~lo ~hi) (Oracle.taint_query m ~lo ~hi));
    oracle_prop "join = fold of adds" arb_pair (fun (a, b) ->
        let r = D.taint_join a b in
        well_formed r && same_taint r (Oracle.taint_join a b));
    oracle_prop "adding a covered span returns an equal map" arb_covered (fun (m, b) ->
        well_formed b
        && List.for_all
             (fun (s : D.span) -> D.taint_equal (D.taint_add m ~lo:s.D.lo ~hi:s.D.hi ~srcs:s.D.srcs) m)
             b
        && D.taint_equal (D.taint_join m b) m) ]

(* ---- store invalidation against the rebuilds it replaced ----

   A store drops the cells it may touch, in both tiers, and in the
   integer tier also severs every register and cell copy link into the
   range. These were rebuilds of every register and cell on each store;
   the old code is kept here as the oracle for the versions that touch
   only what meets the range. Addresses come from a small pool so that
   links, bound cells and ranges (aligned or not) meet often. *)

module Fpa = Analysis.Fpa
module FD = Analysis.Fpdomain

let old_invalidate_range (st : D.st) lo hi : D.st =
  if hi <= lo then st
  else begin
    let regs =
      Array.map
        (fun (r : D.rv) ->
          match r.D.copy_of with
          | Some c when AP.overlaps_cell c lo hi -> { r with D.copy_of = None }
          | _ -> r)
        st.D.regs
    in
    let cells =
      PM.filter_map
        (fun a (c : D.cell) ->
          if AP.overlaps_cell a lo hi then None
          else
            match c.D.cell_copy_of with
            | Some rc when AP.overlaps_cell rc lo hi -> Some { c with D.cell_copy_of = None }
            | _ -> Some c)
        st.D.cells
    in
    { st with D.regs; cells }
  end

let old_drop_range (f : Fpa.fpst) lo hi =
  if hi <= lo then f
  else
    { f with
      Fpa.fmem = PM.filter_map (fun a v -> if a + 8 > lo && a < hi then None else Some v) f.Fpa.fmem }

let gen_addr = QCheck.Gen.map (fun k -> 8 * k) (QCheck.Gen.int_bound 12)

let gen_link = QCheck.Gen.(frequency [ (2, return None); (3, map Option.some gen_addr) ])

let gen_range =
  let open QCheck.Gen in
  let* lo = int_range (-8) 104 in
  let* len = oneof [ return 8; return 4; int_range (-2) 40 ] in
  return (lo, lo + len)

let gen_int_state =
  let open QCheck.Gen in
  let* links = array_repeat 16 gen_link in
  let* cells =
    list_size (int_bound 8)
      (pair gen_addr (map2 (fun v l -> { D.cv = Si.singleton v; cell_copy_of = l }) (int_bound 3) gen_link))
  in
  let regs = Array.map (fun l -> { D.si = Si.top; copy_of = l }) links in
  let st = AP.entry_state 4096 in
  return { st with D.regs; cells = PM.of_seq (List.to_seq cells) }

let show_int_state (st : D.st) =
  let link = function None -> "-" | Some c -> string_of_int c in
  String.concat " " (Array.to_list (Array.map (fun (r : D.rv) -> link r.D.copy_of) st.D.regs))
  ^ " | "
  ^ String.concat " "
      (List.map
         (fun (a, (c : D.cell)) -> Printf.sprintf "%d->%s" a (link c.D.cell_copy_of))
         (PM.bindings st.D.cells))

let gen_fp_state =
  let open QCheck.Gen in
  let* cells = list_size (int_bound 10) (pair gen_addr (map FD.const (oneofl [ 0.0; 1.5; -2.0 ]))) in
  return { Fpa.fx = Array.make 32 FD.top; fmem = PM.of_seq (List.to_seq cells) }

let invalidation_tests =
  [ oracle_prop "invalidate_range = rebuild of every register and cell"
      (QCheck.make
         ~print:(fun (st, (lo, hi)) -> Printf.sprintf "%s / [%d,%d)" (show_int_state st) lo hi)
         (QCheck.Gen.pair gen_int_state gen_range))
      (fun (st, (lo, hi)) -> D.equal (AP.invalidate_range st lo hi) (old_invalidate_range st lo hi));
    oracle_prop "drop_range = filter of every cell"
      (QCheck.make
         ~print:(fun (f, (lo, hi)) ->
           Printf.sprintf "%s / [%d,%d)"
             (ints (List.map fst (PM.bindings f.Fpa.fmem)))
             lo hi)
         (QCheck.Gen.pair gen_fp_state gen_range))
      (fun (f, (lo, hi)) -> Fpa.f_equal (Fpa.drop_range f lo hi) (old_drop_range f lo hi)) ]

(* ---- Patricia trees against Stdlib Map and Set ----

   [Analysis.Ptree] holds the analysis's cell maps and provenance sets.
   Every operation is checked against [Map.Make (Int)] / [Set.Make
   (Int)], with keys near 0, in the 8-aligned cell range and up to
   [max_int], so branching bits from the lowest to the highest occur.
   Range bounds sit on, next to and between keys, and may be negative.
   The sharing laws that make joins cheap are checked separately. *)

module SM = Map.Make (Int)
module SS = Set.Make (Int)

let gen_key =
  let open QCheck.Gen in
  frequency
    [ (3, int_bound 20);
      (3, map (fun k -> 8 * k) (int_bound 64));
      (1, int_range (max_int - 4) max_int);
      (1, int_bound max_int) ]

let gen_keys = QCheck.Gen.(list_size (int_bound 24) gen_key)

let gen_bindings = QCheck.Gen.(list_size (int_bound 24) (pair gen_key (int_bound 5)))

let pm_of l = PM.of_seq (List.to_seq l)
let sm_of l = SM.of_seq (List.to_seq l)
let same_map m o = PM.bindings m = SM.bindings o

(* a bound on, next to or between the keys of [l], or anywhere *)
let gen_bound l =
  let open QCheck.Gen in
  let near = match l with [] -> [ 0 ] | _ -> List.map fst l in
  let* k = oneofl near in
  oneof [ oneofl [ k - 1; k; k + 1; k - 7 ]; int_range (-16) 600; return 0; return (-3) ]

let arb_map_bounds =
  QCheck.make
    ~print:QCheck.Print.(triple (list (pair int int)) int int)
    QCheck.Gen.(
      let* l = gen_bindings in
      let* lo = gen_bound l and* hi = gen_bound l in
      return (l, lo, hi))

(* the second map: unrelated, or the first with a few keys added,
   removed or rebound, so that the two share subtrees *)
let gen_map_pair =
  let open QCheck.Gen in
  let* a = gen_bindings in
  let* b =
    oneof
      [ gen_bindings;
        (let* drop = int_bound 3 and* extra = list_size (int_bound 3) (pair gen_key (int_bound 5)) in
         return (List.filteri (fun i _ -> i mod 4 <> drop) a @ extra)) ]
  in
  return (a, b)

let arb_map_pair =
  QCheck.make ~print:QCheck.Print.(pair (list (pair int int)) (list (pair int int))) gen_map_pair

(* [t] unrelated, nested in [s], around [s], overlapping it or disjoint
   from it *)
let gen_set_pair =
  let open QCheck.Gen in
  let* s = gen_keys in
  let* t =
    oneof
      [ gen_keys;
        return (List.filteri (fun i _ -> i mod 2 = 0) s);
        map (fun extra -> s @ extra) gen_keys;
        map (fun extra -> List.filteri (fun i _ -> i mod 3 = 0) s @ extra) gen_keys;
        return (List.map (fun k -> (k land 0xFFFF) + 0x10000) s) ]
  in
  oneofl [ (s, t); (t, s) ]

let arb_set_pair = QCheck.make ~print:QCheck.Print.(pair (list int) (list int)) gen_set_pair

(* not commutative, and [f x x = x] as [inter] requires *)
let skew x y = (2 * x) - y

let raises_negative f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let ptree_tests =
  [ oracle_prop "map: of_seq, bindings ascending, find_opt, add, remove" arb_map_bounds
      (fun (l, k, _) ->
        let m = pm_of l and o = sm_of l in
        same_map m o
        && PM.find_opt k m = SM.find_opt k o
        && List.for_all (fun (k, _) -> PM.find_opt k m = SM.find_opt k o) l
        && (k < 0 || same_map (PM.add k 9 m) (SM.add k 9 o))
        && same_map (PM.remove k m) (SM.remove k o)
        && PM.fold (fun k v acc -> (k, v) :: acc) m [] = SM.fold (fun k v acc -> (k, v) :: acc) o []);
    oracle_prop "map: remove_range and min_geq at range edges" arb_map_bounds (fun (l, lo, hi) ->
        let m = pm_of l and o = sm_of l in
        same_map (PM.remove_range lo hi m) (SM.filter (fun k _ -> k < lo || k >= hi) o)
        && PM.min_geq lo m = SM.find_first_opt (fun k -> k >= lo) o);
    oracle_prop "map: exists, filter_map" arb_map_bounds (fun (l, lo, hi) ->
        let m = pm_of l and o = sm_of l in
        let p k v = k >= lo && k < hi && v > 1 in
        let f k v = if k mod 3 = 0 then None else if v = 2 then Some 7 else Some v in
        PM.exists p m = SM.exists p o && same_map (PM.filter_map f m) (SM.filter_map f o));
    oracle_prop "map: inter with a non-commutative f, equal" arb_map_pair (fun (a, b) ->
        let ma = pm_of a and mb = pm_of b and oa = sm_of a and ob = sm_of b in
        let both f _ x y = match (x, y) with Some x, Some y -> Some (f x y) | _ -> None in
        same_map (PM.inter skew ma mb) (SM.merge (both skew) oa ob)
        && same_map (PM.inter skew mb ma) (SM.merge (both skew) ob oa)
        && PM.equal ( = ) ma mb = SM.equal ( = ) oa ob
        && ma = mb = SM.equal ( = ) oa ob);
    oracle_prop "set: of_list, elements ascending, add, mem, fold, extrema" arb_set_pair
      (fun (s, t) ->
        let ps = IS.of_list s and os = SS.of_list s in
        IS.elements ps = SS.elements os
        && IS.is_empty ps = SS.is_empty os
        && List.for_all (fun k -> IS.mem k ps = SS.mem k os) (t @ s)
        && IS.elements (List.fold_left (fun p k -> IS.add k p) ps t)
           = SS.elements (List.fold_left (fun o k -> SS.add k o) os t)
        && IS.fold (fun k acc -> k :: acc) ps [] = SS.fold (fun k acc -> k :: acc) os []
        && (s = [] || (IS.min_elt ps = SS.min_elt os && IS.max_elt ps = SS.max_elt os))
        && List.for_all (fun k -> IS.elements (IS.singleton k) = [ k ]) t);
    oracle_prop "set: union, subset, equal on nested, overlapping and disjoint sets" arb_set_pair
      (fun (s, t) ->
        let ps = IS.of_list s and pt = IS.of_list t and os = SS.of_list s and ot = SS.of_list t in
        IS.elements (IS.union ps pt) = SS.elements (SS.union os ot)
        && IS.subset ps pt = SS.subset os ot
        && IS.subset pt ps = SS.subset ot os
        && IS.equal ps pt = SS.equal os ot
        && ps = pt = SS.equal os ot);
    Alcotest.test_case "a negative key raises" `Quick (fun () ->
        List.iter
          (fun (what, f) -> Alcotest.(check bool) what true (raises_negative f))
          [ ("Set.add", fun () -> ignore (IS.add (-1) IS.empty));
            ("Set.singleton", fun () -> ignore (IS.singleton min_int));
            ("Set.of_list", fun () -> ignore (IS.of_list [ 3; -8 ]));
            ("Map.add", fun () -> ignore (PM.add (-1) () PM.empty));
            ("Map.of_seq", fun () -> ignore (pm_of [ (0, ()); (-5, ()) ])) ]) ]

(* A state joined with itself, or with a state that adds nothing to it,
   comes back as the very same value: that is what lets the fixpoint's
   [equal old joined] stop at one pointer comparison. *)
let sub_int_state (st : D.st) =
  let open QCheck.Gen in
  (* more cells (absent = top), narrower top registers, more clean xmm
     registers and covered taint: each only sharpens [st] *)
  let* extra = list_size (int_bound 4) (pair (map (fun k -> 8 * k) (int_range 13 40)) (int_bound 3)) in
  let* narrow = array_repeat 16 (opt (int_bound 9)) in
  let* clean = array_repeat 16 bool in
  let cells =
    List.fold_left
      (fun m (a, v) -> PM.add a { D.cv = Si.singleton v; cell_copy_of = None } m)
      st.D.cells extra
  in
  let regs =
    Array.mapi
      (fun i (r : D.rv) ->
        match narrow.(i) with
        | Some v when Si.equal r.D.si Si.top -> { r with D.si = Si.singleton v }
        | _ -> r)
      st.D.regs
  in
  let xmm_clean = Array.mapi (fun i c -> c || clean.(i)) st.D.xmm_clean in
  return { st with D.regs; cells; xmm_clean }

let arb_int_sub =
  QCheck.make
    ~print:(fun (a, b) -> show_int_state a ^ " / " ^ show_int_state b)
    QCheck.Gen.(
      let* a = gen_int_state in
      let* m, covered = gen_covered in
      let a = { a with D.taint = m } in
      let* b = sub_int_state a in
      return (a, { b with D.taint = covered }))

let arb_fp_sub =
  QCheck.make
    ~print:(fun (f, g) ->
      ints (List.map fst (PM.bindings f.Fpa.fmem)) ^ " / " ^ ints (List.map fst (PM.bindings g.Fpa.fmem)))
    QCheck.Gen.(
      let* f = gen_fp_state in
      let* extra = list_size (int_bound 4) (pair (map (fun k -> 8 * k) (int_range 13 40)) (return (FD.const 2.5))) in
      let* lanes = array_repeat 32 (opt (oneofl [ 0.0; -1.0; 1e300 ])) in
      let fx = Array.mapi (fun i v -> match lanes.(i) with Some c -> FD.const c | None -> v) f.Fpa.fx in
      let fmem = List.fold_left (fun m (a, v) -> PM.add a v m) f.Fpa.fmem extra in
      return (f, { Fpa.fx; fmem }))

let sharing_tests =
  [ oracle_prop "inter f m m == m, union s s == s, union s t == s for t in s" arb_set_pair
      (fun (s, t) ->
        let m = pm_of (List.map (fun k -> (k, k land 7)) s) and ps = IS.of_list s in
        let sub = IS.of_list (List.filter (fun k -> List.mem k s) t) in
        PM.inter skew m m == m
        && IS.union ps ps == ps
        && IS.union ps sub == ps
        && IS.union ps IS.empty == ps);
    oracle_prop "untouched maps come back as they are" arb_map_bounds (fun (l, lo, hi) ->
        let m = pm_of l in
        let outside = PM.filter_map (fun k v -> if k >= lo && k < hi then None else Some v) m in
        PM.remove_range lo hi outside == outside
        && PM.filter_map (fun _ v -> Some v) m == m
        && List.for_all (fun (k, _) -> PM.add k (Option.get (PM.find_opt k m)) m == m) l);
    oracle_prop "Domain.join a a == a, Fpa.f_join f f == f" (QCheck.pair arb_int_sub arb_fp_sub)
      (fun ((a, _), (f, _)) ->
        D.join a a == a && D.widen a a == a && Fpa.f_join f f == f && Fpa.f_widen f f == f);
    oracle_prop "joining a sub-state returns the left state" arb_int_sub (fun (a, b) ->
        D.join a b == a && D.widen a b == a);
    oracle_prop "joining an FP sub-state returns the left state" arb_fp_sub (fun (f, g) ->
        Fpa.f_join f g == f && Fpa.f_widen f g == f) ]

(* ---- facts digest ----

   The analysis facts are pinned bit for bit: a canonical text rendering
   of every [Vsa.analysis] field — each Pipeline sink with its kind and
   provenance, the sources, the exit taint spans with their sources, the
   load counts, iterations, blocks, loop heads and bailout, and each Fpa
   verdict with its risks and provenance plus the tier's counts — is
   digested over the stock workloads at both scales and over generated
   programs. The golden counts (analysis_golden.txt) would not notice a
   changed provenance list or iteration count; this does, so a speed-up
   of the analysis must leave these digests alone. *)

(* The [tainted] line keeps the rendering the digests were pinned with:
   each exit taint span by its low address, [G] for an aligned 8-byte
   span and [GF] for any other, deduplicated, every [G] before every
   [GF], each ascending. *)
let tainted_names (p : AP.t) =
  let aligned, other =
    List.partition (fun (lo, hi, _) -> hi - lo = 8 && lo land 7 = 0) p.AP.tainted
  in
  let los spans = List.sort_uniq compare (List.map (fun (lo, _, _) -> lo) spans) in
  List.map (Printf.sprintf "G%d") (los aligned) @ List.map (Printf.sprintf "GF%d") (los other)

let kind_name = function
  | AP.K_int_load -> "int_load"
  | AP.K_movq -> "movq"
  | AP.K_fp_bit -> "fp_bit"

let render_facts buf label (a : Fpvm.Vsa.analysis) =
  let pr fmt = Printf.bprintf buf fmt in
  let p = a.Fpvm.Vsa.pipeline and f = a.Fpvm.Vsa.fpa in
  pr "# %s\n" label;
  pr "sinks %s\nsources %s\ntainted %s\n" (ints a.Fpvm.Vsa.sinks)
    (ints a.Fpvm.Vsa.sources)
    (String.concat "," (tainted_names p));
  pr "loads %d proven %d iterations %d\n" a.Fpvm.Vsa.total_int_loads
    a.Fpvm.Vsa.proven_safe_loads a.Fpvm.Vsa.iterations;
  List.iter
    (fun (s : AP.sink) ->
      pr "sink %d %s [%s]\n" s.AP.sink_index (kind_name s.AP.kind) (ints s.AP.srcs))
    p.AP.sinks;
  pr "pipeline sources %s\n" (ints p.AP.sources);
  pr "pipeline loads %d proven %d elided %d iterations %d blocks %d heads %d bailed %b\n"
    p.AP.total_int_loads p.AP.proven_safe_loads p.AP.trap_checks_elided
    p.AP.iterations p.AP.n_blocks p.AP.n_loop_heads p.AP.bailed_out;
  List.iter (fun (lo, hi, srcs) -> pr "span %d %d [%s]\n" lo hi (ints srcs)) p.AP.tainted;
  Array.iter
    (fun (v : Analysis.Fpa.verdict) ->
      pr "verdict %d sub_free %b born_free %b risks [%s] srcs [%s]\n"
        v.Analysis.Fpa.v_index v.Analysis.Fpa.v_sub_free v.Analysis.Fpa.v_born_free
        (String.concat "," v.Analysis.Fpa.v_risks) (ints v.Analysis.Fpa.v_srcs))
    f.Analysis.Fpa.verdicts;
  pr "fpa sites %d sub_free %d born_free %d proven %d iterations %d bailed %b\n"
    f.Analysis.Fpa.sites f.Analysis.Fpa.sub_free f.Analysis.Fpa.born_free
    f.Analysis.Fpa.proven f.Analysis.Fpa.iterations f.Analysis.Fpa.bailed_out

let facts_digest programs =
  let buf = Buffer.create (1 lsl 16) in
  List.iter (fun (label, prog) -> render_facts buf label (Fpvm.Vsa.analyze prog)) programs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let stock scale =
  List.map (fun (e : Workloads.entry) -> (e.Workloads.name, e.Workloads.program scale)) Workloads.all

(* The draws come from QCheck's combinators, so a QCheck release that
   draws differently changes the programs; their own digest tells that
   apart from a change in the facts. *)
let draws_digest = "c93c9e8b077531f0bc5ae7d93166a965"

let generated () =
  let draws =
    QCheck.Gen.generate ~rand:(Random.State.make [| 0xFAC75 |]) ~n:200
      Random_program.gen_program
  in
  Alcotest.(check string) "digest of the generated programs" draws_digest
    (Digest.to_hex
       (Digest.string
          (String.concat "\n" (List.map (Format.asprintf "%a" Fpvm_ir.Ast.pp_program) draws))));
  List.mapi (fun i p -> (Printf.sprintf "random %d" i, Fpvm_ir.Codegen.compile_program p)) draws

(* The integer tier alone, as it ran before both tiers shared one
   fixpoint: the worklist over Pipeline.transfer, with compare
   refinement on the two edges of a conditional branch, then the same
   report.  Every field but [iterations] must equal what the shared
   fixpoint's integer halves give. *)
let int_block ctx (blk : Cfg.block) st =
  let st = ref st in
  for i = blk.Cfg.first to blk.Cfg.last do
    st := AP.transfer ctx i !st ctx.AP.insns.(i)
  done;
  let st = !st and n = Array.length ctx.AP.insns in
  let strip st = { st with D.cmp = None } in
  match ctx.AP.insns.(blk.Cfg.last) with
  | Isa.Jcc (c, t) when t >= 0 && t < n && blk.Cfg.last + 1 < n ->
      let tb = ctx.AP.cfg.Cfg.block_of.(t) and fb = ctx.AP.cfg.Cfg.block_of.(blk.Cfg.last + 1) in
      if tb = fb then [ (tb, strip st) ]
      else
        List.filter_map
          (fun (b, taken) -> Option.map (fun s -> (b, strip s)) (AP.refine_edge st c ~taken))
          [ (tb, true); (fb, false) ]
  | _ -> List.map (fun s -> (s, st)) blk.Cfg.succs

let int_alone prog =
  let ctx = AP.context prog in
  Analysis.Fixpoint.run ctx.AP.cfg ~entry:(AP.entry_state ctx.AP.mem_size)
    ~transfer:(int_block ctx) ~join:D.join ~widen:D.widen ~equal:D.equal
  |> AP.report ctx ~int_of:Fun.id ~transfer:(AP.transfer ctx)

let same_int_facts programs =
  let bailed = ref 0 and bailed_shared = ref 0 in
  List.iter
    (fun (label, prog) ->
      let alone = int_alone prog and shared, _ = Analysis.Fpa.analyze prog in
      if alone.AP.bailed_out then incr bailed;
      if shared.AP.bailed_out then incr bailed_shared;
      if { alone with AP.iterations = 0 } <> { shared with AP.iterations = 0 } then
        Alcotest.failf "%s: the integer facts differ" label)
    programs;
  Printf.printf "%d programs, bailouts: %d alone, %d shared\n" (List.length programs) !bailed
    !bailed_shared

let variants scale =
  List.concat_map
    (fun (e : Workloads.entry) ->
      [ (e.Workloads.name, e.Workloads.program scale);
        (e.Workloads.name ^ " instrumented", e.Workloads.instrumented scale) ])
    Workloads.all

let digest_tests =
  List.map
    (fun (name, golden, programs) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "facts digest" golden (facts_digest (programs ()))))
    [ ("stock workloads, test scale", "b36c5078ba80ee420dcf8d94921b90ab",
       fun () -> stock Workloads.Test);
      ("stock workloads, S scale", "accf330a8ca20e8c086cb898087b4605",
       fun () -> stock Workloads.S);
      ("200 generated programs", "4ae13ba31c1cefa2c5ba6b9da65cee2c", generated) ]
  @ [ Alcotest.test_case "integer tier alone, stock variants" `Quick (fun () ->
          same_int_facts (variants Workloads.Test @ variants Workloads.S));
      Alcotest.test_case "integer tier alone, 1,000 generated programs" `Quick (fun () ->
          QCheck.Gen.generate ~rand:(Random.State.make [| 0x1A7E |]) ~n:1000
            Random_program.gen_program
          |> List.mapi (fun i p -> (Printf.sprintf "random %d" i, Fpvm_ir.Codegen.compile_program p))
          |> same_int_facts) ]

let () =
  Alcotest.run "analysis"
    [ ("strided intervals", si_tests);
      ("cfg", cfg_tests);
      ("pipeline", pipeline_tests);
      ("idioms", idiom_tests);
      ("patching", patch_tests);
      ("oracle", oracle_tests);
      ("taint map", taint_tests);
      ("invalidation", invalidation_tests);
      ("patricia trees", ptree_tests);
      ("sharing", sharing_tests);
      ("facts digest", digest_tests)
    ]

(* Trace-JIT differential tests.

   The JIT is a pure performance optimization: for every workload,
   every arithmetic port and both GC modes, the program-visible results
   (printed output and the serialized Write_f64 channel) must be
   bit-identical with the JIT on and off, and the trap-worthy event
   count must be conserved (linking and fusion move deliveries into
   absorptions, never create or lose them).

   Beyond the differential we pin each guard kind individually, each
   proving the interpreter fallback is bit-exact mid-trace:
   - taint: a fused step whose raw operands stop being fusable (here a
     memory operand flipped to a subnormal) side-exits to the
     interpretive window;
   - shape: a compiled step whose instruction is no longer physically
     the one it was compiled from side-exits;
   - patch invalidation: a trap-and-patch rewrite of any touched site
     drops the whole superblock.
   A hand-built loop also pins the shadow-temp guard on compiled steps:
   every raw observer of a temp inside a block re-boxes it first. *)

module W = Workloads

let scale = W.Test

module EV = Fpvm.Engine.Make (Fpvm.Alt_vanilla)

(* Threshold 2 so Test-scale workloads get hot; everything else is the
   shipping default. *)
let cfg ?(use_jit = true) ?(jit_threshold = 2) ?(incremental_gc = true)
    ?(approach = Fpvm.Engine.Trap_and_emulate) ?(trace_len = 16) () =
  { Fpvm.Engine.default_config with
    Fpvm.Engine.approach; use_jit; jit_threshold; incremental_gc;
    Fpvm.Engine.max_trace_len = trace_len }

let ports :
    (string * ((config:Fpvm.Engine.config -> Machine.Program.t ->
                Fpvm.Engine.result) * (unit -> unit))) list =
  let module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
  let module E_mpfr = Fpvm.Engine.Make (Fpvm.Alt_mpfr) in
  let module E_posit = Fpvm.Engine.Make (Fpvm.Alt_posit) in
  let module E_interval = Fpvm.Engine.Make (Fpvm.Alt_interval) in
  let module E_slash = Fpvm.Engine.Make (Fpvm.Alt_slash) in
  [ ("vanilla", ((fun ~config p -> E_vanilla.run ~config p), ignore));
    ("mpfr",
     ((fun ~config p -> E_mpfr.run ~config p),
      ignore));
    ("posit", ((fun ~config p -> E_posit.run ~config p), ignore));
    ("interval", ((fun ~config p -> E_interval.run ~config p), ignore));
    ("slash", ((fun ~config p -> E_slash.run ~config p), ignore)) ]

(* ---- jit on == jit off, everywhere ------------------------------------ *)

let differential =
  List.concat_map
    (fun (port, (run, setup)) ->
      List.concat_map
        (fun (gc_name, incremental_gc) ->
          List.map
            (fun (e : W.entry) ->
              Alcotest.test_case
                (Printf.sprintf "%s/%s/%s: jit == no-jit" e.W.name port
                   gc_name)
                `Quick
                (fun () ->
                  setup ();
                  let prog = e.W.program scale in
                  let off =
                    run ~config:(cfg ~use_jit:false ~incremental_gc ()) prog
                  and on = run ~config:(cfg ~incremental_gc ()) prog in
                  Alcotest.(check string) "output bit-identical"
                    off.Fpvm.Engine.output on.Fpvm.Engine.output;
                  Alcotest.(check string) "serialized bit-identical"
                    off.Fpvm.Engine.serialized on.Fpvm.Engine.serialized;
                  let so = off.Fpvm.Engine.stats
                  and sn = on.Fpvm.Engine.stats in
                  (* linking turns deliveries into absorptions; the
                     trap-worthy total is untouchable *)
                  Alcotest.(check int) "trap-worthy events conserved"
                    (so.Fpvm.Stats.fp_traps + so.Fpvm.Stats.traps_avoided)
                    (sn.Fpvm.Stats.fp_traps + sn.Fpvm.Stats.traps_avoided);
                  Alcotest.(check int) "same emulations"
                    so.Fpvm.Stats.emulated_insns sn.Fpvm.Stats.emulated_insns;
                  Alcotest.(check int) "no jit traffic when disabled" 0
                    (so.Fpvm.Stats.jit_compiles + so.Fpvm.Stats.jit_hits
                   + so.Fpvm.Stats.jit_links + so.Fpvm.Stats.jit_guard_exits
                   + so.Fpvm.Stats.jit_invalidations
                   + so.Fpvm.Stats.cyc_jit)))
            W.all)
        [ ("incremental-gc", true); ("full-gc", false) ])
    ports

(* ---- accounting: blocks compile, hit, link; steps get cheaper --------- *)

let accounting_tests =
  [ Alcotest.test_case "hot heads compile, revisits hit, loops link" `Quick
      (fun () ->
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        List.iter
          (fun name ->
            let prog = (Option.get (W.find name)).W.program scale in
            let s = (E.run ~config:(cfg ()) prog).Fpvm.Engine.stats in
            Alcotest.(check bool) (name ^ ": blocks compiled") true
              (s.Fpvm.Stats.jit_compiles > 0);
            Alcotest.(check bool) (name ^ ": compiled blocks hit") true
              (s.Fpvm.Stats.jit_hits > s.Fpvm.Stats.jit_compiles);
            Alcotest.(check bool) (name ^ ": jit cycles charged") true
              (s.Fpvm.Stats.cyc_jit > 0))
          [ "lorenz"; "three-body"; "NAS CG" ];
        let prog = Workloads.Lorenz.program ~steps:300 () in
        (* linking needs windows long enough to reach the loop
           back-edge: the shipping default, not the short test window *)
        let s =
          (E.run ~config:(cfg ~trace_len:64 ()) prog).Fpvm.Engine.stats
        in
        Alcotest.(check bool) "loop back-edges link compiled-to-compiled"
          true
          (s.Fpvm.Stats.jit_links > 0));
    Alcotest.test_case "steady-state window cost collapses" `Quick (fun () ->
        (* the modeled cost of running windows: interpretive trace
           stepping + per-visit bind/dispatch vs compiled stepping *)
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let cost use_jit =
          let s = (E.run ~config:(cfg ~use_jit ()) prog).Fpvm.Engine.stats in
          s.Fpvm.Stats.cyc_trace + s.Fpvm.Stats.cyc_bind
          + s.Fpvm.Stats.cyc_emu_dispatch + s.Fpvm.Stats.cyc_jit
        in
        let off = cost false and on = cost true in
        Alcotest.(check bool) "at least 2x cheaper" true
          (float_of_int off /. float_of_int (max 1 on) >= 2.0));
    Alcotest.test_case "threshold gates compilation" `Quick (fun () ->
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let s =
          (E.run ~config:(cfg ~jit_threshold:max_int ()) prog)
            .Fpvm.Engine.stats
        in
        Alcotest.(check int) "cold heads never compile" 0
          s.Fpvm.Stats.jit_compiles;
        Alcotest.(check int) "no hits without blocks" 0
          s.Fpvm.Stats.jit_hits) ]

(* ---- taint guard: a fused step's operands stop being fusable ---------- *)

(* A loop whose add site sees a boxed x and a raw memory operand d; at
   iteration 40 the program stores new literal bits into d. With
   [flip = 2.0] the site stays fusable; with [flip = 5e-324] every
   post-flip execution of the compiled block must take the taint side
   exit (a subnormal raw operand would perturb the absorbed flag set,
   so the fused path refuses it) and fall back to the interpreter.
   Control flow is identical in both variants, so the exit-count
   difference isolates the taint guard from the rip guard. *)
let flip_prog flip =
  let open Fpvm_ir.Ast in
  let x = fv "x" and d = fv "d" in
  let body =
    [ For
        ( "step", i 0, i 80,
          [ Fset ("x", x *: f 1.0000001);
            Fset ("acc", fv "acc" +: (x +: d));
            If (Icmp (Eq, iv "step", i 40), [ Fset ("d", f flip) ], []) ] );
      Print_f (fv "acc");
      Print_f x ]
  in
  Fpvm_ir.Codegen.compile_program
    { name = "taint-flip";
      decls =
        [ Fscalar ("x", 1.5); Fscalar ("d", 1.0); Fscalar ("acc", 0.0);
          Iscalar ("step", 0) ];
      body }

let taint_tests =
  [ Alcotest.test_case "subnormal operand forces the taint side exit"
      `Quick
      (fun () ->
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        let exits flip =
          (E.run ~config:(cfg ()) (flip_prog flip)).Fpvm.Engine.stats
            .Fpvm.Stats.jit_guard_exits
        in
        let normal = exits 2.0 and subnormal = exits 5e-324 in
        Alcotest.(check bool)
          (Printf.sprintf "subnormal flip exits more (%d vs %d)" subnormal
             normal)
          true
          (subnormal > normal));
    Alcotest.test_case "taint fallback is bit-identical" `Quick (fun () ->
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        List.iter
          (fun flip ->
            let on = E.run ~config:(cfg ()) (flip_prog flip)
            and off =
              E.run ~config:(cfg ~use_jit:false ()) (flip_prog flip)
            in
            Alcotest.(check string) "output bit-identical"
              off.Fpvm.Engine.output on.Fpvm.Engine.output;
            let so = off.Fpvm.Engine.stats and sn = on.Fpvm.Engine.stats in
            Alcotest.(check int) "trap-worthy events conserved"
              (so.Fpvm.Stats.fp_traps + so.Fpvm.Stats.traps_avoided)
              (sn.Fpvm.Stats.fp_traps + sn.Fpvm.Stats.traps_avoided))
          [ 2.0; 5e-324 ]) ]

(* ---- packed steps: a raw lane raises its own events ------------------ *)

(* A 400-iteration loop over a two-lane addpd: lane 0 is boxed after the
   first pass, lane 1 stays a raw 1.0 + 0.1, so every later pass raises
   invalid and inexact. Only native dispatch reports both; a fused step
   would absorb the event with invalid alone. *)
let packed_prog () =
  let open Machine in
  let b = Program.create ~name:"packed-add" () in
  let a = Program.data_f64 b [| 1.0; 1.0 |] in
  let c = Program.data_f64 b [| 0.1; 0.1 |] in
  Program.emit b (Isa.Mov { size = 8; dst = Isa.Reg Isa.RCX; src = Isa.Imm 0L });
  let loop = Program.new_label b in
  Program.place b loop;
  Program.emit b (Isa.Mov_x { dst = Isa.Xmm 0; src = Isa.Mem (Isa.addr a) });
  Program.emit b
    (Isa.Fp_arith
       { op = Isa.FADD; w = Isa.F64; packed = true; dst = Isa.Xmm 0;
         src = Isa.Mem (Isa.addr c) });
  Program.emit b
    (Isa.Mov_f { w = Isa.F64; dst = Isa.Mem (Isa.addr a); src = Isa.Xmm 0 });
  Program.emit b (Isa.Inc (Isa.Reg Isa.RCX));
  Program.emit b (Isa.Cmp { a = Isa.Reg Isa.RCX; b = Isa.Imm 400L });
  Program.jcc b Isa.Jl loop;
  Program.emit b (Isa.Call_ext Isa.Print_f64);
  Program.emit b Isa.Halt;
  Program.finish b

let packed_tests =
  [ Alcotest.test_case "absorbed flags do not depend on the JIT or the FP tier"
      `Quick (fun () ->
        let prog = packed_prog () in
        let absorbed use_jit use_fpa =
          let config =
            { Fpvm.Engine.default_config with
              Fpvm.Engine.use_jit; use_fpa }
          in
          let ses = EV.prepare ~config prog in
          let flags = ref [] in
          Fpvm.Probe.add_event (EV.probe ses.EV.eng) (fun _ -> function
            | Fpvm.Probe.Absorbed { events; _ } -> flags := events :: !flags
            | _ -> ());
          ignore (EV.resume ses);
          List.rev !flags
        in
        let interpreted = absorbed false false in
        Alcotest.(check bool) "events absorbed" true (interpreted <> []);
        List.iter
          (fun (use_jit, use_fpa) ->
            Alcotest.(check (list int))
              (Printf.sprintf "jit %b, fpa %b" use_jit use_fpa)
              interpreted (absorbed use_jit use_fpa))
          [ (true, true); (true, false); (false, true) ]) ]

(* ---- shape guard: the compiled-from instruction is gone --------------- *)

(* Compiled steps key on the physical identity of the instruction they
   were compiled from. Replacing a mid-window instruction with a
   structurally equal but physically fresh copy must trip the shape
   guard on every subsequent block execution — semantics are untouched,
   so the interpreter fallback must reproduce the run bit-exactly. *)
let clone_insn (i : Machine.Isa.insn) : Machine.Isa.insn =
  Marshal.from_string (Marshal.to_string i []) 0

(* A donor run's hot state, once its blocks compiled: the engine's
   checkpoint section after the run (plan table, hot counters, recorded
   paths) and the (head, path) recordings it published to a fresh
   artifact store, ascending by head. *)
let donor config prog =
  let store = Fpvm.Artifact.create () in
  let ses = EV.prepare ~config ~artifacts:store prog in
  let r = EV.resume ses in
  let b = Buffer.create 4096 in
  EV.capture ses b;
  let paths =
    Hashtbl.fold
      (fun _ entry acc ->
        Hashtbl.fold
          (fun head recipes acc ->
            List.fold_left
              (fun acc rc -> (head, rc.Fpvm.Artifact.rc_path) :: acc)
              acc !recipes)
          entry acc)
      store.Fpvm.Artifact.entries []
  in
  (r, Buffer.contents b, List.sort compare paths)

(* A fresh session seeded with a donor's section before its first
   instruction. *)
let seeded config prog section =
  let ses = EV.prepare ~config prog in
  EV.restore ses section (ref 0);
  ses

let shape_tests =
  [ Alcotest.test_case "stale instruction identity forces a side exit"
      `Quick
      (fun () ->
        let prog = Workloads.Lorenz.program ~steps:300 () in
        let config = cfg () in
        (* Run once to harvest the hot state. *)
        let base, section, paths = donor config prog in
        Alcotest.(check bool) "baseline compiled blocks" true (paths <> []);
        let heads = List.map fst paths in
        (* Seed a fresh session (control) and a mutated twin. *)
        let control = seeded config prog section
        and mutated = seeded config prog section in
        (* Swap every mid-window step (never a head: heads are lookup
           keys, and a missed lookup is not a guard exit) for a
           physically fresh copy. *)
        let swapped = ref 0 in
        List.iter
          (fun (h, path) ->
            if Array.length path >= 2 then begin
              let idx = fst path.(1) in
              if idx <> h && not (List.mem idx heads) then begin
                let insns = mutated.EV.prog.Machine.Program.insns in
                insns.(idx) <- clone_insn insns.(idx);
                incr swapped
              end
            end)
          paths;
        Alcotest.(check bool) "at least one step swapped" true (!swapped > 0);
        let rc = EV.resume control and rm = EV.resume mutated in
        Alcotest.(check string) "control output bit-identical"
          base.Fpvm.Engine.output rc.Fpvm.Engine.output;
        Alcotest.(check string) "fallback output bit-identical"
          base.Fpvm.Engine.output rm.Fpvm.Engine.output;
        Alcotest.(check string) "fallback serialized bit-identical"
          base.Fpvm.Engine.serialized rm.Fpvm.Engine.serialized;
        let sc = rc.Fpvm.Engine.stats and sm = rm.Fpvm.Engine.stats in
        Alcotest.(check bool)
          (Printf.sprintf "shape guard fired (%d vs %d exits)"
             sm.Fpvm.Stats.jit_guard_exits sc.Fpvm.Stats.jit_guard_exits)
          true
          (sm.Fpvm.Stats.jit_guard_exits > sc.Fpvm.Stats.jit_guard_exits)) ]

(* ---- patch invalidation: trap-and-patch rewrites drop blocks ---------- *)

let invalidation_tests =
  [ Alcotest.test_case "trap-and-patch rewrites invalidate touched blocks"
      `Quick
      (fun () ->
        let prog = Workloads.Lorenz.program ~steps:300 () in
        (* Harvest compiled blocks from a trap-and-emulate run, seed
           them into a trap-and-patch session: each first trap rewrites
           its site, and every seeded block touching a rewritten site
           must be dropped (it would otherwise execute the pre-patch
           instruction object the rewrite just replaced). *)
        let _, section, paths = donor (cfg ()) prog in
        Alcotest.(check bool) "donor run compiled blocks" true (paths <> []);
        let pconfig = cfg ~approach:Fpvm.Engine.Trap_and_patch () in
        let r = EV.resume (seeded pconfig prog section) in
        let s = r.Fpvm.Engine.stats in
        Alcotest.(check bool) "sites were patched" true
          (s.Fpvm.Stats.patch_invocations > 0);
        Alcotest.(check bool)
          (Printf.sprintf "blocks invalidated (%d)"
             s.Fpvm.Stats.jit_invalidations)
          true
          (s.Fpvm.Stats.jit_invalidations > 0);
        (* the rewrites plus invalidations must leave results untouched *)
        let plain =
          EV.run ~config:(cfg ~use_jit:false
                            ~approach:Fpvm.Engine.Trap_and_patch ())
            prog
        in
        Alcotest.(check string) "patched output still jit-invariant"
          plain.Fpvm.Engine.output r.Fpvm.Engine.output) ]

(* ---- fused inputs: the decoder's list against the table it replaced -- *)

module Isa = Machine.Isa

(* The trace JIT's own table of an instruction's FP inputs, kept
   verbatim from the superblock IR the JIT compiled through before it
   compiled recorded paths directly: the oracle for
   [Decoder.fused_inputs]. *)
let fp_inputs (insn : Isa.insn) : Isa.operand list option =
  match insn with
  | Isa.Fp_arith { w = Isa.F64; packed = false; op = Isa.FSQRT; src; _ } ->
      Some [ src ]
  | Isa.Fp_arith { w = Isa.F64; packed = false; dst; src; _ } ->
      Some [ dst; src ]
  | Isa.Fp_cmp { w = Isa.F64; a; b; _ } -> Some [ a; b ]
  | Isa.Fp_cmppred { w = Isa.F64; dst; src; _ } -> Some [ dst; src ]
  | Isa.Fp_round { w = Isa.F64; dst = _; src; _ } -> Some [ src ]
  | Isa.Cvt_f2f { from_w = Isa.F64; src; _ } -> Some [ src ]
  | Isa.Cvt_f2i { w = Isa.F64; src; _ } -> Some [ src ]
  | _ -> None

(* Every trapping FP form at both widths, packed and scalar, over an
   xmm or a memory source. *)
let every_form =
  let bools = [ false; true ] and rax = Isa.Reg Isa.RAX in
  List.concat_map
    (fun (dst, src) ->
      List.concat_map
        (fun w ->
          List.concat_map
            (fun op ->
              List.map
                (fun packed -> Isa.Fp_arith { op; w; packed; dst; src })
                bools)
            Isa.[ FADD; FSUB; FMUL; FDIV; FMIN; FMAX; FSQRT ]
          @ List.map
              (fun signaling -> Isa.Fp_cmp { signaling; w; a = dst; b = src })
              bools
          @ List.map
              (fun pred -> Isa.Fp_cmppred { pred; w; dst; src })
              Isa.[ EQ; LT; LE; NEQ; NLT; NLE; ORD; UNORD ]
          @ List.map
              (fun imm -> Isa.Fp_round { imm; w; dst; src })
              Isa.[ RN; RD; RU; RZ ]
          @ [ Isa.Cvt_f2f { from_w = w; dst; src } ]
          @ List.concat_map
              (fun truncate ->
                List.map
                  (fun size -> Isa.Cvt_f2i { w; truncate; size; dst = rax; src })
                  [ 4; 8 ])
              bools
          @ List.map
              (fun size -> Isa.Cvt_i2f { w; size; dst; src = rax })
              [ 4; 8 ])
        [ Isa.F32; Isa.F64 ])
    [ (Isa.Xmm 1, Isa.Xmm 2); (Isa.Xmm 3, Isa.Mem (Isa.addr ~base:Isa.RBP 16)) ]

(* Each instruction bare and under each instrumentation wrapper: the
   decoder's list must equal the old table's on the unwrapped form. *)
let same_fused_inputs insns =
  let fused = ref 0 in
  List.iter
    (fun i ->
      List.iter
        (fun w ->
          let want = fp_inputs (Machine.Program.strip_insn w) in
          if Fpvm.Decoder.fused_inputs w <> want then
            Alcotest.failf "fused inputs differ on %a" Isa.pp_insn w;
          if want <> None then incr fused)
        [ i; Isa.Correctness_trap i; Isa.Checked i;
          Isa.Patched { site_id = 1; original = i } ])
    insns;
  Alcotest.(check bool) "some instruction fuses" true (!fused > 0)

let fused_input_tests =
  let insns (p : Machine.Program.t) = Array.to_list p.Machine.Program.insns in
  [ Alcotest.test_case "stock programs, both scales, plain and instrumented"
      `Quick (fun () ->
        W.all
        |> List.concat_map (fun (e : W.entry) ->
               List.concat_map
                 (fun scale ->
                   insns (e.W.program scale) @ insns (e.W.instrumented scale))
                 [ W.Test; W.S ])
        |> same_fused_inputs);
    Alcotest.test_case "200 generated programs" `Quick (fun () ->
        QCheck.Gen.generate ~rand:(Random.State.make [| 0xF05ED |]) ~n:200
          Random_program.gen_program
        |> List.concat_map (fun p -> insns (Fpvm_ir.Codegen.compile_program p))
        |> same_fused_inputs);
    Alcotest.test_case "every FP form at both widths" `Quick (fun () ->
        same_fused_inputs every_form) ]

(* ---- the shadow-temp guard inside compiled blocks --------------------- *)

(* A loop whose every window runs compiled after the first delivery
   (threshold 1). Each iteration traps at the divide into xmm0 and
   makes five shadow temps, one per raw observer the static analysis
   leaves unpatched: a divide into xmm0, a copy of it into another
   register and a spill to memory, then xmm0 is overwritten, so the
   no-escape scan, which follows only xmm0, elides the divide. The
   observers then act on the copies and spill words: a [pop] of the
   temp spilled at [rsp], a [movq] of a copy whose result is dead (the
   analysis exempts it), an F32 add, an [andpd] of a copy with itself
   and a [cvtsd2ss] into a copy. The guard must re-box each temp before
   its observer runs. The popped box goes back through the stack into
   the printed sum, and the spill words are printed after the loop. *)
let guard_prog () =
  let open Machine in
  let b = Program.create ~name:"guard-loop" () in
  let k = Program.data_f64 b [| 1.0; 3.0; 7.0; 0.0 |] in
  let spills = Program.data_zero b 40 in
  let one = Isa.Mem (Isa.addr k)
  and three = Isa.Mem (Isa.addr (k + 8))
  and seven = Isa.Mem (Isa.addr (k + 16))
  and acc = Isa.Mem (Isa.addr (k + 24))
  and spill i = Isa.Mem (Isa.addr (spills + (8 * i)))
  and top = Isa.Mem (Isa.addr ~base:Isa.RSP 0) in
  let emit = Program.emit b in
  let movsd dst src = emit (Isa.Mov_f { w = Isa.F64; dst; src }) in
  let temp i divisor =
    movsd (Isa.Xmm 0) one;
    emit
      (Isa.Fp_arith
         { op = Isa.FDIV; w = Isa.F64; packed = false; dst = Isa.Xmm 0;
           src = divisor });
    movsd (Isa.Xmm (i + 1)) (Isa.Xmm 0);
    movsd (spill i) (Isa.Xmm 0)
  in
  emit (Isa.Mov { size = 8; dst = Isa.Reg Isa.RCX; src = Isa.Imm 6L });
  let loop = Program.new_label b in
  Program.place b loop;
  temp 0 three;
  emit (Isa.Push (Isa.Reg Isa.RAX));
  movsd top (Isa.Xmm 0);
  movsd (Isa.Xmm 0) one;
  emit (Isa.Pop (Isa.Reg Isa.RBX));
  temp 1 seven;
  emit (Isa.Movq_xr { dst = Isa.RAX; src = 2 });
  emit (Isa.Mov { size = 8; dst = Isa.Reg Isa.RAX; src = Isa.Imm 0L });
  temp 2 three;
  emit
    (Isa.Fp_arith
       { op = Isa.FADD; w = Isa.F32; packed = false; dst = Isa.Xmm 3;
         src = Isa.Xmm 3 });
  temp 3 seven;
  emit (Isa.Fp_bit { op = Isa.BAND; dst = Isa.Xmm 4; src = Isa.Xmm 4 });
  temp 4 three;
  emit (Isa.Cvt_f2f { from_w = Isa.F64; dst = Isa.Xmm 5; src = one });
  emit (Isa.Push (Isa.Reg Isa.RBX));
  movsd (Isa.Xmm 6) top;
  emit
    (Isa.Int_arith { op = Isa.ADD; dst = Isa.Reg Isa.RSP; src = Isa.Imm 8L });
  emit
    (Isa.Fp_arith
       { op = Isa.FADD; w = Isa.F64; packed = false; dst = Isa.Xmm 6;
         src = acc });
  movsd acc (Isa.Xmm 6);
  movsd (Isa.Xmm 0) (Isa.Xmm 6);
  emit (Isa.Call_ext Isa.Print_f64);
  emit (Isa.Dec (Isa.Reg Isa.RCX));
  Program.jcc b Isa.Jnz loop;
  List.iter
    (fun i ->
      movsd (Isa.Xmm 0) (spill i);
      emit (Isa.Call_ext Isa.Print_f64))
    [ 0; 1; 2; 3; 4 ];
  emit Isa.Halt;
  Program.finish b

(* The guard's integer-move arm inside a compiled block: a 2-byte load
   of a spilled temp, which the analysis leaves unpatched (it patches
   integer loads of 4 and 8 bytes). The guard re-boxes the temp before
   the load, ahead of the box the add then allocates, so the order of
   the two boxes, which the checkpoints hold, shows whether it ran. *)
let narrow_prog () =
  let open Machine in
  let b = Program.create ~name:"narrow-load" () in
  let k = Program.data_f64 b [| 1.0; 3.0; 0.0 |] in
  let spill = Program.data_zero b 8 in
  let one = Isa.Mem (Isa.addr k)
  and three = Isa.Mem (Isa.addr (k + 8))
  and acc = Isa.Mem (Isa.addr (k + 16))
  and word = Isa.Mem (Isa.addr spill) in
  let emit = Program.emit b in
  let movsd dst src = emit (Isa.Mov_f { w = Isa.F64; dst; src }) in
  emit (Isa.Mov { size = 8; dst = Isa.Reg Isa.RCX; src = Isa.Imm 6L });
  let loop = Program.new_label b in
  Program.place b loop;
  movsd (Isa.Xmm 0) one;
  emit
    (Isa.Fp_arith
       { op = Isa.FDIV; w = Isa.F64; packed = false; dst = Isa.Xmm 0;
         src = three });
  movsd word (Isa.Xmm 0);
  movsd (Isa.Xmm 0) one;
  emit (Isa.Mov { size = 2; dst = Isa.Reg Isa.RAX; src = word });
  movsd (Isa.Xmm 1) word;
  emit
    (Isa.Fp_arith
       { op = Isa.FADD; w = Isa.F64; packed = false; dst = Isa.Xmm 1;
         src = acc });
  movsd acc (Isa.Xmm 1);
  movsd (Isa.Xmm 0) (Isa.Xmm 1);
  emit (Isa.Call_ext Isa.Print_f64);
  emit (Isa.Dec (Isa.Reg Isa.RCX));
  Program.jcc b Isa.Jnz loop;
  movsd (Isa.Xmm 0) word;
  emit (Isa.Call_ext Isa.Print_f64);
  emit Isa.Halt;
  Program.finish b

(* In both GC modes: [prog] at JIT threshold 1 prints what native
   prints, as it does under --no-jit and --no-plans, the oracle sees no
   temp pattern, blocks ran and temps were elided; the MD5s of the log,
   the checkpoints and the fingerprint are [pins]. *)
let check_guard prog ~name ~fingerprint pins =
  let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
  let native = (Fpvm.Engine.run_native prog).Fpvm.Engine.output in
  let md5 x = Digest.to_hex (Digest.string x) in
  List.iter
    (fun (gc, incremental_gc, (log, checkpoints)) ->
      let config =
        { Fpvm.Engine.default_config with
          Fpvm.Engine.jit_threshold = 1; incremental_gc; oracle = true }
      in
      List.iter
        (fun (what, config) ->
          let r = S.E.run ~config prog in
          let s = r.Fpvm.Engine.stats in
          let what = Printf.sprintf "%s, %s: " what gc in
          Alcotest.(check string) (what ^ "output") native r.Fpvm.Engine.output;
          Alcotest.(check int) (what ^ "oracle clean") 0
            s.Fpvm.Stats.oracle_boxed_loads)
        [ ("jit", config);
          ("--no-jit", { config with Fpvm.Engine.use_jit = false });
          ("--no-plans", { config with Fpvm.Engine.use_plans = false }) ];
      let meta =
        { Replay.Log.workload = name; scale = "test"; arith = "vanilla";
          config = gc }
      in
      let r = S.record ~checkpoint_every:8 ~meta ~config prog in
      let s = r.Replay.Session.result.Fpvm.Engine.stats in
      Alcotest.(check bool) (gc ^ ": blocks ran") true (s.Fpvm.Stats.jit_hits > 0);
      Alcotest.(check bool) (gc ^ ": temps elided") true
        (s.Fpvm.Stats.temps_elided > 0);
      Alcotest.(check string) (gc ^ ": log") log (md5 r.Replay.Session.log_bytes);
      Alcotest.(check (list string)) (gc ^ ": checkpoints") checkpoints
        (List.map (fun (_, blob) -> md5 blob) r.Replay.Session.checkpoints);
      Alcotest.(check string) (gc ^ ": fingerprint") fingerprint
        (md5 (Fpvm.Stats.fingerprint s)))
    (List.map2
       (fun (gc, incremental_gc) p -> (gc, incremental_gc, p))
       [ ("incremental-gc", true); ("full-gc", false) ]
       pins)

let guard_tests =
  [ Alcotest.test_case "observers of temps in compiled blocks see boxes"
      `Quick (fun () ->
        check_guard (guard_prog ()) ~name:"guard-loop"
          ~fingerprint:"fd012c710b2d428f3fc1d085aae7b47d"
          [ ("10899ae78a57c69cc1a97045377e253e",
             [ "413d7e6e4820c5bf1ffe2a8d0c2e3a99";
               "5ca1ba0b80743c5c16e541ce77a7fb11";
               "70b822751556ac1f56dd993b59ccd03c";
               "e55bbae636748d4b8a723ca984d74b6c";
               "a9821f3b52e26fc6a7320ab01cfbbbc5" ]);
            ("49252f8864e3e371b6985909f82e5a58",
             [ "3aea373c15beed4855d47dee294e21a3";
               "6efc9ee34c2b9bb7e7abdb0125b8d416";
               "96072bf1107debac1d34e3f6e3ddb6ce";
               "e71a2b0e73b887b02b7f2502dbaeeb71";
               "4e4ce714e41c5f418d66cc29cf6ab79b" ]) ]);
    Alcotest.test_case "a narrow load of a spilled temp re-boxes it" `Quick
      (fun () ->
        check_guard (narrow_prog ()) ~name:"narrow-load"
          ~fingerprint:"5e18c29c880fc3e7665a78761c1a580d"
          [ ("42609a6cb0b407c55c8b52b234e6c359",
             [ "eb96bf7d0374312448e2e762aded864c";
               "6963a1ed998d8a8e1f330f9fc8aa5d27" ]);
            ("9333c4fb6dad55f5816f762687259edb",
             [ "c1c477a9ce47406d853b9d863033899c";
               "f0c7275b2f0e86af2843b8f4542a840e" ]) ]) ]

let () =
  Alcotest.run "jit"
    [ ("differential", differential);
      ("accounting", accounting_tests);
      ("taint-guard", taint_tests);
      ("packed", packed_tests);
      ("shape-guard", shape_tests);
      ("patch-invalidation", invalidation_tests);
      ("fused-inputs", fused_input_tests);
      ("temp-guard", guard_tests) ]

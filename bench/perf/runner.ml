(* Running one workload: jobs, output checks, the untraced and traced
   passes, and the metrics they yield.

   Every call into a layer goes through [timed], which reads the host
   monotonic clock and, in the traced pass, also records a span. The
   traced pass additionally wraps the arithmetic port in {!Timed} and
   times the telemetry callbacks; those are summed per job, not spanned.
   Output checks run outside every timed region. *)

module Port = Fleet.Port
module W = Workloads

let secs ns = float_of_int ns *. 1e-9

(* What the checks need from a run, without its final machine state. *)
type guest_run = {
  output : string;
  serialized : string;
  fingerprint : string;
  cycles : int;
  insns : int;
}

let guest_run (r : Fpvm.Engine.result) =
  { output = r.Fpvm.Engine.output; serialized = r.Fpvm.Engine.serialized;
    fingerprint = Fpvm.Stats.fingerprint r.Fpvm.Engine.stats;
    cycles = r.Fpvm.Engine.cycles; insns = r.Fpvm.Engine.insns }

type ctx = {
  w : Jobs.workload;
  seed : int;
  expected : Expected.t;
  spans : Spans.t option; (* Some in the traced pass *)
  fleet_solo : (string * string, guest_run) Hashtbl.t;
      (* fleet-cold: (workload, port) -> the guest's solo run, filled
         before the warm-up serve *)
}

(* One finished job. Host times are seconds. *)
type outcome = {
  family : string; (* jobs of one family are alike in size and cost *)
  setup : float; (* pristine binary to prepared session *)
  run : float; (* the workload's main timed call(s) *)
  plain : float; (* plain execution under FPVM, set-up included *)
  fpvm : float; (* every FPVM call of the job, set-up included *)
  native : float; (* run_native of the same binaries *)
  insns : int; (* dynamic guest instructions of the plain execution *)
  cycles : int; (* modeled cycles of the plain execution *)
  native_cycles : int;
  witness : string; (* what the traced and untraced passes must agree on *)
  layer : (string * float) list; (* per-layer values, traced pass only *)
  errors : string list; (* failed output checks *)
}

let timed ctx ~job name f =
  let t0 = Timed.now () in
  let r =
    match ctx.spans with None -> f () | Some sp -> Spans.within sp ~job name f
  in
  (r, secs (Timed.now () - t0))

(* Per-job span totals, in seconds; 0 outside the traced pass. *)
let span_s ?self ctx ~job name =
  match ctx.spans with
  | None -> 0.0
  | Some sp -> secs (Spans.total ?self sp.Spans.spans ~job name)

let span_count ctx ~job name =
  match ctx.spans with
  | None -> 0
  | Some sp -> Spans.count sp.Spans.spans ~job name

let f = float_of_int
let ratio = Metrics.ratio

let same_result a b = guest_run a = guest_run b

let witness (r : Fpvm.Engine.result) =
  Printf.sprintf "%s/%s/%d" (Expected.output_digest r)
    (Expected.fingerprint_digest r) r.Fpvm.Engine.cycles

let check cond msg errs = if cond then errs else msg :: errs

(* A native baseline robust to the noise of a run of a few milliseconds:
   the median time of as many runs of [prog] as fit in [budget] seconds
   (at least one, at most nine), each from a collected heap so that none
   pays for earlier garbage. This is [Engine.run_native] with the
   simulated machine's zeroed memory set up outside the timed region:
   for a test-scale program that set-up costs more than the execution,
   and it slows more than execution when the machine's memory is
   contended. *)
let native_median ?(budget = 0.05) ctx ~job prog =
  let rec go times spent =
    Gc.full_major ();
    let st = Machine.State.create prog in
    let (), t = timed ctx ~job "run_native" (fun () -> Machine.Cpu.run_native st) in
    let times = t :: times and spent = spent +. t in
    if spent >= budget || List.length times >= 9 then
      ( { output = Machine.State.output st;
          serialized = Machine.State.serialized_output st; fingerprint = "";
          cycles = st.Machine.State.cycles; insns = st.Machine.State.insn_count },
        Metrics.median times )
    else go times spent
  in
  go [] 0.0

(* ---- the plain run: analyze, prepare, resume, run_native ----------------- *)

type plain = {
  p_facts : Fpvm.Vsa.analysis;
  p_result : Fpvm.Engine.result;
  p_native : guest_run;
  p_setup : float;
  p_resume : float;
  p_native_s : float;
  p_layer : (string * float) list;
  p_errors : string list;
}

let plain ctx ~job (spec : Jobs.spec) prog =
  let module A = (val Port.arith spec.Jobs.port) in
  let arith, (module T : Fpvm.Arith.S) =
    if ctx.spans = None then (None, (module A : Fpvm.Arith.S))
    else
      let module T = Timed.Make (A) in
      (Some T.counters, (module T : Fpvm.Arith.S))
  in
  let module E = Fpvm.Engine.Make (T) in
  let facts, t_an = timed ctx ~job "analyze" (fun () -> Fpvm.Vsa.analyze prog) in
  let ses, t_pr = timed ctx ~job "prepare" (fun () -> E.prepare ~facts prog) in
  let gc0 = if ctx.spans = None then None else Some (Gc.quick_stat ()) in
  let r, t_run = timed ctx ~job "resume" (fun () -> E.resume ses) in
  let gc =
    Option.map
      (fun (g0 : Gc.stat) ->
        let g1 = Gc.quick_stat () in
        ( g1.Gc.minor_words -. g0.Gc.minor_words,
          g1.Gc.promoted_words -. g0.Gc.promoted_words,
          g1.Gc.major_collections - g0.Gc.major_collections ))
      gc0
  in
  let nat, t_nat = native_median ctx ~job prog in
  let name = Jobs.name spec in
  let errors =
    if spec.Jobs.port = Port.Vanilla then
      []
      |> check
           (r.Fpvm.Engine.output = nat.output
           && r.Fpvm.Engine.serialized = nat.serialized)
           (name ^ ": output differs from native")
      |> check
           (match Jobs.reference spec with
           | Some ref_out -> ref_out = nat.output
           | None -> true)
           (name ^ ": native output differs from the reference")
    else Option.to_list (Expected.check ctx.expected ~spec:name r)
  in
  let layer =
    match (arith, gc) with
    | Some c, Some (minor, promoted, majors) ->
        let s = r.Fpvm.Engine.stats in
        let insns = f r.Fpvm.Engine.insns in
        let arith_ns = Timed.total c.Timed.ns in
        let engine_self =
          span_s ~self:true ctx ~job "resume" -. secs arith_ns
          -. s.Fpvm.Stats.gc_latency_s
        in
        let per_class =
          Array.to_list
            (Array.mapi
               (fun k cls ->
                 ( "arith." ^ cls ^ ".ns_per_call",
                   ratio (f c.Timed.ns.(k)) (f c.Timed.calls.(k)) ))
               Timed.classes)
        in
        let static = f (Array.length prog.Machine.Program.insns) in
        [ ("analysis.iterations", f facts.Fpvm.Vsa.iterations);
          ("analysis.us_per_insn", ratio (span_s ctx ~job "analyze" *. 1e6) static);
          ("engine.self_s", engine_self);
          ("engine.ns_per_insn", ratio (engine_self *. 1e9) insns);
          ("engine.fp_traps", f s.Fpvm.Stats.fp_traps);
          ("engine.traces", f s.Fpvm.Stats.traces);
          ( "engine.plan_hit_ratio",
            ratio (f s.Fpvm.Stats.plan_hits)
              (f (s.Fpvm.Stats.plan_hits + s.Fpvm.Stats.plan_misses)) );
          ("engine.jit_hit_ratio", ratio (f s.Fpvm.Stats.jit_hits) (f s.Fpvm.Stats.traces));
          ("engine.jit_compiles", f s.Fpvm.Stats.jit_compiles);
          ( "engine.guard_exit_ratio",
            ratio (f s.Fpvm.Stats.jit_guard_exits)
              (f (s.Fpvm.Stats.jit_hits + s.Fpvm.Stats.jit_links)) );
          ("arith.calls", f (Timed.total c.Timed.calls));
          ("arith.s", secs arith_ns);
          ("arith.share", ratio (secs arith_ns) (span_s ctx ~job "resume"));
          ("arith.ns_per_call", ratio (f arith_ns) (f (Timed.total c.Timed.calls)));
          ("arena.gc_s", s.Fpvm.Stats.gc_latency_s);
          ("arena.gc_passes", f s.Fpvm.Stats.gc_passes);
          ("arena.words_scanned", f s.Fpvm.Stats.gc_words_scanned);
          ( "arena.freed_ratio",
            ratio (f s.Fpvm.Stats.gc_freed) (f s.Fpvm.Stats.boxes_allocated) );
          ( "arena.boxes_per_fp_insn",
            ratio (f s.Fpvm.Stats.boxes_allocated) (f r.Fpvm.Engine.fp_insns) );
          ("machine.native_s", t_nat);
          ("machine.ns_per_insn", ratio (t_nat *. 1e9) (f nat.insns));
          ("ocaml.minor_words_per_insn", ratio minor insns);
          ("ocaml.promoted_words_per_insn", ratio promoted insns);
          ("ocaml.major_collections", f majors) ]
        @ per_class
    | _ -> []
  in
  { p_facts = facts; p_result = r; p_native = nat; p_setup = t_an +. t_pr;
    p_resume = t_run; p_native_s = t_nat; p_layer = layer; p_errors = errors }

(* Span-derived layer values every job reports (0 where a job makes no
   such call). *)
let span_layer ctx ~job =
  [ ("analysis.s", span_s ctx ~job "analyze");
    ("analysis.calls", f (span_count ctx ~job "analyze"));
    ("engine.prepare_s", span_s ~self:true ctx ~job "prepare");
    ("replay.record_s", span_s ctx ~job "record");
    ("replay.replay_s", span_s ctx ~job "replay");
    ("replay.restore_s", span_s ctx ~job "restore");
    ("fleet.serve_s", span_s ctx ~job "serve") ]

let solo_outcome ctx ~job spec p ~run ~pipeline ~layer ~errors =
  let r = p.p_result in
  let plain = p.p_setup +. p.p_resume in
  { family = Jobs.family spec; setup = p.p_setup; run; plain; fpvm = plain +. pipeline; native = p.p_native_s;
    insns = r.Fpvm.Engine.insns; cycles = r.Fpvm.Engine.cycles;
    native_cycles = p.p_native.cycles; witness = witness r;
    layer =
      (if ctx.spans = None then [] else span_layer ctx ~job @ p.p_layer @ layer);
    errors = p.p_errors @ errors }

let solo_job ctx ~job spec =
  let p = plain ctx ~job spec (Jobs.program spec) in
  solo_outcome ctx ~job spec p ~run:p.p_resume ~pipeline:0.0 ~layer:[] ~errors:[]

(* ---- debug-replay: record, replay, restore, observe ---------------------- *)

let checkpoint_every = 1000

(* Attach the Profile, Numprof and Flowrec collectors. With [timing],
   each collector's callback is timed and counted into its slot. *)
let observe ?timing sink =
  let tick k cb =
    match timing with
    | None -> cb
    | Some (c : Timed.counters) ->
        fun st ev ->
          let t0 = Timed.now () in
          cb st ev;
          c.Timed.calls.(k) <- c.Timed.calls.(k) + 1;
          c.Timed.ns.(k) <- c.Timed.ns.(k) + (Timed.now () - t0)
  in
  let prof = Telemetry.Profile.create () in
  let np = Telemetry.Numprof.create () in
  let fr = Telemetry.Flowrec.create () in
  Fpvm.Probe.add_tel sink (tick 0 (fun _ ev -> Telemetry.Profile.record prof ev));
  Fpvm.Probe.add_num sink (tick 1 (fun _ ev -> Telemetry.Numprof.record np ev));
  Fpvm.Probe.add_event sink (fun _ _ -> Telemetry.Flowrec.saw_event fr);
  Fpvm.Probe.add_num sink
    (tick 2 (fun st ev ->
         Telemetry.Flowrec.record fr ~cycles:st.Machine.State.cycles ev));
  fr

let debug_job ctx ~job spec =
  let prog = Jobs.program spec in
  let p = plain ctx ~job spec prog in
  let d = Fleet.port_driver spec.Jobs.port in
  let config = Fpvm.Engine.default_config in
  let name = Jobs.name spec in
  let meta =
    { Replay.Log.workload = name; scale = "bench";
      arith = Port.to_string spec.Jobs.port; config = "default" }
  in
  let rc, t_rec =
    timed ctx ~job "record" (fun () ->
        d.Fleet.d_record ~facts:p.p_facts ~checkpoint_every ~meta ~config prog)
  in
  let rr = rc.Replay.Session.result in
  let rp, t_rep =
    timed ctx ~job "replay" (fun () ->
        d.Fleet.d_replay ~config rc.Replay.Session.log prog)
  in
  let blob =
    match List.rev rc.Replay.Session.checkpoints with
    | (_, b) :: _ -> b
    | [] -> failwith (name ^ ": the recording took no checkpoint")
  in
  let rs, t_res =
    timed ctx ~job "restore" (fun () -> d.Fleet.d_resume ~config prog blob)
  in
  let timing =
    Option.map (fun _ -> { Timed.calls = Array.make 3 0; ns = Array.make 3 0 }) ctx.spans
  in
  let flows = ref None in
  let ob, t_obs =
    timed ctx ~job "observed" (fun () ->
        d.Fleet.d_run ~facts:p.p_facts ~config
          ~instrument:(fun sink -> flows := Some (observe ?timing sink))
          prog)
  in
  let errors =
    []
    |> check (same_result rr p.p_result) (name ^ ": recording differs from the plain run")
    |> check
         (match rp with
         | Replay.Session.Match r -> same_result r rr
         | Replay.Session.Diverged _ -> false)
         (name ^ ": replay diverged from the recording")
    |> check (same_result rs rr) (name ^ ": checkpoint resume differs from the recording")
    |> check (same_result ob rr) (name ^ ": observed run differs from the recording")
  in
  let run = t_rec +. t_rep +. t_res +. t_obs in
  let layer =
    match timing with
    | None -> []
    | Some c ->
        let s = rr.Fpvm.Engine.stats in
        let events = f s.Fpvm.Stats.replay_events in
        let tel_events = f (c.Timed.calls.(0) + c.Timed.calls.(1)) in
        [ ("replay.events", events);
          ("replay.log_bytes_per_event", ratio (f s.Fpvm.Stats.replay_log_bytes) events);
          ("replay.checkpoints", f s.Fpvm.Stats.replay_checkpoints);
          ("replay.checkpoint_kb", f s.Fpvm.Stats.replay_checkpoint_bytes /. 1024.0);
          ("replay.record_overhead", ratio t_rec p.p_resume);
          ("replay.debug_overhead", ratio run p.p_resume);
          ("telemetry.profile_s", secs c.Timed.ns.(0));
          ("telemetry.numprof_s", secs c.Timed.ns.(1));
          ("telemetry.flowrec_s", secs c.Timed.ns.(2));
          ("telemetry.events", tel_events);
          ("telemetry.ns_per_event", ratio (f (Timed.total c.Timed.ns)) tel_events);
          ( "telemetry.flows",
            match !flows with Some fr -> f (Telemetry.Flowrec.n_flows fr) | None -> 0.0 ) ]
  in
  solo_outcome ctx ~job spec p ~run ~pipeline:run ~layer ~errors

(* ---- fleet-cold: one serve of 40 guests ---------------------------------- *)

(* The serve runs on one domain. On two, its parallel phase and the
   single-threaded native baseline respond differently to load on the
   machine's second CPU, and host_slowdown spread 7-25% over ten seeds
   on a 2-vCPU VM (1.9% on one domain). *)

let stock name =
  match W.find name with
  | Some e -> e.W.program W.Test
  | None -> invalid_arg ("unknown stock workload " ^ name)

let solo_key (g : Fleet.guest) = (g.Fleet.g_workload, Port.to_string g.Fleet.g_port)

let fleet_job ctx ~job =
  let guests = Jobs.fleet_guests ~seed:ctx.seed ~serve:job in
  let solo g =
    match Hashtbl.find_opt ctx.fleet_solo (solo_key g) with
    | Some r -> r
    | None -> failwith "fleet guest missing from the solo oracle"
  in
  (* one guest per distinct binary, in manifest order *)
  let firsts =
    List.fold_left
      (fun acc (g : Fleet.guest) ->
        if List.mem_assoc g.Fleet.g_workload acc then acc
        else (g.Fleet.g_workload, g) :: acc)
      [] guests
    |> List.rev
  in
  let progs = List.map (fun (name, _) -> (name, stock name)) firsts in
  (* set-up: what one copy of each binary costs to analyze and prepare *)
  let setups =
    List.map
      (fun (name, (g : Fleet.guest)) ->
        let prog = List.assoc name progs in
        let module A = (val Port.arith g.Fleet.g_port) in
        let module E = Fpvm.Engine.Make (A) in
        let facts, t_an = timed ctx ~job "analyze" (fun () -> Fpvm.Vsa.analyze prog) in
        let _, t_pr = timed ctx ~job "prepare" (fun () -> E.prepare ~facts prog) in
        (t_an +. t_pr, facts.Fpvm.Vsa.iterations))
      firsts
  in
  let artifacts = Fpvm.Artifact.create () in
  Gc.full_major ();
  let res, t_serve =
    timed ctx ~job "serve" (fun () -> Fleet.serve ~artifacts guests)
  in
  (* the native baseline: every guest's binary, one after another *)
  let natives =
    List.map (fun (name, prog) -> (name, native_median ~budget:0.02 ctx ~job prog)) progs
  in
  let t_native =
    List.fold_left
      (fun a (g : Fleet.guest) -> a +. snd (List.assoc g.Fleet.g_workload natives))
      0.0 guests
  in
  let native_of (r : Fleet.guest_result) =
    fst (List.assoc r.Fleet.r_guest.Fleet.g_workload natives)
  in
  let sum g = List.fold_left (fun a r -> a + g r) 0 res.Fleet.f_results in
  let errors =
    List.fold_left
      (fun errs (r : Fleet.guest_result) ->
        let g = r.Fleet.r_guest in
        let s = solo g in
        let who = Printf.sprintf "guest %d (%s@%s)" g.Fleet.g_id (fst (solo_key g)) (snd (solo_key g)) in
        errs
        |> check
             (r.Fleet.r_output = s.output && r.Fleet.r_serialized = s.serialized
             && r.Fleet.r_fingerprint = s.fingerprint)
             (who ^ ": differs from its solo run")
        |> check
             (g.Fleet.g_port <> Port.Vanilla || r.Fleet.r_output = (native_of r).output)
             (who ^ ": vanilla output differs from native"))
      [] res.Fleet.f_results
  in
  let layer =
    if ctx.spans = None then []
    else
      let c = Fpvm.Artifact.counters artifacts in
      let published = f c.Fpvm.Artifact.c_blocks_published in
      let shared = f c.Fpvm.Artifact.c_blocks_shared in
      let static =
        List.fold_left
          (fun a (_, p) -> a + Array.length p.Machine.Program.insns)
          0 progs
      in
      span_layer ctx ~job
      @ [ ("analysis.iterations", f (List.fold_left (fun a (_, it) -> a + it) 0 setups));
          ("analysis.us_per_insn", ratio (span_s ctx ~job "analyze" *. 1e6) (f static));
          ("machine.native_s", t_native);
          ( "machine.ns_per_insn",
            ratio (t_native *. 1e9) (f (sum (fun r -> (native_of r).insns))) );
          ("artifact.blocks_published", published);
          ("artifact.blocks_shared", shared);
          ("artifact.share_ratio", ratio shared (published +. shared));
          ("fleet.guests_per_s", ratio (f (List.length guests)) t_serve);
          ("fleet.switches", f res.Fleet.f_switches);
          ("fleet.facts_misses", f res.Fleet.f_facts_misses) ]
  in
  { family = "serve"; setup = List.fold_left (fun a (t, _) -> a +. t) 0.0 setups;
    run = t_serve; plain = t_serve; fpvm = t_serve; native = t_native;
    insns = sum (fun r -> r.Fleet.r_insns);
    cycles = sum (fun r -> r.Fleet.r_cycles);
    native_cycles = sum (fun r -> (native_of r).cycles);
    witness =
      String.concat ";"
        (List.map
           (fun (r : Fleet.guest_result) ->
             r.Fleet.r_fingerprint ^ Digest.to_hex (Digest.string r.Fleet.r_output))
           res.Fleet.f_results);
    layer; errors }

(* The fleet oracle: every distinct (binary, port) guest run solo. *)
let fill_fleet_solo ctx =
  List.iter
    (fun g ->
      if not (Hashtbl.mem ctx.fleet_solo (solo_key g)) then
        Hashtbl.replace ctx.fleet_solo (solo_key g) (guest_run (Fleet.run_solo g)))
    (Jobs.fleet_guests ~seed:ctx.seed ~serve:0)

(* ---- passes ------------------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

type pass = {
  outcomes : (int * outcome) list; (* successful jobs, by job index *)
  wall : float; (* host seconds spent inside jobs *)
}

let run_job ctx cycle ~job =
  let body () =
    match ctx.w with
    | Jobs.Fleet_cold -> fleet_job ctx ~job
    | Jobs.Debug_replay -> debug_job ctx ~job cycle.(job mod Array.length cycle)
    | Jobs.Libm_mpfr | Jobs.Trap_vanilla ->
        solo_job ctx ~job cycle.(job mod Array.length cycle)
  in
  match ctx.spans with
  | None -> body ()
  | Some sp -> Spans.within sp ~job "job" body

(* Run one job, counting it; a raised exception or a failed check marks
   it failed and is reported, never aborting the run. *)
let attempt tally ctx cycle ~job =
  Gc.full_major ();
  tally.attempted <- tally.attempted + 1;
  let t0 = Timed.now () in
  let o =
    match run_job ctx cycle ~job with
    | o when o.errors = [] -> Some o
    | o ->
        List.iter prerr_endline o.errors;
        None
    | exception e ->
        Printf.eprintf "job %d: %s\n%!" job (Printexc.to_string e);
        None
  in
  if Option.is_none o then tally.failed <- tally.failed + 1;
  (o, secs (Timed.now () - t0))

(* Untraced jobs in whole cycles, so that every run measures the seed's
   whole job mix: the pass ends after the cycle that brings it within
   half a cycle of [seconds]. *)
let timed_pass tally ctx cycle ~seconds ~cycle_len =
  let start = Timed.now () in
  let rec go job acc wall =
    let elapsed = secs (Timed.now () - start) in
    let cycles = job / cycle_len in
    if
      job mod cycle_len = 0 && cycles > 0
      && elapsed +. (elapsed /. float_of_int cycles /. 2.0) >= seconds
    then { outcomes = List.rev acc; wall }
    else
      let o, t = attempt tally ctx cycle ~job in
      let acc = match o with Some o -> (job, o) :: acc | None -> acc in
      go (job + 1) acc (wall +. t)
  in
  go 0 [] 0.0

(* The same jobs again, in the traced pass. *)
let rerun_pass tally ctx cycle ~jobs =
  let outcomes, wall =
    List.fold_left
      (fun (acc, wall) job ->
        let o, t = attempt tally ctx cycle ~job in
        ((match o with Some o -> (job, o) :: acc | None -> acc), wall +. t))
      ([], 0.0) jobs
  in
  { outcomes = List.rev outcomes; wall }

(* ---- metrics ------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let l = input_line ic in
        match Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> go ()
      in
      go ())

(* Host-time drift of the machine cancels out of a ratio of interleaved
   measurements, so every end-to-end metric but set-up is one. The host
   slowdown sums, over job families, the family's job count times its
   median job time, FPVM over native: the same weighting as a plain sum,
   but a burst of load on the machine that slows a few jobs moves no
   median. Whole cycles repeat the same jobs, so the modeled slowdown
   over all of them is the seed's own, deterministic value. *)
let end_to_end (p : pass) : (string * float) list =
  let os = List.map snd p.outcomes in
  let sum g = List.fold_left (fun a o -> a +. g o) 0.0 os in
  let by_family g =
    List.sort_uniq compare (List.map (fun o -> o.family) os)
    |> List.fold_left
         (fun a fam ->
           let xs = List.filter_map (fun o -> if o.family = fam then Some (g o) else None) os in
           a +. (f (List.length xs) *. Metrics.median xs))
         0.0
  in
  [ ("setup_s", Metrics.median (List.map (fun o -> o.setup) os));
    ("host_slowdown", ratio (by_family (fun o -> o.fpvm)) (by_family (fun o -> o.native)));
    ("modeled_slowdown", ratio (sum (fun o -> f o.cycles)) (sum (fun o -> f o.native_cycles)));
    ("peak_rss_mb", peak_rss_mb ()) ]

(* Absolute host times of the untraced pass, which drift with the
   machine's speed, the tracing overhead, and for every other per-layer
   metric the median over the traced jobs of each job's value. *)
let per_layer ~(untraced : pass) (traced : pass) : (string * float) list =
  let os = List.map snd untraced.outcomes in
  let runs = List.map (fun o -> o.run) os in
  let sum g = List.fold_left (fun a o -> a +. g o) 0.0 os in
  let direct =
    [ ("host.run_s", Metrics.median runs);
      ("host.run_s_p75", Metrics.quartile 3 runs);
      ("host.guest_mips", ratio (sum (fun o -> f o.insns)) (sum (fun o -> o.plain)) /. 1e6);
      ("bench.trace_overhead", ratio traced.wall untraced.wall) ]
  in
  List.map
    (fun (d : Metrics.def) ->
      let name = d.Metrics.name in
      let v =
        match List.assoc_opt name direct with
        | Some v -> v
        | None ->
            Metrics.median
              (List.map
                 (fun (_, o) -> Option.value ~default:0.0 (List.assoc_opt name o.layer))
                 traced.outcomes)
      in
      (name, if Float.is_nan v then 0.0 else v))
    Metrics.per_layer

type report = {
  tally : tally;
  metrics : (string * float) list;
  samples : int;
  spans : Spans.span list;
}

(* Run one workload. With [traced], the untraced pass gets half the time
   and a traced pass then re-runs the same jobs, which must agree with
   it job by job; the report carries per-layer metrics. Otherwise the
   report carries end-to-end metrics. *)
let run w ~seed ~seconds ~traced ~expected =
  let ctx =
    { w; seed; expected; spans = None; fleet_solo = Hashtbl.create 64 }
  in
  let cycle = if w = Jobs.Fleet_cold then [||] else Jobs.cycle w ~seed in
  let cycle_len = max 1 (Array.length cycle) in
  let tally = { attempted = 0; failed = 0 } in
  (* warm-up: one job, discarded; on fleet-cold it also builds the solo
     oracle the later serves are checked against *)
  if w = Jobs.Fleet_cold then fill_fleet_solo ctx;
  ignore (attempt tally ctx cycle ~job:0);
  let untraced =
    timed_pass tally ctx cycle
      ~seconds:(if traced then seconds /. 2.0 else seconds)
      ~cycle_len
  in
  if not traced then
    { tally; metrics = end_to_end untraced;
      samples = List.length untraced.outcomes; spans = [] }
  else begin
    let sp = Spans.create () in
    let tctx = { ctx with spans = Some sp } in
    let traced_pass =
      rerun_pass tally tctx cycle ~jobs:(List.map fst untraced.outcomes)
    in
    List.iter
      (fun (job, o) ->
        match List.assoc_opt job untraced.outcomes with
        | Some u when u.witness <> o.witness || u.cycles <> o.cycles ->
            Printf.eprintf "job %d: traced and untraced passes disagree\n%!" job;
            tally.failed <- tally.failed + 1
        | _ -> ())
      traced_pass.outcomes;
    { tally; metrics = per_layer ~untraced traced_pass;
      samples = List.length traced_pass.outcomes; spans = Spans.in_order sp }
  end

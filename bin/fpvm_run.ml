(* fpvm_run: the command-line face of the reproduction.

   Runs a workload binary natively or under FPVM with a chosen
   alternative arithmetic system, approach, machine model and trap
   deployment, then prints the program output and (optionally) the
   virtualization statistics. Execution can be recorded to an event
   log, replayed against one, checkpointed and resumed, and two logs
   can be bisected for their first diverging event.

     fpvm_run --list
     fpvm_run -w lorenz -a mpfr --prec 200 --stats
     fpvm_run -w "NAS CG" -a posit --posit 32
     fpvm_run -w three-body --approach patch --machine 7220
     fpvm_run -w lorenz --record lorenz.log --checkpoint-every 50
     fpvm_run -w lorenz --replay lorenz.log
     fpvm_run -w lorenz --from-checkpoint lorenz.log.ckpt50
     fpvm_run bisect a.log b.log --arch-only *)

module W = Workloads

(* The functor-erased per-arithmetic driver and its port constructors
   live in lib/fleet ({!Fleet.driver}, {!Fleet.Port}): fpvm_run is the
   one-guest case of the same machinery fpvm_serve schedules fleets
   with, so a solo run and a fleet guest construct their arithmetic
   identically — the bit-identity guarantee is by construction. The
   config flags, their validation and the log's config line come from
   the engine's config table ({!Fpvm.Engine.config_table}). *)

module J = Fpvm.Json

let print_json ~workload ~arith ~scale (r : Fpvm.Engine.result) =
  let s = r.Fpvm.Engine.stats in
  print_endline
    (J.to_string
       (J.Obj
          ([ ("schema_version", J.Int 1);
             ("workload", J.Str workload);
             ("arith", J.Str arith);
             ("scale", J.Str (Fleet.scale_string scale));
             ("cycles", J.Int r.Fpvm.Engine.cycles);
             ("insns", J.Int r.Fpvm.Engine.insns);
             ("fp_insns", J.Int r.Fpvm.Engine.fp_insns) ]
          @ Fpvm.Stats.to_json s
          @ [ ("allocs_avoided", J.Int (Fpvm.Stats.allocs_avoided s));
              ("output_bytes", J.Int (String.length r.Fpvm.Engine.output));
              ("serialized_bytes", J.Int (String.length r.Fpvm.Engine.serialized));
              ("stats_fingerprint", J.Str (Fpvm.Stats.fingerprint s)) ])))

let print_stats (r : Fpvm.Engine.result) =
  let s = r.Fpvm.Engine.stats in
  Format.eprintf
    "--- fpvm stats ---@.instructions executed: %d (%d FP)@.cycles: %d@.%a@.\
     mean trace length: %.1f@.allocs avoided: %d@.\
     avg cycles/virtualized insn: %.0f@."
    r.Fpvm.Engine.insns r.Fpvm.Engine.fp_insns r.Fpvm.Engine.cycles
    Fpvm.Stats.pp s (Fpvm.Stats.mean_trace_len s) (Fpvm.Stats.allocs_avoided s)
    (Fpvm.Stats.breakdown s).Fpvm.Stats.avg_total

(* Flip one bit of event [n]'s state digest and re-encode: a seeded
   divergence the bisector and replayer must pin to exactly [n]. *)
let inject_divergence (log_bytes : string) n =
  let log = Replay.Log.of_string log_bytes in
  if n < 0 || n >= Array.length log.Replay.Log.events then
    failwith
      (Printf.sprintf "--inject-divergence %d out of range (log has %d events)"
         n
         (Array.length log.Replay.Log.events));
  let w = Replay.Log.writer log.Replay.Log.meta in
  Array.iteri
    (fun i (e : Replay.Event.t) ->
      let e =
        if i = n then { e with Replay.Event.chk = Int64.logxor e.Replay.Event.chk 1L }
        else e
      in
      Replay.Log.add w e)
    log.Replay.Log.events;
  Replay.Log.contents w

(* ---- run command ------------------------------------------------------ *)

(* The binary a run or coach session executes: [workload] at [scale],
   with a NaN seeded at the [inject_nan]-th eligible site when >= 0. *)
let load_program workload scale inject_nan =
  match W.find workload with
  | None -> Error (Printf.sprintf "unknown workload %S (try --list)" workload)
  | Some e -> (
      try
        let p = e.W.program scale in
        Ok (e, if inject_nan >= 0 then Machine.Program.inject_nan p ~nth:inject_nan else p)
      with Invalid_argument m -> Error m)

(* A recording's meta: the canonical scale, the engine's config line,
   plus the seeded NaN site when there is one. *)
let log_meta (e : W.entry) ~scale ~arith ~config ~inject_nan =
  { Replay.Log.workload = e.W.name; scale = Fleet.scale_string scale; arith;
    config =
      Fpvm.Engine.config_line config
      ^ if inject_nan >= 0 then Printf.sprintf ";injnan=%d" inject_nan else "" }

(* Log, checkpoint and output-file failures are user errors, not
   crashes. *)
let guard f =
  match f () with
  | r -> r
  | exception Replay.Codec.Corrupt msg -> `Error (false, msg)
  | exception Sys_error msg -> `Error (false, msg)
  | exception Failure msg -> `Error (false, msg)

let run workload arith prec posit_bits scale config stats json disasm spy
    list_only record_file replay_file checkpoint_every from_checkpoint inject
    inject_nan trace_out profile profile_out shadow_check flows flow_capacity
    cache_dir =
  if list_only then begin
    List.iter
      (fun (e : W.entry) -> Printf.printf "%-12s %s\n" e.W.name e.W.specifics)
      W.all;
    `Ok 0
  end
  else if checkpoint_every < 0 then
    `Error
      (false, Printf.sprintf "--checkpoint-every must be >= 0 (got %d)" checkpoint_every)
  else if record_file <> "" && replay_file <> "" then
    `Error (false, "--record and --replay are mutually exclusive")
  else if record_file <> "" && from_checkpoint <> "" then
    (* a recording starts from the program's entry, never from a
       checkpoint *)
    `Error (false, "--record and --from-checkpoint are mutually exclusive")
  else if record_file = "" && (checkpoint_every <> 0 || inject >= 0) then
    `Error (false, "--checkpoint-every and --inject-divergence require --record")
  else begin
    match load_program workload scale inject_nan with
    | Error m -> `Error (false, m)
    | Ok (e, prog) ->
        if disasm then begin
          print_string (Machine.Program.disassemble prog);
          `Ok 0
        end
        else if spy then begin
          (* FPSpy mode: profile the binary's floating point events *)
          let r = Fpvm.Fpspy.run prog in
          print_string r.Fpvm.Fpspy.run.Fpvm.Engine.output;
          Format.eprintf "--- fpspy profile ---@.%a@." Fpvm.Fpspy.pp_profile
            r.Fpvm.Fpspy.profile;
          Format.eprintf "top sites:@.";
          List.iter
            (fun (site : Fpvm.Fpspy.site) ->
              Format.eprintf "  %8d hits  [%4d] %s (%s)@."
                site.Fpvm.Fpspy.hits site.Fpvm.Fpspy.index
                site.Fpvm.Fpspy.mnemonic
                (String.concat "+" (Ieee754.Flags.names site.Fpvm.Fpspy.events)))
            (Fpvm.Fpspy.top_sites ~n:8 r.Fpvm.Fpspy.profile);
          `Ok 0
        end
        else
          let arith = String.lowercase_ascii arith in
          match Fleet.Port.of_flags ~arith ~prec ~posit:posit_bits with
          | Error m -> `Error (false, m)
          | Ok _ when arith = "native" && (record_file <> "" || replay_file <> "" || from_checkpoint <> "") ->
              `Error (false, "--record/--replay/--from-checkpoint require an FPVM arithmetic, not native")
          | Ok _
            when arith = "native"
                 && (trace_out <> "" || profile || profile_out <> ""
                    || shadow_check || flows) ->
              `Error
                ( false,
                  "--trace-out/--profile/--shadow-check/--flows require \
                   an FPVM arithmetic, not native" )
          | Ok port ->
              let d = Fleet.port_driver port in
              (* One shared analysis per run: the driver reuses it to
                 patch sinks (when running, recording, replaying or
                 restoring alike), the engine consumes the FP tier for
                 fusion widening, and the numprof elision predicate /
                 static birth candidates come from the same verdicts —
                 no tier runs twice. *)
              let facts =
                if arith = "native" then None
                else Some (Fpvm.Vsa.analyze prog)
              in
              let clean, static_candidates =
                match facts with
                | Some a when config.Fpvm.Engine.use_fpa ->
                    ( Fleet.Port.clean port a prog,
                      Array.to_list a.Fpvm.Vsa.fpa.Analysis.Fpa.verdicts
                      |> List.filter_map
                           (fun (v : Analysis.Fpa.verdict) ->
                             let concrete =
                               List.filter
                                 (fun r ->
                                   String.length r >= 4
                                   && (String.sub r 0 4 = "nan:"
                                      || String.sub r 0 4 = "inf:"))
                                 v.Analysis.Fpa.v_risks
                             in
                             if concrete = [] then None
                             else
                               Some (v.Analysis.Fpa.v_index, concrete))
                    )
                | _ -> (None, [])
              in
              let tel =
                if
                  trace_out <> "" || profile || profile_out <> ""
                  || shadow_check || flows
                  || (config.oracle && arith <> "native")
                then
                  Some
                    (Telemetry.create ~trace:(trace_out <> "")
                       ~profile:(profile || profile_out <> "")
                       ~numprof:config.oracle ~shadow:shadow_check ?clean
                       ~static_candidates ~flows ?flow_capacity ())
                else None
              in
              let instrument =
                Option.map
                  (fun t sink -> Telemetry.attach t sink)
                  tel
              in
              let meta =
                log_meta e ~scale ~config ~inject_nan
                  ~arith:
                    (if arith = "native" then arith
                     else Fleet.Port.to_string port)
              in
              let write_text path s =
                let oc = open_out path in
                output_string oc s;
                close_out oc
              in
              (* Persistent warm start, only under --cache-dir: load
                 this session's artifact cache file (if any) into a
                 fresh store before the run, save it back after. Any
                 mismatch or corruption makes the load a silent no-op
                 — the run is then simply cold. Replay keeps its
                 accounting faithful to the log's original run, so no
                 store there. *)
              let cache_store =
                if cache_dir = "" || arith = "native" || replay_file <> ""
                then None
                else begin
                  let store = Fpvm.Artifact.create () in
                  let key = d.d_session_key ~config prog in
                  ignore (Fpvm.Artifact.load store ~dir:cache_dir ~key);
                  Some (store, key)
                end
              in
              let cache_art = Option.map fst cache_store in
              (* A log or a checkpoint runs only under the flags it was
                 recorded with. *)
              let flag_mismatch what ~verb (recorded : Replay.Log.meta) =
                let w = max (String.length what) 5 + 2 in
                `Error
                  ( false,
                    Format.asprintf
                      "%s/flag mismatch:@.  %-*s%a@.  %-*s%a@.(%s with the flags the %s was recorded with)"
                      what w (what ^ ":") Replay.Log.pp_meta recorded w
                      "flags:" Replay.Log.pp_meta meta verb what )
              in
              let resuming k =
                let blob = Replay.Codec.read_file from_checkpoint in
                let recorded = Replay.Snapshot.meta blob in
                if Replay.Log.meta_equal recorded meta then k blob
                else flag_mismatch "checkpoint" ~verb:"resume" recorded
              in
              let finish ?(code = 0) (r : Fpvm.Engine.result) =
                (match cache_store with
                | Some (store, key) ->
                    ignore (Fpvm.Artifact.save store ~dir:cache_dir ~key)
                | None -> ());
                print_string r.Fpvm.Engine.output;
                (match tel with
                | None -> ()
                | Some t ->
                    Telemetry.finalize t r.Fpvm.Engine.stats;
                    (match t.Telemetry.trace with
                    | Some tr when trace_out <> "" ->
                        (* flow arrows ride the same timeline file *)
                        let extra =
                          Option.map Telemetry.Flowrec.export_flows
                            t.Telemetry.flows
                        in
                        Telemetry.Trace.write_file ?extra tr trace_out;
                        Printf.eprintf
                          "trace: %d events -> %s (%d dropped)\n"
                          (Telemetry.Trace.recorded tr)
                          trace_out
                          (Telemetry.Trace.dropped tr)
                    | _ -> ());
                    (match t.Telemetry.flows with
                    | Some fr ->
                        let opn, comp, drop = Telemetry.Flowrec.gauges fr in
                        Printf.eprintf
                          "flows: %d completed, %d open, %d dropped (%d \
                           links ring-dropped)\n"
                          comp opn drop
                          (Telemetry.Flowrec.links_dropped fr)
                    | None -> ());
                    (match t.Telemetry.profile with
                    | Some p ->
                        if profile then begin
                          let bb = Buffer.create 1024 in
                          Telemetry.Profile.report_text p
                            r.Fpvm.Engine.stats bb;
                          prerr_string (Buffer.contents bb)
                        end;
                        if profile_out <> "" then
                          write_text profile_out
                            (J.to_string
                               (Telemetry.Profile.report_json ~n:32 p
                                  r.Fpvm.Engine.stats)
                            ^ "\n")
                    | None -> ());
                    match t.Telemetry.numprof with
                    | Some np when shadow_check ->
                        let bb = Buffer.create 1024 in
                        Telemetry.Numprof.report_text np bb;
                        prerr_string (Buffer.contents bb)
                    | _ -> ());
                if json then print_json ~workload:e.W.name ~arith:meta.Replay.Log.arith ~scale r;
                if stats then print_stats r;
                let s = r.Fpvm.Engine.stats in
                let fpa_violated =
                  s.Fpvm.Stats.fpa_sub_violations > 0
                  || s.Fpvm.Stats.fpa_nan_violations > 0
                in
                if
                  config.oracle
                  && (s.Fpvm.Stats.oracle_boxed_loads > 0 || fpa_violated)
                then begin
                  if s.Fpvm.Stats.oracle_boxed_loads > 0 then
                    Printf.eprintf
                      "soundness oracle: %d unpatched integer load(s) observed a live NaN-boxed value (%d loads checked) — the static analysis missed a sink\n"
                      s.Fpvm.Stats.oracle_boxed_loads
                      s.Fpvm.Stats.oracle_loads_checked;
                  if fpa_violated then
                    Printf.eprintf
                      "fpa soundness oracle: %d subnormal raw input(s) at proven-subnormal-free sites, %d NaN/Inf birth(s) at proven-clean sites — the FP special-value analysis overclaimed\n"
                      s.Fpvm.Stats.fpa_sub_violations
                      s.Fpvm.Stats.fpa_nan_violations;
                  `Ok 5
                end
                else `Ok code
              in
              guard (fun () ->
                  if arith = "native" then
                    finish (Fpvm.Engine.run_native ~cost:config.cost prog)
                  else if record_file <> "" then begin
                    let rec_ =
                      d.d_record ?facts ?instrument ?artifacts:cache_art
                        ~checkpoint_every ~meta ~config prog
                    in
                    let log_bytes =
                      if inject >= 0 then
                        inject_divergence rec_.Replay.Session.log_bytes inject
                      else rec_.Replay.Session.log_bytes
                    in
                    Replay.Codec.write_file record_file log_bytes;
                    List.iter
                      (fun (seq, blob) ->
                        Replay.Codec.write_file
                          (Printf.sprintf "%s.ckpt%d" record_file seq)
                          blob)
                      rec_.Replay.Session.checkpoints;
                    finish rec_.Replay.Session.result
                  end
                  else if replay_file <> "" then
                    let log = Replay.Log.of_file replay_file in
                    if not (Replay.Log.meta_equal log.Replay.Log.meta meta)
                    then flag_mismatch "log" ~verb:"replay" log.Replay.Log.meta
                    else
                      let replay checkpoint =
                        match
                          d.d_replay ?checkpoint ?instrument ?facts ~config
                            log prog
                        with
                        | Replay.Session.Match r ->
                            Printf.eprintf "replay: %d events matched\n"
                              (Array.length log.Replay.Log.events);
                            finish r
                        | Replay.Session.Diverged dv ->
                            Format.eprintf "%a"
                              (Replay.Session.pp_divergence ~prog) dv;
                            `Ok 3
                      in
                      if from_checkpoint = "" then replay None
                      else resuming (fun blob -> replay (Some blob))
                  else if from_checkpoint <> "" then
                    resuming (fun blob ->
                        finish
                          (d.d_resume ?instrument ?facts ?artifacts:cache_art
                             ~config prog blob))
                  else
                    finish
                      (d.d_run ?facts ?instrument ?artifacts:cache_art ~config
                         prog))
  end

(* ---- bisect command --------------------------------------------------- *)

let bisect log_a log_b arch_only =
  guard @@ fun () ->
  let a = Replay.Log.of_file log_a and b = Replay.Log.of_file log_b in
  let mode = if arch_only then Replay.Bisect.Arch else Replay.Bisect.Exact in
  let prog =
    (* decode faulting instructions in the report when the logs name a
       workload we can rebuild *)
    if a.Replay.Log.meta.Replay.Log.workload = b.Replay.Log.meta.Replay.Log.workload
    then
      match
        ( W.find a.Replay.Log.meta.Replay.Log.workload,
          Fleet.scale_of_string a.Replay.Log.meta.Replay.Log.scale )
      with
      | Some e, Ok scale -> Some (e.W.program scale)
      | _ -> None
    else None
  in
  let d = Replay.Bisect.first_divergence ~mode a b in
  print_string (Replay.Bisect.report ?prog a b d);
  `Ok (match d with None -> 0 | Some _ -> 4)

(* ---- analyze command -------------------------------------------------- *)

(* Static-analysis report: run the tiered pipeline over workload
   binaries without executing them, and emit per-workload precision
   data (sinks with their taint provenance, proven-safe loads, FP
   special-value verdicts) as JSON. With --check, also compare against
   a committed golden file and exit 6 on any precision regression. *)

module AP = Analysis.Pipeline

let insn_text (prog : Machine.Program.t) i =
  Format.asprintf "%a" Machine.Isa.pp_insn
    (Machine.Program.strip_insn prog.Machine.Program.insns.(i))

let sink_kind_name = function
  | AP.K_int_load -> "int_load"
  | AP.K_movq -> "movq_gpr_xmm"
  | AP.K_fp_bit -> "fp_bitop"

(* An instruction reference: its index and disassembly. *)
let insn_json prog i =
  [ ("index", J.Int i); ("insn", J.Str (insn_text prog i)) ]

(* An FP site's verdict, its provenance rendered as [srcs]. *)
let verdict_json prog (v : Analysis.Fpa.verdict) srcs =
  J.Obj
    (insn_json prog v.Analysis.Fpa.v_index
    @ [ ("sub_free", J.Bool v.Analysis.Fpa.v_sub_free);
        ("born_free", J.Bool v.Analysis.Fpa.v_born_free);
        ("risks", J.Arr (List.map (fun r -> J.Str r) v.Analysis.Fpa.v_risks));
        srcs ])

let analyze_json (results : (W.entry * Machine.Program.t * Fpvm.Vsa.analysis) list) =
  let workload (e, prog, (a : Fpvm.Vsa.analysis)) =
    let p = a.Fpvm.Vsa.pipeline in
    let f = a.Fpvm.Vsa.fpa in
    let sink (s : AP.sink) =
      J.Obj
        [ ("index", J.Int s.AP.sink_index);
          ("kind", J.Str (sink_kind_name s.AP.kind));
          ("insn", J.Str (insn_text prog s.AP.sink_index));
          ("sources", J.Arr (List.map (fun q -> J.Obj (insn_json prog q)) s.AP.srcs)) ]
    in
    (* FP special-value tier: per-site verdicts with provenance. *)
    let verdict (v : Analysis.Fpa.verdict) =
      verdict_json prog v
        ("srcs", J.Arr (List.map (fun q -> J.Int q) v.Analysis.Fpa.v_srcs))
    in
    J.Obj
      [ ("name", J.Str e.W.name);
        ("insns", J.Int (Array.length prog.Machine.Program.insns));
        ("blocks", J.Int p.AP.n_blocks);
        ("loop_heads", J.Int p.AP.n_loop_heads);
        ("iterations", J.Int p.AP.iterations);
        ("bailed_out", J.Bool p.AP.bailed_out);
        ("total_int_loads", J.Int p.AP.total_int_loads);
        ("proven_safe_loads", J.Int p.AP.proven_safe_loads);
        ("trap_checks_elided", J.Int p.AP.trap_checks_elided);
        ("sinks", J.Arr (List.map sink p.AP.sinks));
        ("fp",
         J.Obj
           (J.ints
              [ ("sites", f.Analysis.Fpa.sites);
                ("sub_free", f.Analysis.Fpa.sub_free);
                ("born_free", f.Analysis.Fpa.born_free);
                ("proven", f.Analysis.Fpa.proven) ]
           @ [ ("bailed_out", J.Bool f.Analysis.Fpa.bailed_out);
               ("verdicts",
                J.Arr (Array.to_list (Array.map verdict f.Analysis.Fpa.verdicts))) ])) ]
  in
  J.Obj [ ("workloads", J.Arr (List.map workload results)) ]

(* Golden format: one
   "name|sinks|total_int_loads|proven_safe|fp_sites|fp_sub_free|fp_born_free"
   line per workload. A regression is strictly more sinks, strictly
   fewer proven-safe loads, or strictly fewer FP sites proven
   subnormal-free / birth-free than the committed counts; improvements
   are reported but pass (refresh the golden file to lock them in).
   Every analysed workload needs its line; a line for a registered
   workload left out by -w is skipped, and one naming no registered
   workload fails. *)
let check_golden results file =
  let lines = ref [] in
  let ic = open_in file in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char '|' line with
         | [ name; sinks; total; proven; fp_sites; fp_sub; fp_born ] ->
             lines :=
               (name, int_of_string sinks, int_of_string total,
                int_of_string proven, int_of_string fp_sites,
                int_of_string fp_sub, int_of_string fp_born)
               :: !lines
         | _ -> failwith (Printf.sprintf "%s: malformed golden line %S" file line)
     done
   with End_of_file -> ());
  close_in ic;
  let failures = ref 0 in
  List.iter
    (fun (name, gsinks, gtotal, gproven, gfp_sites, gfp_sub, gfp_born) ->
      match
        List.find_opt (fun (e, _, _) -> e.W.name = name) results
      with
      | None when List.exists (fun (e : W.entry) -> e.W.name = name) W.all -> ()
      | None ->
          incr failures;
          Printf.eprintf "FAIL %-12s is not a registered workload\n" name
      | Some (_, _, a) ->
          let p = a.Fpvm.Vsa.pipeline in
          let f = a.Fpvm.Vsa.fpa in
          let nsinks = List.length p.AP.sinks in
          if nsinks > gsinks || p.AP.proven_safe_loads < gproven then begin
            incr failures;
            Printf.eprintf
              "FAIL %-12s sinks %d (golden %d), proven %d (golden %d)\n" name
              nsinks gsinks p.AP.proven_safe_loads gproven
          end
          else if p.AP.total_int_loads <> gtotal then begin
            incr failures;
            Printf.eprintf
              "FAIL %-12s total_int_loads %d != golden %d (workload changed? refresh the golden file)\n"
              name p.AP.total_int_loads gtotal
          end
          else if
            f.Analysis.Fpa.sub_free < gfp_sub
            || f.Analysis.Fpa.born_free < gfp_born
          then begin
            incr failures;
            Printf.eprintf
              "FAIL %-12s fp sub_free %d (golden %d), born_free %d (golden %d)\n"
              name f.Analysis.Fpa.sub_free gfp_sub f.Analysis.Fpa.born_free
              gfp_born
          end
          else if f.Analysis.Fpa.sites <> gfp_sites then begin
            incr failures;
            Printf.eprintf
              "FAIL %-12s fp_sites %d != golden %d (workload changed? refresh the golden file)\n"
              name f.Analysis.Fpa.sites gfp_sites
          end
          else
            Printf.eprintf
              "ok   %-12s sinks %d/%d proven %d/%d fp %d+%d/%d\n" name nsinks
              gsinks p.AP.proven_safe_loads p.AP.total_int_loads
              f.Analysis.Fpa.sub_free f.Analysis.Fpa.born_free
              f.Analysis.Fpa.sites)
    (List.rev !lines);
  List.iter
    (fun ((e : W.entry), _, _) ->
      if not (List.exists (fun (name, _, _, _, _, _, _) -> name = e.W.name) !lines)
      then begin
        incr failures;
        Printf.eprintf "FAIL %-12s has no line in %s\n" e.W.name file
      end)
    results;
  !failures

(* The workloads [analyze] and [lint] cover: all of them, or the one
   [-w] names. *)
let workloads_of only =
  match only with
  | "" -> Ok W.all
  | name -> (
      match W.find name with
      | Some e -> Ok [ e ]
      | None -> Error (Printf.sprintf "unknown workload %S (try --list)" name))

let analyze only check =
  match workloads_of only with
  | Error m -> `Error (false, m)
  | Ok entries ->
      let results =
        List.map
          (fun (e : W.entry) ->
            let prog = e.W.program W.Test in
            (e, prog, Fpvm.Vsa.analyze prog))
          entries
      in
      print_endline (J.to_string (analyze_json results));
      if check = "" then `Ok 0
      else
        guard (fun () ->
            let failures = check_golden results check in
            if failures > 0 then begin
              Printf.eprintf
                "analysis check: %d failure(s) against %s\n"
                failures check;
              `Ok 6
            end
            else `Ok 0)

(* ---- lint command ----------------------------------------------------- *)

(* Static FP lint: walk the FP special-value tier's verdicts and warn,
   per site, about potential NaN/Inf births and subnormal inputs the
   analysis could not rule out — with the provenance path (the input
   sites the risk flows from) and a suggested record/replay bisect
   recipe for localizing the first divergent event dynamically. *)
let lint_hint name =
  Printf.sprintf
    "fpvm_run -w \"%s\" --record base.log && fpvm_run -w \"%s\" -a mpfr \
     --prec 50 --record alt.log && fpvm_run bisect --arch-only base.log \
     alt.log"
    name name

let lint only json =
  match workloads_of only with
  | Error m -> `Error (false, m)
  | Ok entries ->
      let results =
        List.map
          (fun (e : W.entry) ->
            let prog = e.W.program W.Test in
            (e, prog, (Fpvm.Vsa.analyze prog).Fpvm.Vsa.fpa))
          entries
      in
      let warn_sites (f : Analysis.Fpa.t) =
        Array.to_list f.Analysis.Fpa.verdicts
        |> List.filter (fun (v : Analysis.Fpa.verdict) ->
               not (v.Analysis.Fpa.v_sub_free && v.Analysis.Fpa.v_born_free))
      in
      if json then begin
        let warning prog (v : Analysis.Fpa.verdict) =
          verdict_json prog v
            ("provenance",
             J.Arr
               (List.map (fun q -> J.Obj (insn_json prog q)) v.Analysis.Fpa.v_srcs))
        in
        let workload (e, prog, (f : Analysis.Fpa.t)) =
          J.Obj
            ([ ("name", J.Str e.W.name) ]
            @ J.ints
                [ ("sites", f.Analysis.Fpa.sites);
                  ("sub_free", f.Analysis.Fpa.sub_free);
                  ("born_free", f.Analysis.Fpa.born_free);
                  ("proven", f.Analysis.Fpa.proven) ]
            @ [ ("hint", J.Str (lint_hint e.W.name));
                ("warnings", J.Arr (List.map (warning prog) (warn_sites f))) ])
        in
        print_endline
          (J.to_string
             (J.Obj
                [ ("schema_version", J.Int 1);
                  ("workloads", J.Arr (List.map workload results)) ]))
      end
      else
        List.iter
          (fun (e, prog, (f : Analysis.Fpa.t)) ->
            Printf.printf
              "%s: %d FP sites, %d subnormal-free, %d birth-free, %d with at \
               least one proof\n"
              e.W.name f.Analysis.Fpa.sites f.Analysis.Fpa.sub_free
              f.Analysis.Fpa.born_free f.Analysis.Fpa.proven;
            let warns = warn_sites f in
            List.iter
              (fun (v : Analysis.Fpa.verdict) ->
                Printf.printf "  WARN [%4d] %s\n" v.Analysis.Fpa.v_index
                  (insn_text prog v.Analysis.Fpa.v_index);
                Printf.printf "       risks: %s\n"
                  (String.concat ", " v.Analysis.Fpa.v_risks);
                if v.Analysis.Fpa.v_srcs <> [] then
                  Printf.printf "       from:  %s\n"
                    (String.concat "; "
                       (List.map
                          (fun q ->
                            Printf.sprintf "[%d] %s" q (insn_text prog q))
                          v.Analysis.Fpa.v_srcs)))
              warns;
            if warns <> [] then
              Printf.printf "  hint: %s\n" (lint_hint e.W.name))
          results;
      `Ok 0

(* ---- coach command ---------------------------------------------------- *)

(* Flight-recorder triage report: run the workload once under the
   flight recorder (recording the event log in memory so birth events
   carry replay positions), then print, per surviving NaN/Inf flow,
   where it was born (disassembly, static FPA risk tags and
   provenance), where it died, how long the chain was — and a
   ready-to-run record/record/bisect recipe whose injected divergence
   sits exactly on the birth event, so the bisector's prefix-digest
   search lands on it. With --ground-truth interval the workload is
   re-run on the interval port and each flow is labeled REAL (the
   rigorous enclosure also excepts or becomes unbounded at that birth
   site) or SPURIOUS (the enclosure stays bounded: a precision
   artifact of the port under test). *)

module FR = Telemetry.Flowrec

let coach_flags ~wname ~arith ~prec ~posit_bits ~scale ~full_gc ~inject_nan =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (if String.contains wname ' ' then Printf.sprintf "-w \"%s\"" wname
     else Printf.sprintf "-w %s" wname);
  (match arith with
  | "mpfr" | "slash" -> Buffer.add_string b (Printf.sprintf " -a %s --prec %d" arith prec)
  | "posit" -> Buffer.add_string b (Printf.sprintf " -a posit --posit %d" posit_bits)
  | a -> Buffer.add_string b (Printf.sprintf " -a %s" a));
  if scale = W.S then Buffer.add_string b " --scale s";
  if full_gc then Buffer.add_string b " --full-gc";
  if inject_nan >= 0 then
    Buffer.add_string b (Printf.sprintf " --inject-nan %d" inject_nan);
  Buffer.contents b

let coach workload arith prec posit_bits scale config ground_truth
    flow_capacity inject_nan =
  let arith = String.lowercase_ascii arith in
  if arith = "native" then
    `Error (false, "coach requires an FPVM arithmetic, not native")
  else if not (List.mem ground_truth [ ""; "interval" ]) then
    `Error
      ( false,
        Printf.sprintf "unknown --ground-truth %S (only: interval)"
          ground_truth )
  else
    match
      ( Fleet.Port.of_flags ~arith ~prec ~posit:posit_bits,
        load_program workload scale inject_nan )
    with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok port, Ok (e, prog) ->
      let d = Fleet.port_driver port in
      let facts = Fpvm.Vsa.analyze prog in
      let fpa = facts.Fpvm.Vsa.fpa in
      let risk_of = Hashtbl.create 64 in
      Array.iter
        (fun (v : Analysis.Fpa.verdict) ->
          Hashtbl.replace risk_of v.Analysis.Fpa.v_index
            (v.Analysis.Fpa.v_risks, v.Analysis.Fpa.v_srcs))
        fpa.Analysis.Fpa.verdicts;
      let itext i =
        if i >= 0 && i < Array.length prog.Machine.Program.insns then
          insn_text prog i
        else "?"
      in
      let meta =
        log_meta e ~scale ~arith:(Fleet.Port.to_string port) ~config
          ~inject_nan
      in
      guard (fun () ->
          let tel = Telemetry.create ~flows:true ?flow_capacity () in
          let rec_ =
            d.d_record ~facts
              ~instrument:(fun sink -> Telemetry.attach tel sink)
              ~checkpoint_every:0 ~meta ~config prog
          in
          let r = rec_.Replay.Session.result in
          Telemetry.finalize tel r.Fpvm.Engine.stats;
          let fr =
            match tel.Telemetry.flows with
            | Some fr -> fr
            | None -> assert false
          in
          (* Ground truth: the same binary on the rigorous interval
             port (its own deterministic run; an unbounded enclosure
             demotes to Inf/NaN, so it surfaces as a birth). *)
          let truth =
            if ground_truth = "" then None
            else
              match
                Fleet.Port.of_flags ~arith:"interval" ~prec
                  ~posit:posit_bits
              with
              | Error m -> failwith m
              | Ok iport ->
                  let tel2 = Telemetry.create ~flows:true () in
                  let d2 = Fleet.port_driver iport in
                  let r2 =
                    d2.d_run ~facts
                      ~instrument:(fun sink ->
                        Telemetry.attach tel2 sink)
                      ~config prog
                  in
                  ignore r2;
                  let fr2 =
                    match tel2.Telemetry.flows with
                    | Some f -> f
                    | None -> assert false
                  in
                  let sites = FR.birth_sites fr2 in
                  FR.label_truth fr (fun site ->
                      Hashtbl.mem sites site);
                  Some (FR.truth_counts fr)
          in
          let opn, comp, drop = FR.gauges fr in
          Printf.printf
            "coach: %s under %s — %d flow(s): %d completed, %d open, \
             %d dropped\n"
            e.W.name meta.Replay.Log.arith (FR.n_flows fr) comp opn drop;
          (match truth with
          | Some (real, spur) ->
              Printf.printf
                "ground truth (interval port): %d real / %d spurious\n"
                real spur
          | None -> ());
          let surv = FR.all_flows fr in
          if surv = [] then
            print_string "no NaN/Inf flows observed; nothing to coach\n";
          let flags =
            coach_flags ~wname:e.W.name ~arith ~prec ~posit_bits ~scale
              ~full_gc:(not config.incremental_gc) ~inject_nan
          in
          List.iter
            (fun (f : FR.flow) ->
              let bb = Buffer.create 256 in
              FR.pp_flow_line bb f;
              print_string (Buffer.contents bb);
              Printf.printf "  birth [%4d] %s\n" f.FR.fl_birth_site
                (itext f.FR.fl_birth_site);
              (match Hashtbl.find_opt risk_of f.FR.fl_birth_site with
              | Some (risks, srcs) ->
                  if risks <> [] then
                    Printf.printf "    risks: %s\n"
                      (String.concat ", " risks);
                  if srcs <> [] then
                    Printf.printf "    from:  %s\n"
                      (String.concat "; "
                         (List.map
                            (fun q ->
                              Printf.sprintf "[%d] %s" q (itext q))
                            srcs))
              | None -> ());
              if f.FR.fl_kill_site >= 0 then
                Printf.printf "  kill  [%4d] %s (%s)\n"
                  f.FR.fl_kill_site (itext f.FR.fl_kill_site)
                  (FR.kill_kind_name f.FR.fl_kill_kind)
              else print_string "  kill  still open at exit\n";
              if f.FR.fl_dropped then
                print_string
                  "  chain: per-link detail overwritten in the ring \
                   (metadata above is exact; raise --flow-capacity \
                   for the full chain)\n";
              (match f.FR.fl_real with
              | 1 ->
                  print_string
                    "  label: REAL — the interval port also excepts \
                     at this birth site\n"
              | 0 ->
                  print_string
                    "  label: SPURIOUS — the interval enclosure stays \
                     bounded here (precision artifact of the port \
                     under test)\n"
              | _ -> ());
              Printf.printf
                "  bisect: fpvm_run %s --record base.log && fpvm_run \
                 %s --record inj.log --inject-divergence %d && \
                 fpvm_run bisect base.log inj.log\n"
                flags flags f.FR.fl_birth_event)
            surv;
          `Ok 0)

open Cmdliner

let workload =
  Arg.(value & opt string "lorenz" & info [ "w"; "workload" ] ~doc:"Workload name (see --list).")

(* [analyze] and [lint] default to every workload *)
let only_workload =
  Arg.(value & opt string ""
       & info [ "w"; "workload" ] ~doc:"Only this workload (default: all).")

let arith =
  Arg.(value & opt string "vanilla"
       & info [ "a"; "arith" ] ~doc:"Arithmetic: native, vanilla, mpfr, posit, interval, slash.")

let prec =
  Arg.(value & opt int 200 & info [ "prec" ] ~doc:"Precision in bits (mpfr significand / slash num+den budget).")

let posit_bits =
  Arg.(value & opt int 32 & info [ "posit" ] ~doc:"Posit width (8, 16, 32).")

let scale =
  let parse v = Result.map_error (fun m -> `Msg m) (Fleet.scale_of_string v) in
  let print ppf sc = Format.pp_print_string ppf (Fleet.scale_string sc) in
  Arg.(value & opt (conv (parse, print)) W.Test
       & info [ "scale" ] ~doc:"Problem scale: test or s (any case).")

(* One term for the config rows [fronts] of the engine's table: a
   valued row is the flag [--key VALUE], a two-valued row the switch
   that selects its other spelling; each goes through the row's own
   validator, and a rejected value is a usage error. *)
let config_term fronts =
  let open Fpvm.Engine in
  let add acc f =
    let set c v =
      Result.bind c (fun c -> Result.map_error (( ^ ) "--") (f.parse c v))
    in
    match f.switch with
    | Some (switch, v) ->
        Term.(const (fun c on -> if on then set c v else c) $ acc
              $ Arg.(value & flag & info [ switch ] ~doc:f.doc))
    | None ->
        let docv = match f.accepts with Ints _ -> "N" | Names _ -> "NAME" in
        Term.(const set $ acc
              $ Arg.(value & opt string (f.spell default_config)
                     & info [ f.key ] ~doc:f.doc ~docv))
  in
  List.fold_left add (Term.const (Ok default_config)) fronts
  |> Term.map
       (Result.fold ~ok:(fun c -> `Ok c) ~error:(fun m -> `Error (false, m)))
  |> Term.ret

let cache_dir =
  Arg.(value & opt string ""
       & info [ "cache-dir" ]
           ~doc:"Read and write the persistent compilation-artifact cache in \
                 this directory; without it no cache is used. A warm run \
                 reuses the cold run's superblock recordings; outputs and \
                 fingerprints are bit-identical either way." ~docv:"DIR")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print FPVM statistics to stderr.")
let json = Arg.(value & flag & info [ "json" ] ~doc:"Print machine-readable run statistics (JSON) to stdout.")
let disasm = Arg.(value & flag & info [ "disasm" ] ~doc:"Disassemble the workload binary and exit.")
let spy = Arg.(value & flag & info [ "spy" ] ~doc:"FPSpy mode: profile FP events without emulating.")
let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List available workloads and exit.")

let record_file =
  Arg.(value & opt string "" & info [ "record" ] ~doc:"Record the execution's event log to $(docv)." ~docv:"FILE")

let replay_file =
  Arg.(value & opt string ""
       & info [ "replay" ]
           ~doc:"Re-execute and validate every event against the log in $(docv); exit 3 on divergence." ~docv:"FILE")

let checkpoint_every =
  Arg.(value & opt int 0
       & info [ "checkpoint-every" ]
           ~doc:"With --record: write a full checkpoint every $(docv) events (0 = never) to FILE.ckptN." ~docv:"N")

let from_checkpoint =
  Arg.(value & opt string ""
       & info [ "from-checkpoint" ]
           ~doc:"Restore the checkpoint in $(docv) and resume (with --replay: validate from there)." ~docv:"FILE")

let inject =
  Arg.(value & opt int (-1)
       & info [ "inject-divergence" ]
           ~doc:"With --record: corrupt the state digest of event $(docv) in the written log (bisector self-test)." ~docv:"N")

let inject_nan_arg =
  Arg.(value & opt int (-1)
       & info [ "inject-nan" ]
           ~doc:"Seed a NaN: retarget the $(docv)-th eligible scalar FP \
                 instruction (0-based) to a stub computing 0/0 into its \
                 destination, so a NaN is born at a known site and flows \
                 from there (flight-recorder smoke harness). Affects the \
                 executed binary; record/replay logs carry the setting in \
                 their config line." ~docv:"K")

let trace_out =
  Arg.(value & opt string ""
       & info [ "trace-out" ]
           ~doc:"Export a Chrome/Perfetto trace-event JSON timeline (modeled-cycle \
                 timestamps) of the run to $(docv)." ~docv:"FILE")

let profile =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print a per-site hot-spot profile (cycle attribution by \
                 instruction index) to stderr.")

let profile_out =
  Arg.(value & opt string ""
       & info [ "profile-out" ]
           ~doc:"Write the per-site profile as JSON to $(docv)." ~docv:"FILE")

let shadow_check =
  Arg.(value & flag
       & info [ "shadow-check" ]
           ~doc:"Numerical telemetry: track NaN/Inf births, kills and \
                 propagation per site, and compare the alternative \
                 arithmetic against a vanilla binary64 shadow at every \
                 demotion boundary (relative-error histogram on stderr).")

let flows_flag =
  Arg.(value & flag
       & info [ "flows" ]
           ~doc:"Attach the FP-exception flight recorder: assign each \
                 NaN/Inf birth a flow id, chain its propagations to the op \
                 or observation that kills it, and report the flow gauges \
                 (with --trace-out: draw the chains as Perfetto flow \
                 arrows). Observation only — the stats fingerprint is \
                 unchanged.")

(* The ring is allocated up front, so a capacity past its bound is a
   usage error, not an allocation. *)
let flow_capacity_arg =
  let max = Telemetry.Flowrec.max_capacity in
  let bounded =
    let parse s =
      Result.bind (Arg.conv_parser Arg.int s) (fun n ->
          if n <= max then Ok n
          else Error (`Msg (Printf.sprintf "must be <= %d (got %d)" max n)))
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(value & opt (some bounded) None
       & info [ "flow-capacity" ]
           ~doc:(Printf.sprintf
                   "Flight-recorder chain-link ring capacity (default 4096, \
                    at most %d); when the ring wraps, the oldest chain's \
                    link detail is dropped whole (flow metadata survives)."
                   max)
           ~docv:"N")

let run_term =
  Term.(
    ret
      (const run $ workload $ arith $ prec $ posit_bits $ scale
     $ config_term Fpvm.Engine.config_fronts
     $ stats $ json $ disasm $ spy $ list_only $ record_file
     $ replay_file $ checkpoint_every $ from_checkpoint $ inject
     $ inject_nan_arg $ trace_out $ profile $ profile_out $ shadow_check
     $ flows_flag $ flow_capacity_arg $ cache_dir))

let bisect_cmd =
  let log_a = Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG_A") in
  let log_b = Arg.(required & pos 1 (some string) None & info [] ~docv:"LOG_B") in
  let arch_only =
    Arg.(value & flag
         & info [ "arch-only" ]
             ~doc:"Compare the config-invariant view: GC events dropped, delivered/absorbed faults unified.")
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:"binary-search two event logs for their first diverging event (exit 4 if they diverge)")
    Term.(ret (const bisect $ log_a $ log_b $ arch_only))

let analyze_cmd =
  let check =
    Arg.(value & opt string ""
         & info [ "check" ]
             ~doc:"Compare sink, proven-safe load and proven FP-site \
                   counts against the golden file $(docv); exit 6 on any \
                   precision regression." ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"run the static analysis over workload binaries (no execution) and report precision as JSON")
    Term.(ret (const analyze $ only_workload $ check))

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the lint report as JSON to stdout.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"statically lint workloads for potential NaN/Inf/subnormal \
             births (per-site warnings with provenance, no execution)")
    Term.(ret (const lint $ only_workload $ json))

let coach_cmd =
  let ground_truth =
    Arg.(value & opt string ""
         & info [ "ground-truth" ]
             ~doc:"Label each flow against a rigorous port: $(docv) \
                   (currently only \"interval\") re-runs the workload on \
                   the directed-rounding interval port and marks a flow \
                   REAL if the enclosure also excepts (or is unbounded) at \
                   its birth site, SPURIOUS otherwise." ~docv:"PORT")
  in
  Cmd.v
    (Cmd.info "coach"
       ~doc:"run a workload under the FP-exception flight recorder and \
             report, per NaN/Inf flow, its birth site (with disassembly, \
             static risk tags and provenance), kill site, chain length and \
             a ready-to-run replay-bisect recipe that lands on the birth \
             event")
    Term.(
      ret
        (const coach $ workload $ arith $ prec $ posit_bits $ scale
       $ config_term [ Fpvm.Engine.front "gc" ]
       $ ground_truth $ flow_capacity_arg $ inject_nan_arg))

let cmd =
  let doc = "run workloads under the floating point virtual machine" in
  Cmd.group ~default:run_term (Cmd.info "fpvm_run" ~doc)
    [ bisect_cmd; analyze_cmd; lint_cmd; coach_cmd ]

let () = exit (Cmd.eval' cmd)

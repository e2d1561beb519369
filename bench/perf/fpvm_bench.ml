(* fpvm_bench: host-clock benchmark of the FPVM libraries.

     fpvm_bench [--seed N] [--seconds S] [--trace-out FILE] [--out FILE]
         every workload, each in its own child process: an untraced run
         (end-to-end metrics), then a traced run (per-layer metrics)
     fpvm_bench --workload W --seed N --seconds S --trace 0|1 [...]
         one workload in this process; the last stdout line is the
         result object {"correct", "attempted", "failed", "metrics"}
     fpvm_bench bless [--expected FILE]
         regenerate the oracle for non-vanilla jobs
     fpvm_bench compare BASE CHANGE [--benchmark FILE]
         judge CHANGE's run records against BASE's by the bounds in
         BENCHMARK.json

   Everything stays in memory; the only files written are the ones
   named by --trace-out, --out and bless. *)

open Fpvm_perf

let workload = ref ""
let seed = ref Jobs.default_seed
let seconds = ref 18.0
let trace = ref (-1)
let trace_out = ref ""
let out = ref ""
let expected = ref Expected.default_path
let benchmark = ref "BENCHMARK.json"
let anon = ref []

let specs =
  [ ("--workload", Arg.Set_string workload,
     "W  run one workload: "
     ^ String.concat ", " (List.map snd Jobs.workloads));
    ("--seed", Arg.Set_int seed,
     Printf.sprintf "N  job seed (default %d; holdout %d)" Jobs.default_seed
       Jobs.holdout_seed);
    ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (default 18)");
    ("--trace", Arg.Set_int trace,
     "0|1  untraced run (end-to-end metrics) or traced run (per-layer metrics)");
    ("--trace-out", Arg.Set_string trace_out,
     "FILE  write the traced run's spans as Chrome trace JSON");
    ("--out", Arg.Set_string out, "FILE  append a run record for compare");
    ("--expected", Arg.Set_string expected,
     "FILE  oracle table (default " ^ Expected.default_path ^ ")");
    ("--benchmark", Arg.Set_string benchmark,
     "FILE  bounds for compare (default BENCHMARK.json)") ]

let usage = "fpvm_bench [bless | compare BASE CHANGE] [options]"

let metrics_json defs values =
  Json.Obj
    (List.map
       (fun (d : Metrics.def) ->
         ( d.Metrics.name,
           Json.Obj
             [ ("value", Json.Num (List.assoc d.Metrics.name values));
               ("unit", Json.Str d.Metrics.unit) ] ))
       defs)

let append path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* One workload in this process. *)
let run_one w ~traced =
  let name = Jobs.workload_name w in
  let r =
    Runner.run w ~seed:!seed ~seconds:!seconds ~traced
      ~expected:(Expected.load !expected)
  in
  let defs = if traced then Metrics.per_layer else Metrics.end_to_end in
  Printf.printf "# %s seed=%d trace=%d jobs=%d attempted=%d failed=%d\n" name
    !seed (Bool.to_int traced) r.Runner.samples r.Runner.tally.Runner.attempted
    r.Runner.tally.Runner.failed;
  List.iter
    (fun (d : Metrics.def) ->
      Printf.printf "  %-32s %14.6g %-10s (n=%d)\n" d.Metrics.name
        (List.assoc d.Metrics.name r.Runner.metrics)
        d.Metrics.unit
        (if d.Metrics.name = "peak_rss_mb" then 1 else r.Runner.samples))
    defs;
  let metrics = metrics_json defs r.Runner.metrics in
  if !out <> "" then
    append !out
      (Json.to_string
         (Json.Obj
            [ ("workload", Json.Str name); ("seed", Json.Num (float_of_int !seed));
              ("trace", Json.Num (if traced then 1. else 0.)); ("metrics", metrics) ]));
  if traced && !trace_out <> "" then begin
    let oc = open_out !trace_out in
    output_string oc (Json.to_string (Spans.to_chrome r.Runner.spans));
    close_out oc
  end;
  let failed = r.Runner.tally.Runner.failed in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int r.Runner.tally.Runner.attempted));
            ("failed", Json.Num (float_of_int failed)); ("metrics", metrics) ]));
  if failed = 0 then 0 else 1

(* Every workload, untraced then traced, each run in a child process so
   that peak RSS is per workload. *)
let run_all () =
  let results =
    List.concat_map
      (fun (_, name) ->
        List.map
          (fun t ->
            let args =
              [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int !seed;
                "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; string_of_int t;
                "--expected"; !expected ]
              @ (if !out <> "" then [ "--out"; !out ] else [])
              @
              if t = 1 && !trace_out <> "" then
                [ "--trace-out"; Filename.remove_extension !trace_out ^ "." ^ name ^ ".json" ]
              else []
            in
            let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
            let rec drain last =
              match input_line ic with
              | l ->
                  print_endline l;
                  drain l
              | exception End_of_file -> last
            in
            let last = drain "" in
            let status = Unix.close_process_in ic in
            let result = try Json.of_string last with Json.Error _ -> Json.Null in
            (name, t, status, result))
          [ 0; 1 ])
      Jobs.workloads
  in
  let total k =
    List.fold_left
      (fun a (_, _, _, r) ->
        a + match Json.member k r with Json.Num n -> int_of_float n | _ -> 1)
      0 results
  in
  let ok = List.for_all (fun (_, _, st, _) -> st = Unix.WEXITED 0) results in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (ok && total "failed" = 0));
            ("attempted", Json.Num (float_of_int (total "attempted")));
            ("failed", Json.Num (float_of_int (total "failed")));
            ( "workloads",
              Json.Obj
                (List.map
                   (fun (_, name) ->
                     let pick t =
                       List.find_map
                         (fun (n, t', _, r) ->
                           if n = name && t' = t then Some (Json.member "metrics" r) else None)
                         results
                       |> Option.value ~default:Json.Null
                     in
                     (name, Json.Obj [ ("end_to_end", pick 0); ("per_layer", pick 1) ]))
                   Jobs.workloads) ) ]));
  if ok then 0 else 1

let () =
  Arg.parse specs (fun a -> anon := !anon @ [ a ]) usage;
  let code =
    match !anon with
    | [ "bless" ] ->
        let n = Expected.bless !expected in
        Printf.printf "wrote %d entries to %s\n" n !expected;
        0
    | [ "compare"; base; change ] -> Compare.main ~benchmark:!benchmark base change
    | [] when !workload = "" -> run_all ()
    | [] -> (
        match Jobs.workload_of_name !workload with
        | None ->
            prerr_endline ("unknown workload: " ^ !workload);
            2
        | Some w -> run_one w ~traced:(!trace = 1))
    | _ ->
        prerr_endline usage;
        2
  in
  exit code

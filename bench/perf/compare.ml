(* [fpvm_bench compare BASE CHANGE]: judge a change against its parent,
   per workload and end-to-end metric, by the benchmark's bounds.

   BASE and CHANGE are files of run records, one JSON object per line,
   as [--out] appends them: {"workload", "seed", "trace", "metrics"}.
   The i-th record of a workload in BASE pairs with the i-th in CHANGE;
   the pairs protocol alternates which side runs first. *)

type verdict = Better | No_worse | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | No_worse -> "no worse"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type row = {
  verdict : verdict;
  worse_by : float; (* share of the base median the change is worse by *)
  pairs : int;
  wins : int; (* pairs the change won; ties count for neither *)
}

(* The rule: a metric is unresolved when either side's spread is wider
   than its bound, unless every change run beats every base run; worse
   when the change's median is worse by more than the bound; better only
   with at least ten pairs, nine tenths of them won, and medians further
   apart than the base's own quartile distance. A bound of 0 makes any
   worsening count. *)
let judge ~(better : Metrics.better) ~bound (base : float list)
    (change : float list) : row =
  let beats y x = match better with Metrics.Lower -> y < x | Metrics.Higher -> y > x in
  let mb = Metrics.median base and mc = Metrics.median change in
  let rel_spread l m = if m = 0.0 then 0.0 else Metrics.iqr l /. Float.abs m in
  let spread = Float.max (rel_spread base mb) (rel_spread change mc) in
  let delta = if mb = 0.0 then 0.0 else (mc -. mb) /. Float.abs mb in
  let worse_by = match better with Metrics.Lower -> delta | Metrics.Higher -> -.delta in
  let pairs = min (List.length base) (List.length change) in
  let first l = List.filteri (fun i _ -> i < pairs) l in
  let wins =
    List.combine (first base) (first change)
    |> List.filter (fun (b, c) -> beats c b)
    |> List.length
  in
  let dominates = List.for_all (fun c -> List.for_all (beats c) base) change in
  let verdict =
    if spread > bound && not dominates then Unresolved
    else if worse_by > bound then Worse
    else if
      pairs >= 10 && 10 * wins >= 9 * pairs && beats mc mb
      && Float.abs (mc -. mb) > Metrics.iqr base
    then Better
    else No_worse
  in
  { verdict; worse_by; pairs; wins }

(* ---- files -------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (if String.trim l = "" then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* (workload, metric, value) of every record in a runs file, in order. *)
let load_runs path =
  List.concat_map
    (fun line ->
      let j = Json.of_string line in
      let w = Json.to_str (Json.member "workload" j) in
      match Json.member "metrics" j with
      | Json.Obj ms ->
          List.map (fun (k, v) -> (w, k, Json.to_float (Json.member "value" v))) ms
      | _ -> [])
    (read_lines path)

(* (name, unit, better, bound) of each end-to-end metric. *)
let load_bounds path =
  let ic = open_in path in
  let j =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))
  in
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        Json.to_str (Json.member "unit" m),
        Metrics.better_of_string (Json.to_str (Json.member "better" m)),
        Json.to_float (Json.member "bound" m) ))
    (Json.to_list (Json.member "end_to_end" j))

(* Print one row per workload x end-to-end metric; the exit code is 1 if
   any row is worse, else 0. *)
let main ~benchmark base_path change_path =
  let bounds = load_bounds benchmark in
  let base = load_runs base_path and change = load_runs change_path in
  let values runs w m =
    List.filter_map (fun (w', m', v) -> if w' = w && m' = m then Some v else None) runs
  in
  let quart l = Printf.sprintf "%.4g [%.4g, %.4g]" (Metrics.median l) (Metrics.quartile 1 l) (Metrics.quartile 3 l) in
  Printf.printf "%-13s %-20s %-28s %-28s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "change median [q1, q3]" "worse by" "bound" "verdict";
  let any_worse = ref false in
  List.iter
    (fun (_, wname) ->
      List.iter
        (fun (m, unit, better, bound) ->
          let b = values base wname m and c = values change wname m in
          if b <> [] && c <> [] then begin
            let r = judge ~better ~bound b c in
            if r.verdict = Worse then any_worse := true;
            Printf.printf "%-13s %-20s %-28s %-28s %+7.1f%% %5.0f%%  %s%s\n" wname
              (m ^ " " ^ unit) (quart b) (quart c) (100.0 *. r.worse_by)
              (100.0 *. bound) (verdict_name r.verdict)
              (if r.pairs >= 10 then Printf.sprintf " (change won %d of %d pairs)" r.wins r.pairs
               else "")
          end)
        bounds)
    Jobs.workloads;
  if !any_worse then 1 else 0

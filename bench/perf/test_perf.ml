(* Unit tests for the benchmark's own machinery: the timed arith port,
   span self time, the JSON emitter and parser, quartiles, compare
   verdicts, and the agreement of BENCHMARK.json with the metric
   tables. *)

open Fpvm_perf

(* ---- Timed: same output and fingerprint as the port it wraps ------------ *)

let ports =
  [ Fleet.Port.Vanilla; Fleet.Port.Mpfr 200; Fleet.Port.Posit 32;
    Fleet.Port.Interval; Fleet.Port.Slash 30 ]

let test_timed_identity () =
  let prog = Workloads.Lorenz.program ~steps:150 () in
  List.iter
    (fun port ->
      let module A = (val Fleet.Port.arith port) in
      let module T = Timed.Make (A) in
      let module EA = Fpvm.Engine.Make (A) in
      let module ET = Fpvm.Engine.Make (T) in
      let a = EA.run prog and t = ET.run prog in
      let label = Fleet.Port.to_string port in
      Alcotest.(check string) (label ^ " output") a.Fpvm.Engine.output t.Fpvm.Engine.output;
      Alcotest.(check string)
        (label ^ " fingerprint")
        (Fpvm.Stats.fingerprint a.Fpvm.Engine.stats)
        (Fpvm.Stats.fingerprint t.Fpvm.Engine.stats);
      Alcotest.(check int) (label ^ " cycles") a.Fpvm.Engine.cycles t.Fpvm.Engine.cycles;
      Alcotest.(check bool) (label ^ " counted calls") true
        (Timed.total T.counters.Timed.calls > 0
        && T.counters.Timed.calls.(Timed.basic) > 0))
    ports

(* ---- spans -------------------------------------------------------------- *)

let span id parent start_ns end_ns =
  { Spans.id; name = "s" ^ string_of_int id; job = 0; parent; start_ns; end_ns }

let test_self_time () =
  (* root 0..100 with children 10..30 and 40..90; the second child has a
     grandchild 50..60, which counts against its parent only *)
  let spans = [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 40 90; span 3 2 50 60 ] in
  let self id = Spans.self_ns spans (List.nth spans id) in
  Alcotest.(check int) "root" 30 (self 0);
  Alcotest.(check int) "leaf" 20 (self 1);
  Alcotest.(check int) "middle" 40 (self 2);
  Alcotest.(check int) "grandchild" 10 (self 3)

let test_nesting () =
  let t = Spans.create () in
  Spans.within t ~job:7 "job" (fun () ->
      Spans.within t ~job:7 "a" ignore;
      Spans.within t ~job:7 "b" (fun () -> Spans.within t ~job:7 "c" ignore));
  (try Spans.within t ~job:8 "raises" (fun () -> failwith "x") with Failure _ -> ());
  match Spans.in_order t with
  | [ job; a; b; c; r ] ->
      Alcotest.(check (list int)) "parents" [ -1; job.Spans.id; job.Spans.id; b.Spans.id; -1 ]
        (List.map (fun s -> s.Spans.parent) [ job; a; b; c; r ]);
      Alcotest.(check bool) "closed" true
        (List.for_all (fun s -> s.Spans.end_ns >= s.Spans.start_ns) [ job; a; b; c; r ]);
      Alcotest.(check int) "count" 1 (Spans.count (Spans.in_order t) ~job:7 "c")
  | l -> Alcotest.failf "expected 5 spans, got %d" (List.length l)

(* ---- JSON --------------------------------------------------------------- *)

let test_json_escape () =
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd\te\u0001"|}
    (Json.to_string (Json.Str "a\"b\\c\nd\te\001"));
  Alcotest.(check string) "numbers" "[0.1, 3, -2.5, 0.3333333333333333, null]"
    (Json.to_string
       (Json.Arr [ Json.Num 0.1; Json.Num 3.0; Json.Num (-2.5); Json.Num (1.0 /. 3.0); Json.Num nan ]))

let test_json_round_trip () =
  let v =
    Json.Obj
      [ ("correct", Json.Bool true); ("n", Json.Num 1234.5678901234);
        ("s", Json.Str "tab\t quote\" slash\\ \001 é");
        ("l", Json.Arr [ Json.Null; Json.Arr []; Json.Obj [] ]);
        ("m", Json.Obj [ ("x", Json.Num 1e-9) ]) ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string {|"\u00e9\/"|} = Json.Str "é/");
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (match Json.of_string bad with _ -> false | exception Json.Error _ -> true))
    [ "{"; "[1,]"; {|"abc|}; "tru"; "{} x"; "" ]

(* ---- quartiles ---------------------------------------------------------- *)

let test_quartiles () =
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let l = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ]
    (List.map (fun i -> Metrics.quartile i l) [ 1; 2; 3 ]);
  (* statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0] *)
  Alcotest.(check (list (float 1e-12))) "three" [ 1.0; 2.0; 4.0 ]
    (List.map (fun i -> Metrics.quartile i [ 4.; 1.; 2. ]) [ 1; 2; 3 ]);
  Alcotest.(check (float 1e-12)) "median even" 2.5 (Metrics.median [ 4.; 1.; 2.; 3. ])

(* ---- compare verdicts --------------------------------------------------- *)

let verdict ?(better = Metrics.Lower) ~bound base change =
  Compare.verdict_name (Compare.judge ~better ~bound base change).Compare.verdict

let around m n = List.init n (fun i -> m *. (1.0 +. (0.002 *. float_of_int (i mod 3))))

let test_verdicts () =
  let base = around 1.0 10 in
  Alcotest.(check string) "no worse" "no worse" (verdict ~bound:0.1 base (around 1.05 10));
  Alcotest.(check string) "worse" "worse" (verdict ~bound:0.1 base (around 1.2 10));
  Alcotest.(check string) "better" "better" (verdict ~bound:0.1 base (around 0.8 10));
  Alcotest.(check string) "better needs ten pairs" "no worse"
    (verdict ~bound:0.1 (around 1.0 5) (around 0.8 5));
  Alcotest.(check string) "higher is better" "better"
    (verdict ~better:Metrics.Higher ~bound:0.1 base (around 1.2 10));
  Alcotest.(check string) "higher, worse" "worse"
    (verdict ~better:Metrics.Higher ~bound:0.1 base (around 0.8 10));
  let wide = [ 0.6; 1.4; 0.7; 1.3; 1.0; 0.8; 1.2; 0.9; 1.1; 1.0 ] in
  Alcotest.(check string) "unresolved" "unresolved" (verdict ~bound:0.1 base wide);
  Alcotest.(check string) "wide but dominated" "better"
    (verdict ~bound:0.1 wide (List.map (fun x -> x *. 0.3) wide));
  let exact = List.init 10 (fun _ -> 64.25) in
  Alcotest.(check string) "exact, same" "no worse" (verdict ~bound:0.0 exact exact);
  Alcotest.(check string) "exact, any worsening" "worse"
    (verdict ~bound:0.0 exact (List.map (fun x -> x +. 0.01) exact))

(* ---- BENCHMARK.json ----------------------------------------------------- *)

let test_benchmark_json () =
  let ic = open_in "../../BENCHMARK.json" in
  let j = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let listed key =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "unit" m),
          Json.to_str (Json.member "better" m) ))
      (Json.to_list (Json.member key j))
  in
  let table defs =
    List.map
      (fun (d : Metrics.def) ->
        (d.Metrics.name, d.Metrics.unit, Metrics.string_of_better d.Metrics.better))
      defs
  in
  Alcotest.(check (list (triple string string string))) "end_to_end"
    (table Metrics.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (triple string string string))) "per_layer"
    (table Metrics.per_layer) (listed "per_layer");
  Alcotest.(check (list string)) "workloads" (List.map snd Jobs.workloads)
    (List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" j)));
  let bounds =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_float (Json.member "bound" m)))
      (Json.to_list (Json.member "end_to_end" j))
  in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun (_, b) -> b <= List.assoc "setup_s" bounds) bounds)

let () =
  Alcotest.run "perf"
    [ ("timed", [ Alcotest.test_case "identity on every port" `Quick test_timed_identity ]);
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_nesting ] );
      ( "json",
        [ Alcotest.test_case "escaping" `Quick test_json_escape;
          Alcotest.test_case "round trip" `Quick test_json_round_trip ] );
      ("metrics", [ Alcotest.test_case "quartiles" `Quick test_quartiles ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("benchmark", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]) ]

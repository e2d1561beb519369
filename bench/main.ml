(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (section 5) plus the section 3.2 trap-and-patch
   proof of concept and the section 6 delivery-cost projections.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig9    -- one experiment
     dune exec bench/main.exe -- list    -- what exists

   Microbenchmark timings (Figure 11) are measured with Bechamel on the
   host; system-level numbers come from the simulator's cycle
   accounting. Absolute values are not expected to match the paper's
   testbeds - the *shapes* (who wins, by what factor, where the
   crossovers sit) are the reproduction targets; see EXPERIMENTS.md. *)

module B = Bigfloat
module E = Elementary
module CM = Machine.Cost_model
module W = Workloads

module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)
module E_mpfr = Fpvm.Engine.Make (Fpvm.Alt_mpfr)
module E_posit = Fpvm.Engine.Make (Fpvm.Alt_posit)

let printf = Printf.printf

let hr title =
  printf "\n==== %s %s\n\n" title (String.make (max 1 (66 - String.length title)) '=')

(* ---- Bechamel helper: ns per run of a thunk ------------------------------ *)

let measure_ns (pairs : (string * (unit -> unit)) list) : (string * float) list =
  let open Bechamel in
  let tests =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) pairs
  in
  let grouped = Test.make_grouped ~name:"g" ~fmt:"%s %s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  List.map
    (fun (name, _) ->
      let full = "g " ^ name in
      let est = Hashtbl.find results full in
      let ns =
        match Analyze.OLS.estimates est with
        | Some (v :: _) -> v
        | _ -> Float.nan
      in
      (name, ns))
    pairs

(* ---- common engine runners ---------------------------------------------- *)

let dc = Fpvm.Engine.default_config

let cfg ?(approach = dc.approach) ?(cost = dc.cost) ?(deployment = dc.deployment)
    ?(gc_interval = dc.gc_interval) ?(incremental_gc = dc.incremental_gc)
    ?(max_trace_len = dc.max_trace_len) ?(use_plans = dc.use_plans)
    ?(use_jit = dc.use_jit) ?(jit_threshold = dc.jit_threshold)
    ?(use_fpa = dc.use_fpa) ?(oracle = dc.oracle) () =
  { dc with approach; cost; deployment; gc_interval; incremental_gc;
    max_trace_len; use_plans; use_jit; jit_threshold; use_fpa; oracle }

let workloads_fig9 =
  [ "miniAero"; "Enzo(astro)"; "lorenz"; "NAS CG"; "fbench"; "three-body" ]

let get name =
  match W.find name with Some e -> e | None -> failwith ("no workload " ^ name)

let gc_name inc = if inc then "incremental" else "full"

(* ---- assertions --------------------------------------------------------- *)

(* The running experiment's failed assertions: the harness exits 1 after
   an experiment that failed any. *)
let failures = ref 0

(* Unless [ok], count a failure and print "FAIL <message>". *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        printf "FAIL %s\n%!" msg
      end)
    fmt

(* ---- port matrices ------------------------------------------------------ *)

(* The five arithmetic ports every port matrix runs, labelled as
   BENCH_telemetry.json names them. *)
let ports =
  Fleet.Port.
    [ ("vanilla", Vanilla); ("mpfr-200", Mpfr 200); ("posit", Posit 32);
      ("interval", Interval); ("slash", Slash 64) ]

(* [f label port incremental_gc] for each of [ps] in both GC modes. *)
let gc_matrix ps f =
  List.concat_map
    (fun (label, port) -> List.map (f label port) [ true; false ])
    ps

(* Run [prog] on driver [d] with [tel]'s collectors attached, then land
   their gauges in the result's stats. *)
let observed ?facts d tel ~config prog =
  let r =
    d.Fleet.d_run ?facts ~instrument:(Telemetry.attach tel) ~config prog
  in
  Telemetry.finalize tel r.Fpvm.Engine.stats;
  r

(* ---- BENCH documents ---------------------------------------------------- *)

module J = Fpvm.Json

(* [x] as printf's [%.*f] ([fixed]) or [%.*e] ([sci]) prints it: each
   document keeps the precision its figures have always been given. *)
let fixed p x = J.Float (float_of_string (Printf.sprintf "%.*f" p x))
let sci p x = J.Float (float_of_string (Printf.sprintf "%.*e" p x))

(* Write a BENCH document (the members of its top-level object): one line
   per member and per element of a top-level array, so a regenerated file
   diffs row by row. *)
let write_bench file members =
  let oc = open_out file in
  let last = List.length members - 1 in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      let key = J.to_string (J.Str k) and comma = if i < last then "," else "" in
      match v with
      | J.Arr (_ :: _ as items) ->
          Printf.fprintf oc "  %s:[\n    %s\n  ]%s\n" key
            (String.concat ",\n    " (List.map J.to_string items))
            comma
      | v -> Printf.fprintf oc "  %s:%s%s\n" key (J.to_string v) comma)
    members;
  output_string oc "}\n";
  close_out oc;
  printf "\nwrote %s\n" file

(* ---- Figure 3: the four approaches -------------------------------------- *)

let quiet_src : Fpvm_ir.Ast.program =
  let open Fpvm_ir.Ast in
  { name = "quiet";
    decls = [ Fscalar ("x", 0.0); Iscalar ("k", 0) ];
    body =
      [ For ("k", i 0, i 2000, [ Fset ("x", fv "x" +: f 1.0) ]);
        Print_f (fv "x") ] }

let fig3 () =
  hr "Figure 3: comparison of the four FPVM approaches (measured)";
  printf
    "Two programs under each approach (Vanilla arithmetic, R815 model):\n\
     - 'quiet' never raises FP events (exact integer-valued arithmetic),\n\
    \  exposing overhead paid when alternative arithmetic is NOT involved.\n\
     - 'lorenz' promotes on nearly every operation, exposing overhead when\n\
    \  alternative arithmetic IS involved.\n\n";
  let quiet = Fpvm_ir.Codegen.compile_program quiet_src in
  let quiet_instr = Fpvm_ir.Codegen.compile_program ~mode:`Instrumented quiet_src in
  let lorenz = W.Lorenz.program ~steps:500 () in
  let lorenz_instr = W.Lorenz.program ~steps:500 ~mode:`Instrumented () in
  let native_q = Fpvm.Engine.run_native quiet in
  let native_l = Fpvm.Engine.run_native lorenz in
  printf "%-28s %14s %14s\n" "approach" "quiet ovhd" "lorenz ovhd";
  let row name rq rl =
    printf "%-28s %13.2fx %13.2fx\n" name
      (float_of_int rq.Fpvm.Engine.cycles /. float_of_int native_q.Fpvm.Engine.cycles)
      (float_of_int rl.Fpvm.Engine.cycles /. float_of_int native_l.Fpvm.Engine.cycles)
  in
  row "trap-and-emulate"
    (E_vanilla.run ~config:(cfg ()) quiet)
    (E_vanilla.run ~config:(cfg ()) lorenz);
  row "trap-and-patch"
    (E_vanilla.run ~config:(cfg ~approach:Fpvm.Engine.Trap_and_patch ()) quiet)
    (E_vanilla.run ~config:(cfg ~approach:Fpvm.Engine.Trap_and_patch ()) lorenz);
  row "static binary transform"
    (E_vanilla.run ~config:(cfg ~approach:Fpvm.Engine.Static_transform ()) quiet)
    (E_vanilla.run ~config:(cfg ~approach:Fpvm.Engine.Static_transform ()) lorenz);
  row "compiler (IR) transform"
    (E_vanilla.run ~config:(cfg ~approach:Fpvm.Engine.Static_transform ()) quiet_instr)
    (E_vanilla.run ~config:(cfg ~approach:Fpvm.Engine.Static_transform ()) lorenz_instr);
  printf
    "\nExpected shape: trap-and-emulate is free when nothing promotes and\n\
     worst when everything does; patched/static/compiler variants pay a\n\
     small always-on check but avoid kernel traps when promotion is hot.\n"

(* ---- Section 3.2: trap-and-patch proof of concept ------------------------ *)

let patch_poc () =
  hr "Section 3.2 PoC: patch+handler vs trap for one addsd site";
  let c = CM.r815 in
  let trap_cost = CM.delivery_cost c Trapkern.User_signal in
  let patch_hit = c.CM.patch_check + c.CM.emu_dispatch in
  let patch_miss = c.CM.patch_check in
  printf "per-execution cycle costs at one instruction site (R815 model):\n";
  printf "  %-44s %8d\n" "hardware trap delivery (to user handler)" trap_cost;
  printf "  %-44s %8d\n" "patch: checks pass (no alt arithmetic)" patch_miss;
  printf "  %-44s %8d\n" "patch: checks fail -> handler + emulate entry" patch_hit;
  printf
    "\ncrossover: the patch wins once the site faults on more than %.4f%% of visits\n"
    (100.0 *. float_of_int patch_miss /. float_of_int trap_cost);
  printf "\n%-22s %16s %16s\n" "boxed-visit fraction" "trap-and-emulate"
    "trap-and-patch";
  List.iter
    (fun permille ->
      let frac = float_of_int permille /. 1000.0 in
      let te = frac *. float_of_int (trap_cost + c.CM.emu_dispatch) in
      let tp =
        float_of_int patch_miss +. (frac *. float_of_int c.CM.emu_dispatch)
      in
      printf "%20.1f%% %15.0fc %15.0fc%s\n" (100.0 *. frac) te tp
        (if te < tp then "   (emulate wins)" else "   (patch wins)"))
    [ 0; 1; 2; 5; 10; 50; 100; 500; 1000 ];
  let prog = W.Lorenz.program ~steps:400 () in
  let te = E_vanilla.run ~config:(cfg ()) prog in
  let tp = E_vanilla.run ~config:(cfg ~approach:Fpvm.Engine.Trap_and_patch ()) prog in
  printf
    "\nlive lorenz(400): trap-and-emulate %d kernel traps, %d cycles\n\
    \                  trap-and-patch    %d kernel traps, %d cycles\n"
    te.Fpvm.Engine.stats.Fpvm.Stats.fp_traps te.Fpvm.Engine.cycles
    tp.Fpvm.Engine.stats.Fpvm.Stats.fp_traps tp.Fpvm.Engine.cycles

(* ---- Figure 9 -------------------------------------------------------------- *)

let fig9 () =
  hr "Figure 9: avg cost of virtualizing an FP instruction (cycles, MPFR-200)";
  printf "%-12s %8s | %7s %7s %7s %7s %7s %7s %7s %7s\n" "code" "total" "hw"
    "kernel" "deliver" "decode" "bind" "emulate" "gc" "corr";
  List.iter
    (fun name ->
      let e = get name in
      let r = E_mpfr.run ~config:(cfg ()) (e.W.program W.Test) in
      let b = Fpvm.Stats.breakdown r.Fpvm.Engine.stats in
      printf "%-12s %8.0f | %7.0f %7.0f %7.0f %7.0f %7.0f %7.0f %7.0f %7.0f\n"
        e.W.name b.Fpvm.Stats.avg_total b.Fpvm.Stats.avg_hw
        b.Fpvm.Stats.avg_kernel b.Fpvm.Stats.avg_delivery
        b.Fpvm.Stats.avg_decode b.Fpvm.Stats.avg_bind b.Fpvm.Stats.avg_emulate
        b.Fpvm.Stats.avg_gc
        (b.Fpvm.Stats.avg_correctness +. b.Fpvm.Stats.avg_correctness_handler))
    workloads_fig9;
  printf
    "\nExpected shape (paper: 12k-24k cycles total): the delivery path\n\
     (hw+kernel+user) dominates, decode is amortized to noise by the cache,\n\
     correctness overhead is ~zero everywhere except the Enzo stand-in.\n"

(* ---- Figure 10 --------------------------------------------------------------- *)

let fig10 () =
  hr "Figure 10: garbage collector statistics";
  printf "%-12s %10s %10s %10s %12s %10s\n" "code" "passes" "freed" "alive"
    "latency(us)" "collected";
  List.iter
    (fun name ->
      let e = get name in
      let r = E_mpfr.run ~config:(cfg ~gc_interval:5000 ()) (e.W.program W.Test) in
      let s = r.Fpvm.Engine.stats in
      let pct =
        if s.Fpvm.Stats.boxes_allocated = 0 then 0.0
        else
          100.0 *. float_of_int s.Fpvm.Stats.gc_freed
          /. float_of_int s.Fpvm.Stats.boxes_allocated
      in
      printf "%-12s %10d %10d %10d %12.1f %9.1f%%\n" e.W.name
        s.Fpvm.Stats.gc_passes s.Fpvm.Stats.gc_freed s.Fpvm.Stats.gc_alive_last
        (1e6 *. s.Fpvm.Stats.gc_latency_s
        /. float_of_int (max 1 s.Fpvm.Stats.gc_passes))
        pct)
    workloads_fig9;
  printf
    "\nExpected shape (paper: >95%% of shadow values collected each pass):\n\
     the temporaries problem makes nearly every allocation garbage by the\n\
     next epoch; only live program state survives.\n"

(* ---- Figure 11 ----------------------------------------------------------------- *)

let fig11 ?(max_log2 = 14) () =
  hr "Figure 11: bigfloat (MPFR substitute) op latency vs precision";
  let clock_ghz = 2.1 in
  printf "(measured on the host with Bechamel, reported as cycles at %.1f GHz)\n\n"
    clock_ghz;
  printf "%6s %12s %12s %12s %12s\n" "bits" "add" "sub" "mul" "div";
  let results = ref [] in
  List.iter
    (fun lg ->
      let prec = 1 lsl lg in
      let a = B.sqrt ~prec:(prec + 8) (B.of_int 2) in
      let b = B.sqrt ~prec:(prec + 8) (B.of_int 3) in
      let tests =
        [ ("add", fun () -> ignore (B.add ~prec a b));
          ("sub", fun () -> ignore (B.sub ~prec a b));
          ("mul", fun () -> ignore (B.mul ~prec a b));
          ("div", fun () -> ignore (B.div ~prec a b)) ]
      in
      let ns = measure_ns tests in
      let cyc name = clock_ghz *. List.assoc name ns in
      results := (prec, (cyc "add", cyc "sub", cyc "mul", cyc "div")) :: !results;
      printf "%6d %12.0f %12.0f %12.0f %12.0f\n%!" prec (cyc "add") (cyc "sub")
        (cyc "mul") (cyc "div"))
    (List.init (max_log2 - 4) (fun k -> k + 5));
  let budget = 12000.0 in
  printf
    "\nAgainst a %.0f-cycle virtualization budget (Fig 9), each op starts to\n\
     dominate at the precision where its cost exceeds the budget:\n" budget;
  let sorted = List.rev !results in
  List.iter
    (fun (opname, sel) ->
      match List.find_opt (fun (_, t) -> sel t > budget) sorted with
      | Some (p, _) -> printf "  %-4s crosses at ~%d bits\n" opname p
      | None -> printf "  %-4s never crosses below 2^%d bits\n" opname max_log2)
    [ ("add", fun (a, _, _, _) -> a);
      ("sub", fun (_, s, _, _) -> s);
      ("mul", fun (_, _, m, _) -> m);
      ("div", fun (_, _, _, d) -> d) ];
  printf
    "\nExpected shape: flat below ~2^10 bits then superlinear growth, with\n\
     div >> mul > sub ~ add, so division crosses first (the paper reports\n\
     2^13 for division vs 2^18 for addition against its budget).\n"

(* ---- MPFR-port call latency at the evaluation precision -------------------- *)

(* Host microseconds per call of the bigfloat ops and libm functions the
   mpfr:200 port emulates, on arguments typical of the workloads (a
   200-bit significand, moderate magnitude). *)
let libm200 () =
  hr "bigfloat libm latency at prec 200 (host us/call)";
  let prec = 200 in
  let x = B.div ~prec (B.sqrt ~prec (B.of_int 2)) (B.of_int 3) in
  let y = B.add ~prec (B.of_int 7) x in
  let tests =
    [ ("add", fun () -> ignore (B.add ~prec x y));
      ("mul", fun () -> ignore (B.mul ~prec x y));
      ("div", fun () -> ignore (B.div ~prec x y));
      ("sqrt", fun () -> ignore (B.sqrt ~prec y));
      ("fma", fun () -> ignore (B.fma ~prec x y x));
      ("exp", fun () -> ignore (E.exp ~prec y));
      ("log", fun () -> ignore (E.log ~prec y));
      ("sin", fun () -> ignore (E.sin ~prec y));
      ("tan", fun () -> ignore (E.tan ~prec x));
      ("asin", fun () -> ignore (E.asin ~prec x));
      ("atan", fun () -> ignore (E.atan ~prec y)) ]
  in
  List.iter
    (fun (name, ns) -> printf "%-6s %10.2f\n%!" name (ns /. 1000.0))
    (measure_ns tests)

(* ---- Figure 12 -------------------------------------------------------------------- *)

let fig12 ?(deployment = Trapkern.User_signal) () =
  hr "Figure 12: wall-clock slowdown under FPVM (MPFR-200), by machine";
  printf "%-12s %-14s %10s %10s %10s\n" "Benchmarks" "Specifics" "R815" "7220"
    "R730xd";
  List.iter
    (fun (e : W.entry) ->
      let prog = e.W.program W.Test in
      let slow cost =
        let native = Fpvm.Engine.run_native ~cost prog in
        let r = E_mpfr.run ~config:(cfg ~cost ~deployment ()) prog in
        float_of_int r.Fpvm.Engine.cycles
        /. float_of_int native.Fpvm.Engine.cycles
      in
      printf "%-12s %-14s %9.0fx %9.0fx %9.0fx\n%!" e.W.name e.W.specifics
        (slow CM.r815) (slow CM.xeon7220) (slow CM.r730xd))
    W.all;
  printf
    "\nExpected shape (paper: 204x-12,169x): IS smallest (integer-dominated),\n\
     EP moderate, CG/MG/LU worst (nearly every dynamic instruction is a\n\
     rounding FP op).\n"

(* ---- Figure 13 ----------------------------------------------------------------------- *)

let fig13 () =
  hr "Figure 13: Lorenz under IEEE vs FPVM-Vanilla vs FPVM-MPFR";
  let steps = 2500 in
  let prog = W.Lorenz.program ~steps ~emit_every:128 () in
  let native = Fpvm.Engine.run_native prog in
  let vanilla = E_vanilla.run ~config:(cfg ()) prog in
  let mpfr = E_mpfr.run ~config:(cfg ()) prog in
  let traj s =
    let raw = Bytes.of_string s in
    Array.init
      (Bytes.length raw / 8)
      (fun k -> Int64.float_of_bits (Bytes.get_int64_le raw (8 * k)))
  in
  let ti = traj native.Fpvm.Engine.serialized in
  let tv = traj vanilla.Fpvm.Engine.serialized in
  let tm = traj mpfr.Fpvm.Engine.serialized in
  printf "vanilla == ieee trajectory: %b (the section 5.2 validation)\n\n"
    (ti = tv);
  printf "%8s %22s %22s %14s\n" "step" "IEEE x" "MPFR x" "|delta|";
  let npts = Array.length ti / 3 in
  for k = 0 to npts - 1 do
    let xi = ti.(3 * k) and xm = tm.(3 * k) in
    printf "%8d %22.14g %22.14g %14.6g\n" (k * 128) xi xm (Float.abs (xi -. xm))
  done;
  printf "\nfinal state (IEEE):\n%s" native.Fpvm.Engine.output;
  printf "final state (MPFR-200):\n%s" mpfr.Fpvm.Engine.output;
  printf
    "\nExpected shape: Vanilla is bit-identical to IEEE; the MPFR trajectory\n\
     diverges exponentially after ~1000 steps (chaos amplifies the rounding\n\
     differences) and ends at a different point of the attractor.\n"

(* ---- Figure 14 -------------------------------------------------------------------------- *)

let fig14 () =
  hr "Figure 14: exception delivery cost, user-level vs kernel-level";
  printf "%-10s %18s %18s %8s %18s\n" "machine" "user delivery"
    "kernel delivery" "ratio" "user->user (est.)";
  List.iter
    (fun c ->
      let u = CM.delivery_cost c Trapkern.User_signal in
      let k = CM.delivery_cost c Trapkern.Kernel_module in
      let uu = CM.delivery_cost c Trapkern.User_to_user in
      printf "%-10s %17dc %17dc %7.1fx %17dc\n" c.CM.name u k
        (float_of_int u /. float_of_int k)
        uu)
    CM.profiles;
  let prog = W.Lorenz.program ~steps:200 () in
  printf "\nlive lorenz(200) under each deployment (total cycles):\n";
  List.iter
    (fun d ->
      let name =
        match d with
        | Trapkern.User_signal -> "user signal"
        | Trapkern.Kernel_module -> "kernel module"
        | Trapkern.User_to_user -> "user->user"
      in
      let r = E_vanilla.run ~config:(cfg ~deployment:d ()) prog in
      printf "  %-14s %12d cycles (%d traps)\n" name r.Fpvm.Engine.cycles
        r.Fpvm.Engine.stats.Fpvm.Stats.fp_traps)
    [ Trapkern.User_signal; Trapkern.Kernel_module; Trapkern.User_to_user ];
  printf
    "\nExpected shape: kernel delivery 7-30x cheaper than user delivery\n\
     (paper Fig 14); the user->user 'pipeline interrupt' approaches the\n\
     cost of a mispredicted branch (section 6.2).\n"

(* ---- Section 5.2 --------------------------------------------------------------------------- *)

let validate () =
  hr "Section 5.2: validation (FPVM+Vanilla == native, all workloads)";
  printf
    "Each workload at test and S scale under three approaches x two GC\n\
     modes; output and serialized bytes must equal native's. Traps are the\n\
     default config's (trap-and-emulate, incremental GC).\n\n";
  printf "%-12s %5s %8s %8s %8s\n" "code" "scale" "traps" "corr" "match";
  let approaches =
    Fpvm.Engine.[ Trap_and_emulate; Trap_and_patch; Static_transform ]
  in
  let runs = ref 0 and matched = ref 0 in
  List.iter
    (fun (e : W.entry) ->
      List.iter
        (fun (scale, scale_name) ->
          let prog = e.W.program scale in
          let native = Fpvm.Engine.run_native prog in
          let vs =
            List.concat_map
              (fun approach ->
                List.map
                  (fun incremental_gc ->
                    E_vanilla.run ~config:(cfg ~approach ~incremental_gc ()) prog)
                  [ true; false ])
              approaches
          in
          let same (v : Fpvm.Engine.result) =
            native.Fpvm.Engine.output = v.Fpvm.Engine.output
            && native.Fpvm.Engine.serialized = v.Fpvm.Engine.serialized
          in
          let n = List.length vs and ok = List.length (List.filter same vs) in
          runs := !runs + n;
          matched := !matched + ok;
          check (ok = n) "%s at %s scale: %d of %d runs differ from native"
            e.W.name scale_name (n - ok) n;
          let v = List.hd vs in
          printf "%-12s %5s %8d %8d %5d/%d\n" e.W.name scale_name
            v.Fpvm.Engine.stats.Fpvm.Stats.fp_traps
            v.Fpvm.Engine.stats.Fpvm.Stats.correctness_traps ok n)
        [ (W.Test, "test"); (W.S, "S") ])
    W.all;
  printf "\n%d of %d runs equal native\n" !matched !runs

(* ---- Section 5.5 ----------------------------------------------------------------------------- *)

let count_lines path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let count_dir dir =
  try
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
    |> List.map (fun f -> count_lines (Filename.concat dir f))
    |> List.fold_left ( + ) 0
  with Sys_error _ -> 0

let loc () =
  hr "Section 5.5: lines of code by component (this reproduction)";
  let label = function
    | "core" -> "FPVM engine, ports, probes"
    | "analysis" -> "static analysis"
    | "machine" -> "VX64 machine substrate"
    | "ieee754" -> "softfloat IEEE-754 substrate"
    | "bignum" -> "bignum substrate"
    | "bigfloat" -> "bigfloat (MPFR substitute)"
    | "posit" -> "posit library"
    | "trapkern" -> "trap kernel"
    | "fpvm_ir" -> "DSL compiler and code generator"
    | "workloads" -> "workloads"
    | "replay" -> "record/replay and bisection"
    | "telemetry" -> "telemetry (numprof, flowrec)"
    | "fleet" -> "fleet serving"
    | d -> d
  in
  let row name n =
    printf "  %-50s %6d\n" name n;
    n
  in
  let libs =
    try
      Sys.readdir "lib" |> Array.to_list
      |> List.filter (fun d -> Sys.is_directory (Filename.concat "lib" d))
      |> List.sort compare
    with Sys_error _ -> []
  in
  let lib =
    List.fold_left
      (fun acc d ->
        acc
        + row
            (Printf.sprintf "%s (lib/%s)" (label d) d)
            (count_dir (Filename.concat "lib" d)))
      0 libs
  in
  let bin = row "command-line tools (bin)" (count_dir "bin") in
  let harness = row "bench harness (bench/main.ml)" (count_lines "bench/main.ml") in
  ignore (row "total: lib/, bin/ and bench/main.ml" (lib + bin + harness));
  ignore (row "tests (test)" (count_dir "test"));
  ignore (row "host-clock benchmark (bench/perf)" (count_dir "bench/perf"));
  printf
    "\n(paper: ~6,300 lines C/C++ trap-and-emulate, 1,484 lines Python static\n\
     analysis, ~350 lines per arithmetic port)\n";
  printf "our arithmetic ports: vanilla=%d mpfr=%d posit=%d lines\n"
    (count_lines "lib/core/alt_vanilla.ml")
    (count_lines "lib/core/alt_mpfr.ml")
    (count_lines "lib/core/alt_posit.ml")

(* ---- FPSpy reconnaissance (the HPDC'20 lineage, section 4.1) ---- *)

let fpspy () =
  hr "FPSpy profile: floating point events per workload (no emulation)";
  printf "%-12s %10s %10s %8s %8s %8s %8s %8s\n" "code" "fp insns" "traps"
    "rounded" "under" "over" "denorm" "invalid";
  List.iter
    (fun (e : W.entry) ->
      let r = Fpvm.Fpspy.run (e.W.program W.Test) in
      let p = r.Fpvm.Fpspy.profile in
      printf "%-12s %10d %10d %8d %8d %8d %8d %8d\n" e.W.name
        r.Fpvm.Fpspy.run.Fpvm.Engine.fp_insns p.Fpvm.Fpspy.total_traps
        p.Fpvm.Fpspy.rounded p.Fpvm.Fpspy.underflowed p.Fpvm.Fpspy.overflowed
        p.Fpvm.Fpspy.denormal p.Fpvm.Fpspy.invalid)
    W.all;
  printf
    "\nThis is the analyst's first step (and the FPVM trap-rate predictor):\n\
     the trap column divided by fp insns is the fraction of dynamic FP work\n\
     that FPVM would virtualize - compare Figure 12's slowdowns.\n"

(* ---- Section 5.4 extension: effects across all arithmetic systems ---- *)

module E_interval = Fpvm.Engine.Make (Fpvm.Alt_interval)

let effects () =
  hr "Section 5.4 extension: one binary, four arithmetic systems";
  let prog = W.Three_body.program ~steps:1500 ~dt:0.01 () in
  let last_line s =
    let lines = String.split_on_char '\n' (String.trim s) in
    List.nth lines (List.length lines - 1)
  in
  printf "three-body final total energy (last output line) per system:\n\n";
  let native = Fpvm.Engine.run_native prog in
  printf "  %-22s %s\n" "native IEEE double" (last_line native.Fpvm.Engine.output);
  let v = E_vanilla.run ~config:(cfg ()) prog in
  printf "  %-22s %s   (identical: %b)\n" "FPVM + Vanilla"
    (last_line v.Fpvm.Engine.output)
    (v.Fpvm.Engine.output = native.Fpvm.Engine.output);
  let m = E_mpfr.run ~config:(cfg ()) prog in
  printf "  %-22s %s\n" "FPVM + MPFR-200" (last_line m.Fpvm.Engine.output);
  let p = E_posit.run ~config:(cfg ()) prog in
  printf "  %-22s %s\n" "FPVM + posit<32,2>" (last_line p.Fpvm.Engine.output);
  let iv = E_interval.run ~config:(cfg ()) prog in
  printf "  %-22s %s   (interval midpoint)\n" "FPVM + interval"
    (last_line iv.Fpvm.Engine.output);
  printf
    "\nExpected shape: Vanilla reproduces IEEE exactly; MPFR-200 gives the\n\
     reference answer; posit32 lands nearby with its own rounding; the\n\
     interval system's midpoint tracks IEEE while its width (see the\n\
     interval test suite) bounds the accumulated rounding error.\n"

(* ---- ablations ---------------------------------------------------------------------------------- *)

let ablate_gc () =
  hr "Ablation: GC epoch length vs memory high-water (lorenz, MPFR-200)";
  let prog = W.Lorenz.program ~steps:800 () in
  printf "%12s %10s %12s %12s\n" "interval" "passes" "freed" "gc cycles";
  List.iter
    (fun interval ->
      let r = E_mpfr.run ~config:(cfg ~gc_interval:interval ()) prog in
      let s = r.Fpvm.Engine.stats in
      printf "%12d %10d %12d %12d\n" interval s.Fpvm.Stats.gc_passes
        s.Fpvm.Stats.gc_freed s.Fpvm.Stats.cyc_gc)
    [ 500; 2000; 8000; 32000; 128000 ];
  printf
    "\nExpected shape: longer epochs mean fewer passes (less scan work) but\n\
     more dead cells held between passes (section 4.1's memory pressure).\n"

let ablate_vsa () =
  hr "Ablation: static analysis precision (sinks patched vs loads proven)";
  printf "%-12s %10s %12s %12s %10s\n" "code" "sinks" "int loads"
    "proven safe" "precision";
  List.iter
    (fun (e : W.entry) ->
      let a = Fpvm.Vsa.analyze (e.W.program W.Test) in
      let total = a.Fpvm.Vsa.total_int_loads in
      printf "%-12s %10d %12d %12d %9.0f%%\n" e.W.name
        (List.length a.Fpvm.Vsa.sinks)
        total a.Fpvm.Vsa.proven_safe_loads
        (if total = 0 then 100.0
         else
           100.0 *. float_of_int a.Fpvm.Vsa.proven_safe_loads
           /. float_of_int total))
    W.all;
  printf
    "\nExpected shape: most integer loads proven safe; the Enzo stand-in\n\
     keeps unprovable sinks in its hot loop (cf. Fig 9 correctness column).\n"

let ablate_compiler_gc () =
  hr "Ablation: compiler-managed shadow freeing (section 3.4's GC advantage)";
  printf "%-28s %12s %12s %12s %12s\n" "build" "boxes" "eager frees"
    "gc freed" "gc cycles";
  let config = cfg ~approach:Fpvm.Engine.Static_transform ~gc_interval:2000 () in
  let row name prog =
    let r = E_mpfr.run ~config prog in
    let s = r.Fpvm.Engine.stats in
    printf "%-28s %12d %12d %12d %12d\n" name s.Fpvm.Stats.boxes_allocated
      s.Fpvm.Stats.eager_frees s.Fpvm.Stats.gc_freed s.Fpvm.Stats.cyc_gc
  in
  row "plain binary" (W.Lorenz.program ~steps:800 ());
  row "compiler (liveness hints)" (W.Lorenz.program ~steps:800 ~mode:`Instrumented ());
  printf
    "\nExpected shape: the compiler build frees most shadow values at their\n\
     statically-known death points, so the conservative GC has little left\n\
     to find (the paper's argument that IR-level FPVM can 'substantially\n\
     simplify garbage collection').\n"

let ablate_delivery () =
  hr "Ablation: projected Fig 12 slowdowns under section 6 delivery options";
  printf "%-12s %14s %14s %14s\n" "code" "user signal" "kernel module"
    "user->user";
  List.iter
    (fun name ->
      let e = get name in
      let prog = e.W.program W.Test in
      let native = Fpvm.Engine.run_native prog in
      let slow d =
        let r = E_mpfr.run ~config:(cfg ~deployment:d ()) prog in
        float_of_int r.Fpvm.Engine.cycles
        /. float_of_int native.Fpvm.Engine.cycles
      in
      printf "%-12s %13.0fx %13.0fx %13.0fx\n%!" e.W.name
        (slow Trapkern.User_signal)
        (slow Trapkern.Kernel_module)
        (slow Trapkern.User_to_user))
    workloads_fig9;
  printf
    "\nExpected shape: each delivery improvement removes its share of the\n\
     per-trap budget (section 6's argument for kernel and hardware support).\n"

(* ---- BENCH_overhead.json: trap coalescing + incremental GC ---------------- *)

(* Machine-readable evidence for the sequence-emulation / dirty-card GC
   optimization: every fig-9 workload under Trap_and_emulate + MPFR-200,
   seed configuration (single-step, full-scan GC) against the default
   (64-instruction traces, incremental GC), with bit-identical outputs
   asserted. The GC comparison runs separately with a short epoch so
   enough passes exist to amortize the periodic full scans. *)

let bench_json () =
  hr "BENCH_overhead.json: trace emulation + incremental GC evidence";
  let seed_cfg = cfg ~incremental_gc:false ~max_trace_len:1 () in
  let opt_cfg = cfg () in
  let delivery (s : Fpvm.Stats.t) =
    s.Fpvm.Stats.cyc_hw + s.Fpvm.Stats.cyc_kernel + s.Fpvm.Stats.cyc_delivery
  in
  let side (r : Fpvm.Engine.result) =
    let s = r.Fpvm.Engine.stats in
    J.Obj
      (J.ints
         [ ("cycles", r.Fpvm.Engine.cycles); ("delivery_cycles", delivery s);
           ("fp_traps", s.Fpvm.Stats.fp_traps);
           ("traps_avoided", s.Fpvm.Stats.traps_avoided);
           ("traces", s.Fpvm.Stats.traces) ]
      @ [ ("mean_trace_len", fixed 2 (Fpvm.Stats.mean_trace_len s)) ]
      @ J.ints
          [ ("trace_cycles", s.Fpvm.Stats.cyc_trace);
            ("gc_passes", s.Fpvm.Stats.gc_passes);
            ("gc_words_scanned", s.Fpvm.Stats.gc_words_scanned) ])
  in
  let trace_rows =
    List.map
      (fun name ->
        let e = get name in
        let prog = e.W.program W.Test in
        let rs = E_mpfr.run ~config:seed_cfg prog in
        let ro = E_mpfr.run ~config:opt_cfg prog in
        let ss = rs.Fpvm.Engine.stats and so = ro.Fpvm.Engine.stats in
        let identical =
          rs.Fpvm.Engine.output = ro.Fpvm.Engine.output
          && rs.Fpvm.Engine.serialized = ro.Fpvm.Engine.serialized
        in
        let speedup =
          float_of_int (delivery ss) /. float_of_int (max 1 (delivery so))
        in
        printf "%-12s delivery %9d -> %9d cycles (%.2fx)  traps %6d -> %6d  \
                mean trace %.1f  identical=%b\n"
          name (delivery ss) (delivery so) speedup ss.Fpvm.Stats.fp_traps
          so.Fpvm.Stats.fp_traps
          (Fpvm.Stats.mean_trace_len so)
          identical;
        J.Obj
          [ ("workload", J.Str name); ("bit_identical", J.Bool identical);
            ("delivery_speedup", fixed 3 speedup); ("seed", side rs);
            ("traced", side ro) ])
      workloads_fig9
  in
  (* GC words-per-pass comparison: short epochs, evaluation scale. *)
  let gc_rows =
    List.map
      (fun name ->
        let e = get name in
        let prog = e.W.program W.S in
        let gc_cfg inc fse =
          let c = cfg ~gc_interval:500 ~incremental_gc:inc () in
          { c with Fpvm.Engine.full_scan_every = fse }
        in
        let rf = E_vanilla.run ~config:(gc_cfg false 8) prog in
        let ri = E_vanilla.run ~config:(gc_cfg true 16) prog in
        let sf = rf.Fpvm.Engine.stats and si = ri.Fpvm.Engine.stats in
        let wpp (s : Fpvm.Stats.t) =
          float_of_int s.Fpvm.Stats.gc_words_scanned
          /. float_of_int (max 1 s.Fpvm.Stats.gc_passes)
        in
        let ratio = wpp sf /. wpp si in
        printf "%-12s gc words/pass %7.0f -> %7.0f (%.1fx)  freed %d == %d: %b\n"
          name (wpp sf) (wpp si) ratio sf.Fpvm.Stats.gc_freed
          si.Fpvm.Stats.gc_freed
          (sf.Fpvm.Stats.gc_freed = si.Fpvm.Stats.gc_freed);
        J.Obj
          [ ("workload", J.Str name); ("scan_reduction", fixed 2 ratio);
            ( "full",
              J.Obj
                (J.ints
                   [ ("gc_passes", sf.Fpvm.Stats.gc_passes);
                     ("gc_words_scanned", sf.Fpvm.Stats.gc_words_scanned);
                     ("gc_freed", sf.Fpvm.Stats.gc_freed);
                     ("gc_alive_last", sf.Fpvm.Stats.gc_alive_last) ]) );
            ( "incremental",
              J.Obj
                (J.ints
                   [ ("gc_passes", si.Fpvm.Stats.gc_passes);
                     ("gc_full_passes", si.Fpvm.Stats.gc_full_passes);
                     ("gc_words_scanned", si.Fpvm.Stats.gc_words_scanned);
                     ("gc_freed", si.Fpvm.Stats.gc_freed);
                     ("gc_alive_last", si.Fpvm.Stats.gc_alive_last) ]) ) ])
      (workloads_fig9 @ [ "NAS IS" ])
  in
  write_bench "BENCH_overhead.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "trap coalescing (sequence emulation) + write-barrier incremental GC"
      );
      ("arithmetic", J.Str "mpfr-200");
      ("approach", J.Str "trap_and_emulate");
      ("cost_model", J.Str "r815");
      ( "seed_config",
        J.Obj [ ("max_trace_len", J.Int 1); ("incremental_gc", J.Bool false) ] );
      ( "traced_config",
        J.Obj
          [ ("max_trace_len", J.Int 64); ("incremental_gc", J.Bool true);
            ("full_scan_every", J.Int 8) ] );
      ("trace_emulation", J.Arr trace_rows);
      ( "gc_comparison_config",
        J.Obj
          [ ("gc_interval", J.Int 500); ("full_scan_every", J.Int 16);
            ("scale", J.Str "S"); ("arithmetic", J.Str "vanilla") ] );
      ("incremental_gc", J.Arr gc_rows) ]

(* ---- record/replay: overhead, checkpoint cost, determinism --------------- *)

(* Evidence for lib/replay: recording cost on every fig-9 workload
   (modeled cycles must be *identical* — the probe layer charges
   nothing — and host wall-clock overhead is reported honestly),
   record->replay determinism, and checkpoint size/latency on lorenz.
   Writes BENCH_replay.json. *)

module RS = Replay.Session.Make (Fpvm.Alt_mpfr)

let bench_replay () =
  hr "BENCH_replay.json: record/replay overhead + checkpoint cost";
  let config = cfg () in
  let meta_of name =
    { Replay.Log.workload = name; scale = "test"; arith = "mpfr:200";
      config = "bench" }
  in
  let median3 f =
    let t () =
      let s = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. s)
    in
    let r, _warm = t () in
    let ts =
      List.sort compare
        (List.map
           (fun _ ->
             Gc.full_major ();
             snd (t ()))
           [ 1; 2; 3; 4; 5 ])
    in
    (r, List.nth ts 2)
  in
  let rows =
    List.map
      (fun name ->
        let e = get name in
        let prog = e.W.program W.Test in
        (* both sides prepare through the session, which analyzes [prog]
           once, so the timed runs differ by the recording alone *)
        let plain, t_plain =
          median3 (fun () -> RS.E.resume (RS.prepare ~config prog))
        in
        let rec_, t_rec =
          median3 (fun () ->
              RS.record ~checkpoint_every:0 ~meta:(meta_of name) ~config prog)
        in
        let r = rec_.Replay.Session.result in
        let cycles_identical =
          r.Fpvm.Engine.cycles = plain.Fpvm.Engine.cycles
          && Fpvm.Stats.fingerprint r.Fpvm.Engine.stats
             = Fpvm.Stats.fingerprint plain.Fpvm.Engine.stats
        in
        let replay_ok =
          match RS.replay ~config rec_.Replay.Session.log prog with
          | Replay.Session.Match rr ->
              rr.Fpvm.Engine.output = r.Fpvm.Engine.output
              && rr.Fpvm.Engine.serialized = r.Fpvm.Engine.serialized
          | Replay.Session.Diverged _ -> false
        in
        let events = Array.length rec_.Replay.Session.log.Replay.Log.events in
        let bytes = String.length rec_.Replay.Session.log_bytes in
        let wall_ovh = 100.0 *. (t_rec -. t_plain) /. t_plain in
        let us_per_event =
          1e6 *. (t_rec -. t_plain) /. float_of_int (max 1 events)
        in
        printf "%-12s %6d events %8d B  cycles identical=%b  replay=%b  \
                wall %+.1f%% (%.1f us/event)\n"
          name events bytes cycles_identical replay_ok wall_ovh us_per_event;
        check cycles_identical "%s: recording moved the modeled cycles" name;
        check replay_ok "%s: replay did not match the recording" name;
        J.Obj
          ([ ("workload", J.Str name) ]
          @ J.ints
              [ ("events", events); ("log_bytes", bytes);
                ("modeled_cycles_plain", plain.Fpvm.Engine.cycles);
                ("modeled_cycles_record", r.Fpvm.Engine.cycles) ]
          @ [ ( "cycle_overhead_pct",
                fixed 3
                  (100.0
                  *. float_of_int
                       (r.Fpvm.Engine.cycles - plain.Fpvm.Engine.cycles)
                  /. float_of_int plain.Fpvm.Engine.cycles) );
              ("wall_overhead_pct", fixed 1 wall_ovh);
              ("replay_matched", J.Bool replay_ok) ]))
      workloads_fig9
  in
  (* checkpoint cost on lorenz: record with and without checkpoints;
     the time delta over the checkpoint count is the per-checkpoint
     serialization latency. A mid-run checkpoint must restore and
     resume to the uninterrupted run's exact result. *)
  let prog = (get "lorenz").W.program W.Test in
  let meta = meta_of "lorenz" in
  let base, t0 =
    median3 (fun () -> RS.record ~checkpoint_every:0 ~meta ~config prog)
  in
  let ck, t1 =
    median3 (fun () -> RS.record ~checkpoint_every:50 ~meta ~config prog)
  in
  let n = List.length ck.Replay.Session.checkpoints in
  let total_bytes =
    List.fold_left
      (fun a (_, b) -> a + String.length b)
      0 ck.Replay.Session.checkpoints
  in
  let avg_bytes = float_of_int total_bytes /. float_of_int (max 1 n) in
  let lat_us = 1e6 *. (t1 -. t0) /. float_of_int (max 1 n) in
  let mid_seq, mid_blob = List.nth ck.Replay.Session.checkpoints (n / 2) in
  let resumed = RS.resume_from ~config prog mid_blob in
  let b = base.Replay.Session.result in
  let resume_identical =
    resumed.Fpvm.Engine.output = b.Fpvm.Engine.output
    && resumed.Fpvm.Engine.serialized = b.Fpvm.Engine.serialized
    && resumed.Fpvm.Engine.cycles = b.Fpvm.Engine.cycles
    && Fpvm.Stats.fingerprint resumed.Fpvm.Engine.stats
       = Fpvm.Stats.fingerprint b.Fpvm.Engine.stats
  in
  printf "\nlorenz checkpoints: %d taken, %d B total (%.0f B avg), \
          ~%.0f us each; restore@%d resume identical=%b\n"
    n total_bytes avg_bytes lat_us mid_seq resume_identical;
  check resume_identical "lorenz: restore@%d did not resume identically" mid_seq;
  write_bench "BENCH_replay.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str "deterministic record/replay + checkpoint/restore" );
      ("arithmetic", J.Str "mpfr-200");
      ( "config",
        J.Obj
          [ ("approach", J.Str "trap_and_emulate"); ("max_trace_len", J.Int 64);
            ("incremental_gc", J.Bool true) ] );
      ( "note",
        J.Str
          "modeled cycles are the acceptance metric: the probe layer charges \
           no cycles, so recording overhead in the simulated machine is \
           exactly 0; wall_overhead_pct is the host-side cost of digesting \
           and serializing events" );
      ("recording", J.Arr rows);
      ( "checkpoints",
        J.Obj
          [ ("workload", J.Str "lorenz"); ("every", J.Int 50); ("count", J.Int n);
            ("total_bytes", J.Int total_bytes); ("avg_bytes", fixed 0 avg_bytes);
            ("avg_latency_us", fixed 1 lat_us);
            ("mid_run_restore_identical", J.Bool resume_identical) ] ) ]

(* ---- BENCH_vsa.json: precision-tiered static analysis ------------------- *)

(* Evidence for the tiered VSA pipeline: per workload, the legacy
   flow-insensitive pass against the CFG/strided-interval/flow-taint
   pipeline (sinks and proven-safe loads), with three hard assertions:
   (1) on NAS CG, NAS MG and Enzo(astro) the new analysis proves
   strictly more loads safe than the legacy pass; (2) outputs under the
   new patching are bit-identical to native execution (vanilla); (3) the
   soundness oracle sees zero unpatched boxed-value loads across the
   suite in both GC modes (mpfr, so boxes actually circulate).

   The legacy pass is no longer part of the system. Its counts at test
   scale (sinks, proven-safe loads, iterations) are frozen here from its
   last run, so the baseline cannot drift. *)

let legacy_vsa =
  [ ("fbench", (0, 8, 1286));
    ("lorenz", (0, 8, 272));
    ("three-body", (116, 0, 3837));
    ("miniAero", (465, 0, 5460));
    ("NAS IS", (107, 0, 2342));
    ("NAS EP", (4, 50, 1281));
    ("NAS CG", (135, 0, 1512));
    ("NAS MG", (803, 0, 6942));
    ("NAS LU", (181, 0, 1665));
    ("Enzo(astro)", (114, 0, 1212)) ]

let bench_vsa () =
  hr "BENCH_vsa.json: precision-tiered static analysis";
  let strict_names = [ "NAS CG"; "NAS MG"; "Enzo(astro)" ] in
  printf "%-12s %22s %22s %9s %8s\n" "workload" "legacy sinks/proven"
    "tiered sinks/proven" "identical" "oracle";
  let rows =
    List.map
      (fun (e : W.entry) ->
        let prog = e.W.program W.Test in
        let lsinks, lproven, liters = List.assoc e.W.name legacy_vsa in
        let a = Fpvm.Vsa.analyze prog in
        let p = a.Fpvm.Vsa.pipeline in
        let nsinks = List.length p.Analysis.Pipeline.sinks in
        (* (2) bit-identical outputs under the new patching *)
        let native = Fpvm.Engine.run_native prog in
        let rv = E_vanilla.run ~config:(cfg ()) prog in
        let identical =
          rv.Fpvm.Engine.output = native.Fpvm.Engine.output
          && rv.Fpvm.Engine.serialized = native.Fpvm.Engine.serialized
        in
        check identical "%s: vanilla output differs from native" e.W.name;
        (* (3) oracle under mpfr, both GC modes *)
        let oracle_violations inc =
          let c = { (cfg ~incremental_gc:inc ()) with Fpvm.Engine.oracle = true } in
          let r = E_mpfr.run ~config:c prog in
          r.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads
        in
        let viol = oracle_violations true + oracle_violations false in
        check (viol = 0) "%s: oracle saw %d boxed loads" e.W.name viol;
        (* (1) strict precision improvement on the array workloads *)
        let strict = List.mem e.W.name strict_names in
        check
          ((not strict) || p.Analysis.Pipeline.proven_safe_loads > lproven)
          "%s: tiered proved %d, legacy %d (strict improvement required)"
          e.W.name p.Analysis.Pipeline.proven_safe_loads lproven;
        printf "%-12s %12d / %-7d %12d / %-7d %9b %8s\n%!" e.W.name lsinks
          lproven nsinks
          p.Analysis.Pipeline.proven_safe_loads identical
          (if viol = 0 then "pass" else "VIOLATED");
        J.Obj
          [ ("workload", J.Str e.W.name);
            ("strict_improvement_required", J.Bool strict);
            ( "legacy",
              J.Obj
                (J.ints
                   [ ("sinks", lsinks); ("proven_safe_loads", lproven);
                     ("iterations", liters) ]) );
            ( "tiered",
              J.Obj
                (J.ints
                   [ ("sinks", nsinks);
                     ("proven_safe_loads", p.Analysis.Pipeline.proven_safe_loads);
                     ("total_int_loads", p.Analysis.Pipeline.total_int_loads);
                     ( "trap_checks_elided",
                       p.Analysis.Pipeline.trap_checks_elided );
                     ("blocks", p.Analysis.Pipeline.n_blocks);
                     ("loop_heads", p.Analysis.Pipeline.n_loop_heads);
                     ("iterations", p.Analysis.Pipeline.iterations) ]) );
            ("bit_identical_output", J.Bool identical);
            ("oracle_boxed_loads", J.Int viol) ])
      W.all
  in
  write_bench "BENCH_vsa.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "precision-tiered VSA: legacy flow-insensitive pass vs CFG + \
           strided-interval + flow-sensitive-taint pipeline" );
      ("oracle_arithmetic", J.Str "mpfr-200");
      ("scale", J.Str "test");
      ("workloads", J.Arr rows) ]

(* ---- the differential matrix of the plans and jit benches --------------- *)

(* Each of [progs] on every port in both GC modes, under [on inc] and
   [off inc]: output and serialized bytes must agree. True if all do. *)
let differential what progs ~on ~off =
  List.for_all Fun.id
    (List.concat_map
       (fun (name, prog) ->
         gc_matrix ports (fun pname port inc ->
             let d = Fleet.port_driver port in
             let run config =
               let r = d.Fleet.d_run ~config prog in
               (r.Fpvm.Engine.output, r.Fpvm.Engine.serialized)
             in
             let same = run (on inc) = run (off inc) in
             check same "%s/%s/gc=%s: outputs differ %s on vs off" name pname
               (gc_name inc) what;
             same))
       progs)

(* ---- BENCH_plans.json: site-specialized emulation ------------------------ *)

(* Evidence for the binding-plan cache + shadow-temp elision, with four
   hard assertions (the CI ratchet):
   (1) plan hit rate >= 95% on NAS CG, NAS MG and Enzo(astro);
   (2) arena allocations strictly decrease with plans on (elision);
   (3) modeled bind + op_map-dispatch cycles drop >= 3x vs --no-plans;
   (4) outputs bit-identical, plans on vs off, across all five
       arithmetic ports and both GC modes, and the soundness oracle
       stays clean with elision active. *)

let bench_plans () =
  hr "BENCH_plans.json: binding-plan cache + shadow-temp elision";
  let strict_names = [ "NAS CG"; "NAS MG"; "Enzo(astro)" ] in
  let bind_disp (s : Fpvm.Stats.t) =
    s.Fpvm.Stats.cyc_bind + s.Fpvm.Stats.cyc_emu_dispatch
  in
  let hit_rate (s : Fpvm.Stats.t) =
    let total = s.Fpvm.Stats.plan_hits + s.Fpvm.Stats.plan_misses in
    if total = 0 then 0.0
    else 100.0 *. float_of_int s.Fpvm.Stats.plan_hits /. float_of_int total
  in
  let pair no_plans plans =
    J.Obj (J.ints [ ("no_plans", no_plans); ("plans", plans) ])
  in
  printf "%-12s %9s %14s %14s %9s %8s\n" "workload" "hit-rate"
    "bind+disp off" "bind+disp on" "ratio" "allocs";
  let rows =
    List.map
      (fun name ->
        let e = get name in
        let prog = e.W.program W.Test in
        let ron =
          E_mpfr.run ~config:(cfg ~max_trace_len:256 ~use_jit:false ()) prog
        in
        let roff =
          E_mpfr.run
            ~config:(cfg ~max_trace_len:256 ~use_plans:false ~use_jit:false ())
            prog
        in
        let son = ron.Fpvm.Engine.stats and soff = roff.Fpvm.Engine.stats in
        let hr_ = hit_rate son in
        (* The JIT-off runs measure the plan table alone: steps inside a
           superblock never look it up, so with the JIT on hits fall
           while misses must stay the same. *)
        let jit_misses =
          (E_mpfr.run ~config:(cfg ~max_trace_len:256 ()) prog)
            .Fpvm.Engine.stats.Fpvm.Stats.plan_misses
        in
        check
          (jit_misses = son.Fpvm.Stats.plan_misses)
          "%s: plan misses %d with the JIT on, %d without" name jit_misses
          son.Fpvm.Stats.plan_misses;
        let ratio =
          float_of_int (bind_disp soff) /. float_of_int (max 1 (bind_disp son))
        in
        (* (1) hit rate; (2) strict allocation decrease; (3) >= 3x *)
        check (hr_ >= 95.0) "%s: plan hit rate %.2f%% < 95%%" name hr_;
        check
          (son.Fpvm.Stats.boxes_allocated < soff.Fpvm.Stats.boxes_allocated)
          "%s: arena allocations %d (plans) !< %d (no plans)" name
          son.Fpvm.Stats.boxes_allocated soff.Fpvm.Stats.boxes_allocated;
        check (ratio >= 3.0) "%s: bind+dispatch only dropped %.2fx (< 3x)" name
          ratio;
        (* (4a) oracle clean with elision active *)
        let oc =
          { (cfg ~max_trace_len:256 ()) with Fpvm.Engine.oracle = true }
        in
        let ro = E_mpfr.run ~config:oc prog in
        let viol = ro.Fpvm.Engine.stats.Fpvm.Stats.oracle_boxed_loads in
        check (viol = 0) "%s: oracle saw %d boxed loads with plans on" name viol;
        printf "%-12s %8.2f%% %13dc %13dc %8.1fx %5d->%d\n%!" name hr_
          (bind_disp soff) (bind_disp son) ratio
          soff.Fpvm.Stats.boxes_allocated son.Fpvm.Stats.boxes_allocated;
        J.Obj
          ([ ("workload", J.Str name) ]
          @ J.ints
              [ ("plan_hits", son.Fpvm.Stats.plan_hits);
                ("plan_misses", son.Fpvm.Stats.plan_misses) ]
          @ [ ("plan_hit_rate_pct", fixed 3 hr_) ]
          @ J.ints
              [ ("temps_elided", son.Fpvm.Stats.temps_elided);
                ("temps_materialized", son.Fpvm.Stats.temps_materialized);
                ("allocs_avoided", Fpvm.Stats.allocs_avoided son) ]
          @ [ ( "arena_allocs",
                pair soff.Fpvm.Stats.boxes_allocated
                  son.Fpvm.Stats.boxes_allocated );
              ( "bind_dispatch_cycles",
                J.Obj
                  (J.ints
                     [ ("no_plans", bind_disp soff); ("plans", bind_disp son) ]
                  @ [ ("reduction", fixed 3 ratio) ]) );
              ("plan_cycles", J.Int son.Fpvm.Stats.cyc_plan);
              ( "total_cycles",
                pair roff.Fpvm.Engine.cycles ron.Fpvm.Engine.cycles );
              ("oracle_boxed_loads", J.Int viol) ]))
      strict_names
  in
  (* (4b) bit-identical outputs, plans on vs off: all five arithmetic
     ports, both GC modes, every workload. *)
  printf "\ndifferential (plans on == off), 5 ports x 2 GC modes:\n";
  let differential_ok =
    differential "plans"
      (List.map (fun name -> (name, (get name).W.program W.Test)) strict_names)
      ~on:(fun inc -> cfg ~incremental_gc:inc ~max_trace_len:256 ())
      ~off:(fun inc ->
        cfg ~incremental_gc:inc ~max_trace_len:256 ~use_plans:false ())
  in
  printf "  all bit-identical: %b\n" differential_ok;
  (* per-profile bind+dispatch share, for EXPERIMENTS.md *)
  printf "\nper-profile bind+dispatch share of FPVM cycles (NAS CG):\n";
  let profile_rows =
    List.map
      (fun cost ->
        let prog = (get "NAS CG").W.program W.Test in
        let son =
          (E_mpfr.run ~config:(cfg ~cost ~max_trace_len:256 ~use_jit:false ())
             prog)
            .Fpvm.Engine.stats
        in
        let soff =
          (E_mpfr.run
             ~config:
               (cfg ~cost ~max_trace_len:256 ~use_plans:false ~use_jit:false ())
             prog)
            .Fpvm.Engine.stats
        in
        let share (s : Fpvm.Stats.t) =
          100.0
          *. float_of_int (bind_disp s)
          /. float_of_int (max 1 (Fpvm.Stats.total_fpvm_cycles s))
        in
        printf "  %-10s no-plans %9dc (%5.1f%%)  plans %9dc (%5.1f%%)\n"
          cost.CM.name (bind_disp soff) (share soff) (bind_disp son)
          (share son);
        let side s =
          J.Obj
            [ ("bind_dispatch", J.Int (bind_disp s));
              ("share_pct", fixed 2 (share s)) ]
        in
        J.Obj
          [ ("profile", J.Str cost.CM.name); ("no_plans", side soff);
            ("plans", side son) ])
      CM.profiles
  in
  write_bench "BENCH_plans.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "site-specialized emulation: binding-plan cache + compiled \
           superops + in-trace shadow-temp elision" );
      ("arithmetic", J.Str "mpfr-200");
      ("scale", J.Str "test");
      ("max_trace_len", J.Int 256);
      ( "ratchet",
        J.Obj
          [ ("plan_hit_rate_min_pct", J.Float 95.0);
            ("bind_dispatch_reduction_min", J.Float 3.0);
            ("arena_allocs_strictly_reduced", J.Bool true) ] );
      ("workloads", J.Arr rows);
      ("differential_bit_identical", J.Bool differential_ok);
      ("profile_bind_dispatch", J.Arr profile_rows) ]

(* ---- BENCH_telemetry.json: observability subsystem ----------------------- *)

(* Evidence for lib/telemetry: the stats fingerprint is identical with
   telemetry on vs off on every arithmetic port and both GC modes (the
   collectors only read probe payloads), the per-site profile plus the
   run-global GC bucket reproduces Stats.total_fpvm_cycles with zero
   remainder, the shadow numerical check reports zero error on the
   vanilla port (its expected-value model *is* the vanilla port) and a
   nonzero error under 8-bit MPFR, and the per-cost-model hot-site
   tables quoted in EXPERIMENTS.md. Writes BENCH_telemetry.json. *)

let bench_telemetry () =
  hr "BENCH_telemetry.json: tracing + hot-site profiles + shadow check";
  let lorenz = (get "lorenz").W.program W.Test in
  (* full instrumentation: ring trace + profile + shadow numerical check *)
  let full () = Telemetry.create ~trace:true ~profile:true ~shadow:true () in
  let profile (tel : Telemetry.t) =
    match tel.Telemetry.profile with Some p -> p | None -> assert false
  in
  (* 1. Determinism: fingerprint identity telemetry on vs off, every
     port x both GC modes. *)
  let fp_rows =
    gc_matrix ports (fun name port inc ->
        let d = Fleet.port_driver port in
        let config = cfg ~incremental_gc:inc () in
        let off = d.Fleet.d_run ~config lorenz in
        let on = observed d (full ()) ~config lorenz in
        let identical =
          Fpvm.Stats.fingerprint off.Fpvm.Engine.stats
          = Fpvm.Stats.fingerprint on.Fpvm.Engine.stats
        in
        check identical "fingerprint on != off, %s incremental_gc=%b" name inc;
        J.Obj
          [ ("port", J.Str name); ("incremental_gc", J.Bool inc);
            ("identical", J.Bool identical) ])
  in
  (* 2. Exactness: per-site buckets + GC bucket == total_fpvm_cycles. *)
  let rec_rows =
    List.map
      (fun (name, port) ->
        let tel = full () in
        let r =
          observed (Fleet.port_driver port) tel ~config:(cfg ()) lorenz
        in
        let total = Fpvm.Stats.total_fpvm_cycles r.Fpvm.Engine.stats in
        let tracked = Telemetry.Profile.tracked_cycles (profile tel) in
        check (tracked = total) "profile of %s tracks %d of %d cycles" name
          tracked total;
        J.Obj
          (("port", J.Str name)
          :: J.ints
               [ ("total_fpvm_cycles", total); ("tracked_cycles", tracked);
                 ("remainder", total - tracked) ]))
      ports
  in
  (* 3. Shadow numerical check: zero on vanilla by construction,
     nonzero once MPFR drops to an 8-bit significand. *)
  let max_err port =
    let tel = full () in
    ignore (observed (Fleet.port_driver port) tel ~config:(cfg ()) lorenz);
    ( tel,
      match tel.Telemetry.numprof with
      | Some np -> Telemetry.Numprof.max_rel_err np
      | None -> Float.nan )
  in
  let tel_v, err_vanilla = max_err Fleet.Port.Vanilla in
  let _, err_mpfr8 = max_err (Fleet.Port.Mpfr 8) in
  check (err_vanilla = 0.0) "shadow check: vanilla max_rel_err %g <> 0"
    err_vanilla;
  check (err_mpfr8 > 0.0) "shadow check: mpfr-8 max_rel_err %g not > 0"
    err_mpfr8;
  printf "shadow check: vanilla %.3e, mpfr-8 %.3e\n" err_vanilla err_mpfr8;
  (* 4. Ring trace exports a well-formed Chrome trace. *)
  let trace_stats =
    match tel_v.Telemetry.trace with
    | Some tr ->
        let body = J.to_string (Telemetry.Trace.export_json tr) in
        let rec_n = Telemetry.Trace.recorded tr in
        check
          (rec_n > 0 && String.length body > 2 && body.[0] = '{')
          "trace export: no events recorded, or an empty JSON body";
        J.Obj
          (J.ints
             [ ("recorded", rec_n); ("dropped", Telemetry.Trace.dropped tr);
               ("bytes", String.length body) ])
    | None -> J.Obj []
  in
  (* 5. Hot-site tables, one per cost model (the EXPERIMENTS.md data). *)
  let mpfr = Fleet.port_driver (Fleet.Port.Mpfr 200) in
  let hot_rows =
    List.map
      (fun (cost : CM.t) ->
        let tel = full () in
        let r = observed mpfr tel ~config:(cfg ~cost ()) lorenz in
        let s = r.Fpvm.Engine.stats in
        let total = Fpvm.Stats.total_fpvm_cycles s in
        let p = profile tel in
        printf "\nhot sites, lorenz / mpfr-200 / %s:\n" cost.CM.name;
        let bb = Buffer.create 1024 in
        Telemetry.Profile.report_text ~n:5 p s bb;
        print_string (Buffer.contents bb);
        let sites =
          List.map
            (fun (i, site) ->
              let c = Telemetry.Profile.site_cycles site in
              J.Obj
                [ ("site", J.Int i); ("cycles", J.Int c);
                  ( "pct",
                    fixed 2
                      (100.0 *. float_of_int c /. float_of_int (max 1 total)) );
                  ("traps", J.Int site.Telemetry.Profile.traps);
                  ("emulations", J.Int site.Telemetry.Profile.emulations) ])
            (Telemetry.Profile.top p 5)
        in
        J.Obj
          [ ("cost_model", J.Str cost.CM.name);
            ("total_fpvm_cycles", J.Int total); ("sites", J.Arr sites) ])
      CM.profiles
  in
  write_bench "BENCH_telemetry.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "telemetry: ring-buffer event tracing + per-site hot-spot profiles \
           + shadow numerical-quality check" );
      ("workload", J.Str "lorenz");
      ("scale", J.Str "test");
      ("fingerprint_identity", J.Arr fp_rows);
      ("profile_reconciliation", J.Arr rec_rows);
      ( "shadow_check",
        J.Obj
          [ ("vanilla_max_rel_err", sci 6 err_vanilla);
            ("mpfr_prec8_max_rel_err", sci 6 err_mpfr8) ] );
      ("trace", trace_stats);
      ("hot_sites", J.Arr hot_rows) ]

(* ---- BENCH_jit.json: trace JIT superblocks ------------------------------- *)

(* Evidence for the trace JIT: per-iteration window cost (interpretive
   trace stepping + per-visit bind/dispatch + compiled stepping) drops
   at least 2x at steady state against the plans-only engine on at
   least 3 workloads, and the program-visible results stay
   bit-identical on every arithmetic port and both GC modes.

   Steady state is measured as the marginal cost of doubling the
   iteration count: cost(2N) - cost(N) cancels the shared warmup
   (compiles, cold plan misses, recording windows), leaving N
   iterations of hot-loop execution only. *)

let bench_jit () =
  hr "BENCH_jit.json: recorded paths compiled, with trace linking";
  let window_cost (s : Fpvm.Stats.t) =
    s.Fpvm.Stats.cyc_trace + s.Fpvm.Stats.cyc_bind
    + s.Fpvm.Stats.cyc_emu_dispatch + s.Fpvm.Stats.cyc_jit
  in
  let jcfg ?(use_jit = true) () = cfg ~use_jit ~jit_threshold:2 () in
  (* (name, iterations N, program at k*N iterations) *)
  let subjects =
    [ ("lorenz", 400,
       fun k -> W.Lorenz.program ~steps:(k * 400) ());
      ("three-body", 200,
       fun k -> W.Three_body.program ~steps:(k * 200) ());
      ("NAS CG", 4,
       fun k -> W.Nas_cg.program ~n:10 ~cg_iters:(k * 4) ());
      ("fbench", 20,
       fun k -> W.Fbench.program ~iterations:(k * 20) ()) ]
  in
  printf "%-12s %14s %14s %9s %28s\n" "workload" "per-iter off"
    "per-iter jit" "ratio" "compiles/hits/links/exits";
  let passed = ref 0 in
  let rows =
    List.map
      (fun (name, iters, prog) ->
        let marginal use_jit =
          let s1 =
            (E_mpfr.run ~config:(jcfg ~use_jit ()) (prog 1)).Fpvm.Engine.stats
          and s2 =
            (E_mpfr.run ~config:(jcfg ~use_jit ()) (prog 2)).Fpvm.Engine.stats
          in
          (window_cost s2 - window_cost s1, s2)
        in
        let moff, _ = marginal false and mon, son = marginal true in
        let per_off = float_of_int moff /. float_of_int iters
        and per_on = float_of_int mon /. float_of_int iters in
        let ratio = per_off /. Float.max 1.0 per_on in
        if ratio >= 2.0 then incr passed;
        check (son.Fpvm.Stats.jit_hits > 0) "%s: jit never hit a compiled block"
          name;
        printf "%-12s %13.1fc %13.1fc %8.2fx %13d/%d/%d/%d\n%!" name per_off
          per_on ratio son.Fpvm.Stats.jit_compiles son.Fpvm.Stats.jit_hits
          son.Fpvm.Stats.jit_links son.Fpvm.Stats.jit_guard_exits;
        J.Obj
          [ ("workload", J.Str name); ("iterations", J.Int iters);
            ( "steady_state_window_cycles_per_iter",
              J.Obj
                [ ("plans_only", fixed 3 per_off); ("jit", fixed 3 per_on);
                  ("reduction", fixed 3 ratio) ] );
            ( "jit",
              J.Obj
                (J.ints
                   [ ("compiles", son.Fpvm.Stats.jit_compiles);
                     ("hits", son.Fpvm.Stats.jit_hits);
                     ("links", son.Fpvm.Stats.jit_links);
                     ("guard_exits", son.Fpvm.Stats.jit_guard_exits);
                     ("invalidations", son.Fpvm.Stats.jit_invalidations);
                     ("cyc_jit", son.Fpvm.Stats.cyc_jit) ]) ) ])
      subjects
  in
  check (!passed >= 3) "only %d workload(s) reached the 2x ratchet (need 3)"
    !passed;
  (* bit-identical outputs, jit on vs off: all five arithmetic ports,
     both GC modes, every registered workload *)
  printf "\ndifferential (jit on == off), 5 ports x 2 GC modes:\n";
  let differential_ok =
    differential "jit"
      (List.map (fun (e : W.entry) -> (e.W.name, e.W.program W.Test)) W.all)
      ~on:(fun inc -> cfg ~incremental_gc:inc ~use_jit:true ~jit_threshold:2 ())
      ~off:(fun inc -> cfg ~incremental_gc:inc ~use_jit:false ())
  in
  printf "  all bit-identical: %b\n" differential_ok;
  write_bench "BENCH_jit.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "trace JIT: the recorded paths of hot traces compiled into \
           guarded blocks with trace linking" );
      ("arithmetic", J.Str "mpfr-200");
      ("scale", J.Str "test");
      ("baseline", J.Str "plans-only interpreter (use_jit=false)");
      ("jit_threshold", J.Int 2);
      ("max_trace_len", J.Int 64);
      ( "method",
        J.Str
          "steady state = (cost(2N) - cost(N)) / N; window cost = cyc_trace \
           + cyc_bind + cyc_emu_dispatch + cyc_jit" );
      ( "ratchet",
        J.Obj
          [ ("window_cycle_reduction_min", J.Float 2.0);
            ("min_workloads", J.Int 3) ] );
      ("workloads", J.Arr rows);
      ("workloads_at_2x", J.Int !passed);
      ("differential_bit_identical", J.Bool differential_ok) ]

(* ---- fleet serving: domain scaling + per-guest bit-identity ---------------------------------------- *)

(* The fpvm_serve perf story. Two fleets:

   Scaling: 4x lorenz-mpfr + 4x "NAS CG"-mpfr guests served at 1, 2
   and 4 domains, the 2/4-domain partitions weighted by the per-guest
   cycles measured in the 1-domain run (the LPT profiling pass).
   Throughput is modeled-cycle makespan (worst domain's guest cycles +
   switch charges); ratchet: >= 3.0x at 4 domains vs 1.

   Identity: 5 arithmetic ports x 2 GC modes on lorenz, served at 2
   domains, every guest's stats fingerprint and output compared
   bit-for-bit against Fleet.run_solo (== fpvm_run solo). *)

let bench_fleet () =
  hr "BENCH_fleet.json: fleet serving across domains";
  let mpfr_guest i workload =
    { Fleet.g_id = i; g_workload = workload; g_scale = W.Test;
      g_port = Fleet.Port.Mpfr 200;
      g_config = Fpvm.Engine.default_config }
  in
  let scaling_guests =
    List.init 8 (fun i ->
        mpfr_guest i (if i < 4 then "lorenz" else "NAS CG"))
  in
  let batch = 8 in
  let f1 = Fleet.serve ~domains:1 ~batch scaling_guests in
  let weights =
    Array.of_list (List.map (fun r -> r.Fleet.r_cycles) f1.Fleet.f_results)
  in
  let runs =
    (1, f1)
    :: List.map
         (fun d -> (d, Fleet.serve ~domains:d ~batch ~weights scaling_guests))
         [ 2; 4 ]
  in
  let scaling (f : Fleet.fleet_result) =
    float_of_int f1.Fleet.f_makespan /. float_of_int f.Fleet.f_makespan
  in
  printf "scaling fleet: 4x lorenz-mpfr + 4x NAS-CG-mpfr, batch %d\n" batch;
  printf "%8s %16s %10s %10s\n" "domains" "makespan" "scaling" "switches";
  let scaling_rows =
    List.map
      (fun (d, (f : Fleet.fleet_result)) ->
        printf "%8d %15dc %9.2fx %10d\n%!" d f.Fleet.f_makespan (scaling f)
          f.Fleet.f_switches;
        (* fleet results must not depend on how many domains served them *)
        List.iter2
          (fun (a : Fleet.guest_result) (b : Fleet.guest_result) ->
            check
              (a.Fleet.r_fingerprint = b.Fleet.r_fingerprint)
              "guest %d: fingerprint differs at %d domains"
              a.Fleet.r_guest.Fleet.g_id d)
          f1.Fleet.f_results f.Fleet.f_results;
        J.Obj
          [ ("domains", J.Int d); ("makespan", J.Int f.Fleet.f_makespan);
            ("scaling", fixed 3 (scaling f));
            ("switches", J.Int f.Fleet.f_switches);
            ("facts_hits", J.Int f.Fleet.f_facts_hits);
            ("facts_misses", J.Int f.Fleet.f_facts_misses) ])
      runs
  in
  let scaling4 = scaling (List.assoc 4 runs) in
  check (scaling4 >= 3.0) "%.2fx at 4 domains (ratchet 3.0x)" scaling4;
  (* identity fleet: every port, both GC modes, vs solo *)
  let identity_guests =
    gc_matrix ports (fun _ port inc -> (port, inc))
    |> List.mapi (fun i (port, inc) ->
           { Fleet.g_id = i; g_workload = "lorenz"; g_scale = W.Test;
             g_port = port; g_config = cfg ~incremental_gc:inc () })
  in
  let fid = Fleet.serve ~domains:2 ~batch:4 identity_guests in
  let n_identity = List.length fid.Fleet.f_results in
  printf
    "\nidentity fleet: 5 ports x 2 GC modes on lorenz, 2 domains (%d guests)\n"
    n_identity;
  let identical = ref 0 in
  let identity_rows =
    List.map
      (fun (r : Fleet.guest_result) ->
        let g = r.Fleet.r_guest in
        let gc =
          if g.Fleet.g_config.Fpvm.Engine.incremental_gc then "inc" else "full"
        in
        let solo = Fleet.run_solo g in
        let ok =
          Fpvm.Stats.fingerprint solo.Fpvm.Engine.stats = r.Fleet.r_fingerprint
          && solo.Fpvm.Engine.output = r.Fleet.r_output
          && solo.Fpvm.Engine.serialized = r.Fleet.r_serialized
        in
        if ok then incr identical;
        check ok "guest %d (%s, gc=%s): fleet != solo" g.Fleet.g_id
          (Fleet.guest_arith g) gc;
        J.Obj
          [ ("arith", J.Str (Fleet.guest_arith g)); ("gc", J.Str gc);
            ("domain", J.Int r.Fleet.r_domain);
            ("cycles", J.Int r.Fleet.r_cycles);
            ("bit_identical_to_solo", J.Bool ok) ])
      fid.Fleet.f_results
  in
  printf "  %d/%d guests bit-identical to their solo runs\n" !identical
    n_identity;
  printf "  facts store: %d shared / %d computed\n" fid.Fleet.f_facts_hits
    fid.Fleet.f_facts_misses;
  write_bench "BENCH_fleet.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "fleet serving: guest fleets co-scheduled across OCaml domains with \
           a shared VSA fact store and batched trap delivery" );
      ( "metric",
        J.Str
          "modeled-cycle makespan: max over domains of (guest cycles + \
           switches * switch_cost)" );
      ("switch_cost", J.Int Fleet.default_switch_cost);
      ("batch", J.Int batch);
      ( "scaling_fleet",
        J.Str
          "4x lorenz mpfr-200 + 4x NAS CG mpfr-200, LPT weighted by measured \
           1-domain cycles" );
      ("ratchet", J.Obj [ ("scaling_at_4_domains_min", J.Float 3.0) ]);
      ("scaling", J.Arr scaling_rows);
      ("scaling_at_4_domains", fixed 3 scaling4);
      ("identity_fleet", J.Str "5 ports x 2 GC modes on lorenz at 2 domains");
      ("identity", J.Arr identity_rows);
      ("identity_bit_identical", J.Int !identical);
      ("identity_guests", J.Int n_identity);
      ("failures", J.Int !failures) ]

(* ---- BENCH_fpa.json: FP special-value analysis --------------------------- *)

(* Evidence for the FP special-value tier.  Three claims:

   Static precision: per-workload fractions of FP sites proven
   subnormal-free / NaN-Inf-birth-free (the lint / analyze numbers).

   Consumption: with the tier on, at least one workload executes a
   strictly positive share of its fused JIT steps *unguarded* (the
   runtime subnormal scan discharged statically — with the tier off
   that share is 0 by construction), and at least one workload elides
   a strictly positive number of shadow numerical checks; outputs stay
   bit-identical with the tier on or off.

   Soundness: the observation oracle — dynamic NaN/Inf birth or
   subnormal raw input at a statically-proven-clean site — fires zero
   times across every workload x 5 arithmetic ports x both GC modes. *)

let bench_fpa () =
  hr "BENCH_fpa.json: static FP special-value analysis";
  (* static precision table *)
  printf "%-12s %7s %9s %10s %7s\n" "workload" "sites" "sub-free" "born-free"
    "proven";
  let static_rows =
    List.map
      (fun (e : W.entry) ->
        let _, f = Analysis.Fpa.analyze (e.W.program W.Test) in
        let frac a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
        printf "%-12s %7d %8.0f%% %9.0f%% %6.0f%%\n" e.W.name f.Analysis.Fpa.sites
          (100. *. frac f.Analysis.Fpa.sub_free f.Analysis.Fpa.sites)
          (100. *. frac f.Analysis.Fpa.born_free f.Analysis.Fpa.sites)
          (100. *. frac f.Analysis.Fpa.proven f.Analysis.Fpa.sites);
        J.Obj
          (("workload", J.Str e.W.name)
          :: J.ints
               [ ("sites", f.Analysis.Fpa.sites);
                 ("sub_free", f.Analysis.Fpa.sub_free);
                 ("born_free", f.Analysis.Fpa.born_free);
                 ("proven", f.Analysis.Fpa.proven) ]))
      W.all
  in
  (* consumer gauges + differential, per workload on the mpfr port
     (the jit bench's arithmetic), jit_threshold 2 so Test-scale
     workloads get hot *)
  let instrumented_run port ~oracle ~use_fpa ?(incremental_gc = true) prog =
    let a = Fpvm.Vsa.analyze prog in
    let tel =
      Telemetry.create ~numprof:true ?clean:(Fleet.Port.clean port a prog) ()
    in
    observed ~facts:a (Fleet.port_driver port) tel
      ~config:(cfg ~jit_threshold:2 ~use_fpa ~oracle ~incremental_gc ())
      prog
  in
  printf "\nconsumption (mpfr-200, jit_threshold 2):\n";
  printf "%-12s %11s %14s %15s %13s\n" "workload" "fused" "unguarded"
    "unguarded-share" "shadow-elided";
  let mpfr = Fleet.Port.Mpfr 200 in
  let best_share = ref 0.0 and best_elided = ref 0 and diff_ok = ref true in
  let consume_rows =
    List.map
      (fun (e : W.entry) ->
        let prog = e.W.program W.Test in
        let on = instrumented_run mpfr ~oracle:false ~use_fpa:true prog in
        let off = instrumented_run mpfr ~oracle:false ~use_fpa:false prog in
        let same =
          on.Fpvm.Engine.output = off.Fpvm.Engine.output
          && on.Fpvm.Engine.serialized = off.Fpvm.Engine.serialized
        in
        check same "%s: outputs differ with fpa on vs off" e.W.name;
        if not same then diff_ok := false;
        let s = on.Fpvm.Engine.stats in
        let share =
          if s.Fpvm.Stats.jit_fused_steps = 0 then 0.0
          else
            float_of_int s.Fpvm.Stats.fused_unguarded
            /. float_of_int s.Fpvm.Stats.jit_fused_steps
        in
        if share > !best_share then best_share := share;
        if s.Fpvm.Stats.shadow_elided > !best_elided then
          best_elided := s.Fpvm.Stats.shadow_elided;
        printf "%-12s %11d %14d %14.1f%% %13d\n" e.W.name
          s.Fpvm.Stats.jit_fused_steps s.Fpvm.Stats.fused_unguarded
          (100. *. share) s.Fpvm.Stats.shadow_elided;
        J.Obj
          [ ("workload", J.Str e.W.name);
            ("fused_steps", J.Int s.Fpvm.Stats.jit_fused_steps);
            ("fused_unguarded", J.Int s.Fpvm.Stats.fused_unguarded);
            ("unguarded_share", fixed 4 share);
            ("shadow_checks_elided", J.Int s.Fpvm.Stats.shadow_elided);
            ("fpa_sites_proven", J.Int s.Fpvm.Stats.fpa_sites_proven) ])
      W.all
  in
  check (!best_share > 0.0)
    "no workload fused a strictly positive unguarded share (fpa-off \
     baseline is 0)";
  check (!best_elided > 0) "no workload elided any shadow checks";
  (* soundness oracle matrix: every workload x 5 ports x 2 GC modes *)
  printf "\nsoundness oracle, 5 ports x 2 GC modes:\n%!";
  let sound =
    List.concat_map
      (fun (e : W.entry) ->
        let prog = e.W.program W.Test in
        gc_matrix ports (fun pname port incremental_gc ->
            let r =
              instrumented_run port ~oracle:true ~use_fpa:true ~incremental_gc
                prog
            in
            let s = r.Fpvm.Engine.stats in
            let sub = s.Fpvm.Stats.fpa_sub_violations
            and nan = s.Fpvm.Stats.fpa_nan_violations in
            let ok = sub = 0 && nan = 0 in
            check ok "%s/%s/gc=%s: %d sub / %d nan-inf violations" e.W.name
              pname (gc_name incremental_gc) sub nan;
            ok))
      W.all
  in
  let runs = List.length sound in
  let violations = List.length (List.filter not sound) in
  printf "  %d runs, %d violations\n" runs violations;
  write_bench "BENCH_fpa.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "static FP special-value analysis: prove NaN/Inf/subnormal freedom \
           per site, discharge the JIT's runtime subnormal guard, elide \
           shadow numerical checks" );
      ("arithmetic", J.Str "mpfr-200");
      ("scale", J.Str "test");
      ( "baseline",
        J.Str
          "fpa tier disabled (use_fpa=false): every fused step carries the \
           runtime subnormal scan, no shadow checks elided" );
      ("static_precision", J.Arr static_rows);
      ("consumption", J.Arr consume_rows);
      ("max_unguarded_share", fixed 4 !best_share);
      ("max_shadow_checks_elided", J.Int !best_elided);
      ("differential_bit_identical", J.Bool !diff_ok);
      ( "oracle",
        J.Obj [ ("runs", J.Int runs); ("violations", J.Int violations) ] ) ]

(* ---- BENCH_cache.json: persistent compilation-artifact cache ------------- *)

(* The warm-start perf story (DESIGN.md 4j). A cold session pays every
   jit compile on-guest (cyc_jit); a warm session loads the previous
   session's artifact store from disk and claims every block as
   [`Shared], moving the charge into the fingerprint-excluded
   cyc_compile_shared bucket. Ratchets:
   - warm eliminates >= 95% of cold cyc_jit on >= 3 workloads;
   - an 8-duplicate-guest fleet publishes (charges) each superblock
     exactly once — the other 7 guests share;
   - warm == cold bit-identity (output, serialized state, 42-field
     fingerprint) on all five arithmetic ports and both GC modes. *)

let bench_cache () =
  hr "BENCH_cache.json: persistent compilation-artifact cache";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpvm-bench-cache-%d" (Unix.getpid ()))
  in
  let ccfg ?(incremental_gc = true) () =
    cfg ~incremental_gc ~jit_threshold:2 ()
  in
  let warm_cold ?(port = Fleet.Port.Mpfr 200) ~config prog =
    let d = Fleet.port_driver port in
    let key = d.Fleet.d_session_key ~config prog in
    let cold_store = Fpvm.Artifact.create () in
    let cold = d.Fleet.d_run ~artifacts:cold_store ~config prog in
    if not (Fpvm.Artifact.save cold_store ~dir ~key) then
      failwith "artifact save failed";
    let warm_store = Fpvm.Artifact.create () in
    if not (Fpvm.Artifact.load warm_store ~dir ~key) then
      failwith "artifact load failed";
    let warm = d.Fleet.d_run ~artifacts:warm_store ~config prog in
    (cold, warm)
  in
  (* 1. warm vs cold over the startup window: each workload scaled so
     its hot heads have just crossed the compile threshold (few or no
     jit hits yet), which is exactly the window a warm start targets —
     there, cold cyc_jit is dominated by compile charges, and the warm
     session's claims eliminate them. three-body and NAS CG compile
     blocks that start hitting almost immediately, so their floors are
     lower; they are reported as honest non-passing rows. *)
  let subjects =
    [ ("lorenz", fun () -> W.Lorenz.program ~steps:7 ());
      ("three-body", fun () -> W.Three_body.program ~steps:2 ());
      ("NAS CG", fun () -> W.Nas_cg.program ~n:4 ~cg_iters:1 ());
      ("fbench", fun () -> W.Fbench.program ~iterations:2 ());
      ("Enzo(astro)", fun () -> W.Astro.program ~n:4 ~steps:2 ()) ]
  in
  printf "%-12s %12s %12s %12s %14s %10s\n" "workload" "cold cyc_jit"
    "warm cyc_jit" "eliminated" "cycles saved" "compiles";
  let passed = ref 0 in
  let rows =
    List.map
      (fun (name, mk) ->
        let prog = mk () in
        let cold, warm = warm_cold ~config:(ccfg ()) prog in
        let sc = cold.Fpvm.Engine.stats and sw = warm.Fpvm.Engine.stats in
        let elim =
          if sc.Fpvm.Stats.cyc_jit = 0 then 100.0
          else
            100.0
            *. (1.0
               -. float_of_int sw.Fpvm.Stats.cyc_jit
                  /. float_of_int sc.Fpvm.Stats.cyc_jit)
        in
        let saved = cold.Fpvm.Engine.cycles - warm.Fpvm.Engine.cycles in
        if elim >= 95.0 then incr passed;
        check
          (Fpvm.Stats.fingerprint sc = Fpvm.Stats.fingerprint sw
          && cold.Fpvm.Engine.output = warm.Fpvm.Engine.output)
          "%s: warm run not bit-identical to cold" name;
        check
          (saved = sw.Fpvm.Stats.cyc_compile_shared)
          "%s: conservation broken (saved %d, bucket %d)" name saved
          sw.Fpvm.Stats.cyc_compile_shared;
        printf "%-12s %12d %12d %11.1f%% %14d %10d\n%!" name
          sc.Fpvm.Stats.cyc_jit sw.Fpvm.Stats.cyc_jit elim saved
          sc.Fpvm.Stats.jit_compiles;
        J.Obj
          [ ("workload", J.Str name);
            ( "cold",
              J.Obj
                (J.ints
                   [ ("cyc_jit", sc.Fpvm.Stats.cyc_jit);
                     ("jit_compiles", sc.Fpvm.Stats.jit_compiles);
                     ("cycles", cold.Fpvm.Engine.cycles) ]) );
            ( "warm",
              J.Obj
                (J.ints
                   [ ("cyc_jit", sw.Fpvm.Stats.cyc_jit);
                     ("blocks_shared", sw.Fpvm.Stats.blocks_shared);
                     ("cyc_compile_shared", sw.Fpvm.Stats.cyc_compile_shared);
                     ("cycles", warm.Fpvm.Engine.cycles) ]) );
            ("cyc_jit_eliminated_pct", fixed 2 elim) ])
      subjects
  in
  check (!passed >= 3) "only %d workload(s) reached 95%% elimination (need 3)"
    !passed;
  (* 2. fleet-wide dedup: 8 identical guests, each block compiled once *)
  let g =
    { Fleet.g_id = 0; g_workload = "lorenz"; g_scale = W.Test;
      g_port = Fleet.Port.Vanilla; g_config = ccfg () }
  in
  let guests = List.init 8 (fun i -> { g with Fleet.g_id = i }) in
  let f = Fleet.serve ~domains:2 guests in
  let solo = Fleet.run_solo g in
  let compiles = solo.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles in
  let claims = f.Fleet.f_blocks_published + f.Fleet.f_blocks_shared in
  let dedup =
    float_of_int claims /. float_of_int (max 1 f.Fleet.f_blocks_published)
  in
  printf
    "\n\
     fleet (8 duplicate lorenz guests): %d blocks published once, %d shared \
     (%.1fx dedup), %d compile cycles off-guest\n"
    f.Fleet.f_blocks_published f.Fleet.f_blocks_shared dedup
    f.Fleet.f_cyc_compile_shared;
  check
    (f.Fleet.f_blocks_published = compiles)
    "fleet published %d blocks, solo compiles %d" f.Fleet.f_blocks_published
    compiles;
  check
    (f.Fleet.f_blocks_shared = 7 * compiles)
    "fleet shared %d blocks, expected %d" f.Fleet.f_blocks_shared (7 * compiles);
  (* 3. warm == cold identity: 5 ports x 2 GC modes *)
  printf "\nwarm == cold bit-identity, 5 ports x 2 GC modes:\n";
  let lorenz = (get "lorenz").W.program W.Test in
  let identity_ok =
    gc_matrix ports (fun pname port inc ->
        let cold, warm =
          warm_cold ~port ~config:(ccfg ~incremental_gc:inc ()) lorenz
        in
        let ok =
          cold.Fpvm.Engine.output = warm.Fpvm.Engine.output
          && cold.Fpvm.Engine.serialized = warm.Fpvm.Engine.serialized
          && Fpvm.Stats.fingerprint cold.Fpvm.Engine.stats
             = Fpvm.Stats.fingerprint warm.Fpvm.Engine.stats
        in
        check ok "%s/gc=%s: warm differs from cold" pname (gc_name inc);
        ok)
    |> List.filter Fun.id |> List.length
  in
  printf "  identical: %d/10\n" identity_ok;
  (* drop the on-disk stores the bench created *)
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
  write_bench "BENCH_cache.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "persistent compilation-artifact cache: warm-start compile \
           elimination, fleet-wide code sharing, off-guest compile \
           accounting" );
      ("arithmetic", J.Str "mpfr-200");
      ( "scale",
        J.Str "startup window (hot heads just past the compile threshold)" );
      ("jit_threshold", J.Int 2);
      ( "method",
        J.Str
          "cold run populates the store and pays cyc_jit on-guest; warm run \
           loads it from disk and claims every block as shared, moving the \
           charge to cyc_compile_shared; measured over the startup window, \
           where compile charges dominate cyc_jit" );
      ( "ratchet",
        J.Obj
          [ ("cyc_jit_elimination_min_pct", J.Float 95.0);
            ("min_workloads", J.Int 3);
            ("fleet_publishes_each_block_once", J.Bool true);
            ("identity_runs", J.Int 10) ] );
      ("workloads", J.Arr rows);
      ("workloads_at_95pct", J.Int !passed);
      ( "fleet",
        J.Obj
          [ ("guests", J.Int 8);
            ("blocks_published", J.Int f.Fleet.f_blocks_published);
            ("blocks_shared", J.Int f.Fleet.f_blocks_shared);
            ("dedup_ratio", fixed 2 dedup);
            ("cyc_compile_shared", J.Int f.Fleet.f_cyc_compile_shared) ] );
      ("identity_runs_ok", J.Int identity_ok) ]

(* ---- BENCH_flows.json: FP-exception flight recorder ---------------------- *)

(* Evidence for the flight recorder: attaching it charges zero modeled
   cycles and leaves the deterministic fingerprint bit-identical on
   every arithmetic port and both GC modes, and on >= 3 workloads with
   an injected NaN it recovers the birth->prop->kill chain (birth
   site, kill site, replay birth-event index) and the interval ground
   truth labels the injected 0/0 real. Its ports carry their own sizes:
   the rows' cycles are committed. Writes BENCH_flows.json. *)
let bench_flows () =
  hr "BENCH_flows.json: flight-recorder overhead + chain recovery";
  let module FR = Telemetry.Flowrec in
  let flow_ports =
    Fleet.Port.
      [ ("vanilla", Vanilla); ("mpfr-50", Mpfr 50); ("posit-32", Posit 32);
        ("interval", Interval); ("slash-30", Slash 30) ]
  in
  let lorenz = (get "lorenz").W.program W.Test in
  (* 1. Zero overhead: modeled cycles and fingerprint identical with
     the recorder on vs off, every port x both GC modes. *)
  let overhead_rows =
    gc_matrix flow_ports (fun pname port inc ->
        let d = Fleet.port_driver port in
        let config = cfg ~incremental_gc:inc () in
        let off = d.Fleet.d_run ~config lorenz in
        let on = observed d (Telemetry.create ~flows:true ()) ~config lorenz in
        let same_cyc = on.Fpvm.Engine.cycles = off.Fpvm.Engine.cycles in
        let same_fp =
          Fpvm.Stats.fingerprint on.Fpvm.Engine.stats
          = Fpvm.Stats.fingerprint off.Fpvm.Engine.stats
        in
        check (same_cyc && same_fp) "recorder overhead, %s incremental_gc=%b"
          pname inc;
        J.Obj
          [ ("port", J.Str pname); ("incremental_gc", J.Bool inc);
            ("cycles_off", J.Int off.Fpvm.Engine.cycles);
            ("cycles_on", J.Int on.Fpvm.Engine.cycles);
            ( "overhead_pct",
              fixed 1
                (100.0
                *. float_of_int (on.Fpvm.Engine.cycles - off.Fpvm.Engine.cycles)
                /. float_of_int (max 1 off.Fpvm.Engine.cycles)) );
            ("fingerprint_identical", J.Bool same_fp) ])
  in
  (* 2. Chain recovery: inject a NaN into >= 3 workloads, recover the
     flow, and label it against the interval ground truth. *)
  let recover wname =
    let prog =
      Machine.Program.inject_nan ((get wname).W.program W.Test) ~nth:0
    in
    let run port =
      let tel = Telemetry.create ~flows:true ~flow_capacity:100000 () in
      ignore (observed (Fleet.port_driver port) tel ~config:(cfg ()) prog);
      match tel.Telemetry.flows with Some fr -> fr | None -> assert false
    in
    let fr = run (Fleet.Port.Mpfr 50) in
    let real_sites = FR.birth_sites (run Fleet.Port.Interval) in
    FR.label_truth fr (fun site -> Hashtbl.mem real_sites site);
    let flows = FR.all_flows fr in
    let injected =
      match List.find_opt (fun f -> f.FR.fl_is_nan) flows with
      | Some f -> f
      | None -> List.hd flows
    in
    check
      (FR.n_flows fr >= 1 && injected.FR.fl_birth_site >= 0
      && injected.FR.fl_links >= 1)
      "%s: chain not recovered" wname;
    check (injected.FR.fl_real = 1) "%s: injected 0/0 not labeled real" wname;
    J.Obj
      [ ("workload", J.Str wname); ("flows", J.Int (FR.n_flows fr));
        ("birth_site", J.Int injected.FR.fl_birth_site);
        ("birth_event", J.Int injected.FR.fl_birth_event);
        ("kill_site", J.Int injected.FR.fl_kill_site);
        ("kill_kind", J.Str (FR.kill_kind_name injected.FR.fl_kill_kind));
        ("links", J.Int injected.FR.fl_links);
        ("props", J.Int injected.FR.fl_props);
        ("real", J.Bool (injected.FR.fl_real = 1)) ]
  in
  let recovery_rows =
    List.map recover [ "lorenz"; "three-body"; "fbench" ]
  in
  write_bench "BENCH_flows.json"
    [ ("schema_version", J.Int 1);
      ( "experiment",
        J.Str
          "FP-exception flight recorder: birth->prop->kill flow chains, \
           zero-overhead observation, interval ground truth" );
      ("scale", J.Str "test");
      ( "ratchet",
        J.Obj
          [ ("overhead_pct_max", J.Float 0.0); ("min_workloads", J.Int 3);
            ("fingerprint_identity_runs", J.Int (List.length overhead_rows)) ] );
      ("overhead", J.Arr overhead_rows);
      ("recovery", J.Arr recovery_rows) ]

let experiments =
  [ ("fig3", fig3);
    ("patchpoc", patch_poc);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fun () -> fig11 ());
    ("libm200", libm200);
    ("fig12", fun () -> fig12 ());
    ("fig13", fig13);
    ("fig14", fig14);
    ("validate", validate);
    ("effects", effects);
    ("fpspy", fpspy);
    ("loc", loc);
    ("ablate-gc", ablate_gc);
    ("ablate-vsa", ablate_vsa);
    ("ablate-compiler-gc", ablate_compiler_gc);
    ("ablate-delivery", ablate_delivery);
    ("json", bench_json);
    ("replay", bench_replay);
    ("vsa", bench_vsa);
    ("plans", bench_plans);
    ("telemetry", bench_telemetry);
    ("jit", bench_jit);
    ("cache", bench_cache);
    ("fleet", bench_fleet);
    ("fpa", bench_fpa);
    ("flows", bench_flows) ]

(* Run one experiment; exit 1 after it if it failed an assertion. *)
let run (name, fn) =
  failures := 0;
  fn ();
  if !failures > 0 then begin
    printf "%s: %d assertion(s) FAILED\n" name !failures;
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      printf "FPVM reproduction bench harness; running every experiment.\n%!";
      List.iter run experiments
  | [ "list" ] -> List.iter (fun (n, _) -> printf "%s\n" n) experiments
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n experiments with
          | Some fn -> run (n, fn)
          | None ->
              printf "unknown experiment %s (try 'list')\n" n;
              exit 1)
        names

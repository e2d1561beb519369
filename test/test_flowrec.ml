(* FP-exception flight-recorder tests.

   The contract under test: the recorder reconstructs whole
   birth→prop→kill chains (never a chain with a silently missing
   middle — ring overflow drops the oldest chain whole), it is pure
   observation (fingerprint-identical on or off, on every arithmetic
   port and both GC modes), the recorded birth-event index is exactly
   where the replay bisector lands, the interval-port ground truth
   separates real exceptions from precision artifacts of the port
   under test, and the flow/numprof counters do not drift between
   jit and no-jit runs. *)

module W = Workloads
module FR = Telemetry.Flowrec
module Isa = Machine.Isa

let scale = W.Test

let cfg ?(incremental_gc = true) ?(use_jit = true) () =
  { Fpvm.Engine.default_config with
    Fpvm.Engine.incremental_gc; Fpvm.Engine.use_jit }

let lorenz () =
  match W.find "lorenz" with
  | Some e -> e.W.program scale
  | None -> failwith "no lorenz workload"

(* ---- synthetic-event helpers ----------------------------------------- *)

(* Drive a recorder directly with hand-built probe payloads: values are
   raw binary64 words used both as machine word and demoted image (the
   unboxed-port case), so chain mechanics are tested in isolation. *)
let bits = Int64.bits_of_float
let qnan = bits (0.0 /. 0.0)
let one = bits 1.0
let zero = bits 0.0

let op ?(cyc = 0) fr ~site fop a b r =
  FR.record fr ~cycles:cyc
    (Fpvm.Probe.N_op
       { index = site; op = fop; a_bits = a; b_bits = b; r_bits = r;
         a; b; r })

let sink ?(cyc = 0) fr ~site kind v =
  FR.record fr ~cycles:cyc
    (Fpvm.Probe.N_sink { index = site; kind; bits = v; f64 = v })

(* ---- chain reconstruction -------------------------------------------- *)

(* Hand-built birth→prop→prop→kill: 0/0 births a NaN at site 10, two
   adds drag it through sites 11 and 12 (the result word changes each
   time, as a real port's would), and a print at site 13 kills it. *)
let test_chain_reconstruction () =
  let fr = FR.create () in
  let n1 = qnan and n2 = Int64.logor qnan 1L and n3 = Int64.logor qnan 2L in
  FR.saw_event fr;
  (* replay event 0 delivered *)
  op fr ~cyc:100 ~site:10 Isa.FDIV zero zero n1;
  op fr ~cyc:200 ~site:11 Isa.FADD n1 one n2;
  op fr ~cyc:300 ~site:12 Isa.FADD n2 one n3;
  sink fr ~cyc:400 ~site:13 Fpvm.Probe.S_print n3;
  Alcotest.(check int) "one flow" 1 (FR.n_flows fr);
  let f = List.hd (FR.surviving fr) in
  Alcotest.(check bool) "NaN flow" true f.FR.fl_is_nan;
  Alcotest.(check int) "birth site" 10 f.FR.fl_birth_site;
  Alcotest.(check int) "birth event" 0 f.FR.fl_birth_event;
  Alcotest.(check int) "props" 2 f.FR.fl_props;
  Alcotest.(check int) "links incl. birth and sink" 4 f.FR.fl_links;
  Alcotest.(check int) "killed by the print" 41 f.FR.fl_kill_kind;
  Alcotest.(check int) "kill site" 13 f.FR.fl_kill_site;
  Alcotest.(check int) "cycle span" 300
    (f.FR.fl_last_cycle - f.FR.fl_birth_cycle);
  (* the chain itself, oldest first, kinds birth(0) prop(1) prop(1)
     sink(3), at the sites above *)
  let links = FR.links_of fr f.FR.fl_id in
  Alcotest.(check (list int)) "link kinds" [ 0; 1; 1; 3 ]
    (List.map (fun (s : FR.slot) -> s.FR.s_kind) links);
  Alcotest.(check (list int)) "link sites" [ 10; 11; 12; 13 ]
    (List.map (fun (s : FR.slot) -> s.FR.s_site) links);
  (* a clean op consuming the special kills it with kind "op" *)
  let fr2 = FR.create () in
  op fr2 ~site:5 Isa.FDIV zero zero n1;
  op fr2 ~site:6 Isa.FMAX n1 one one;
  (* max(NaN,1) = 1 here *)
  let g = List.hd (FR.surviving fr2) in
  Alcotest.(check int) "op kill kind" 0 g.FR.fl_kill_kind;
  Alcotest.(check int) "op kill site" 6 g.FR.fl_kill_site

(* A special operand the recorder has never seen (healed table entry,
   or an unmodeled producer) opens a first-observation flow rather
   than corrupting another chain. *)
let test_first_observation () =
  let fr = FR.create () in
  op fr ~site:20 Isa.FADD qnan one (Int64.logor qnan 4L);
  Alcotest.(check int) "orphan special opens a flow" 1 (FR.n_flows fr);
  let f = List.hd (FR.surviving fr) in
  Alcotest.(check int) "first observation site" 20 f.FR.fl_birth_site

(* ---- ring overflow: drop-oldest, whole chains ------------------------ *)

let test_ring_overflow () =
  (* capacity floors at 8 *)
  let fr = FR.create ~capacity:8 () in
  let n1 = qnan and n2 = Int64.logor qnan 8L in
  (* flow 0: birth + 9 props = 10 links, wrapping the 8-slot ring *)
  op fr ~site:1 Isa.FDIV zero zero n1;
  let w = ref n1 in
  for i = 1 to 9 do
    let w' = Int64.logor qnan (Int64.of_int (16 + i)) in
    op fr ~site:(1 + i) Isa.FADD !w one w';
    w := w'
  done;
  (* flow 1: fresh birth, killed in-ring *)
  op fr ~site:50 Isa.FDIV zero zero n2;
  op fr ~site:51 Isa.FMAX n2 one one;
  Alcotest.(check int) "two flows recorded" 2 (FR.n_flows fr);
  Alcotest.(check bool) "links were dropped" true (FR.links_dropped fr > 0);
  let opn, comp, drop = FR.gauges fr in
  Alcotest.(check int) "oldest flow dropped whole" 1 drop;
  Alcotest.(check int) "young flow completed" 1 comp;
  Alcotest.(check int) "none open" 0 opn;
  (* the survivor's chain is intact: birth + kill, no missing middle *)
  (match FR.surviving fr with
  | [ f ] ->
      Alcotest.(check int) "survivor id" 1 f.FR.fl_id;
      Alcotest.(check (list int)) "survivor chain whole" [ 0; 2 ]
        (List.map (fun (s : FR.slot) -> s.FR.s_kind)
           (FR.links_of fr f.FR.fl_id))
  | l ->
      Alcotest.failf "expected exactly one surviving flow, got %d"
        (List.length l));
  (* dropped-flow metadata is still exact *)
  (match FR.all_flows fr with
  | f0 :: _ ->
      Alcotest.(check bool) "dropped flag" true f0.FR.fl_dropped;
      Alcotest.(check int) "dropped birth site survives" 1
        f0.FR.fl_birth_site;
      Alcotest.(check int) "dropped prop count survives" 9 f0.FR.fl_props
  | [] -> Alcotest.fail "no flows");
  (* and the ground-truth site set still sees the dropped birth *)
  Alcotest.(check bool) "birth_sites includes dropped flow" true
    (Hashtbl.mem (FR.birth_sites fr) 1)

(* ---- recorder on/off identity: 5 ports x 2 GC modes ------------------ *)

let ports : (string * Fleet.Port.t) list =
  [ ("vanilla", Fleet.Port.Vanilla);
    ("mpfr:50", Fleet.Port.Mpfr 50);
    ("posit:32", Fleet.Port.Posit 32);
    ("interval", Fleet.Port.Interval);
    ("slash:30", Fleet.Port.Slash 30) ]

let test_identity () =
  let prog = lorenz () in
  List.iter
    (fun (pname, port) ->
      let d = Fleet.port_driver port in
      List.iter
        (fun incremental_gc ->
          let config = cfg ~incremental_gc () in
          let label =
            Printf.sprintf "%s/%s" pname
              (if incremental_gc then "inc" else "full")
          in
          let base = d.Fleet.d_run ~config prog in
          let tel = Telemetry.create ~flows:true () in
          let r =
            d.Fleet.d_run
              ~instrument:(fun sink -> Telemetry.attach tel sink)
              ~config prog
          in
          Telemetry.finalize tel r.Fpvm.Engine.stats;
          Alcotest.(check string)
            (label ^ ": fingerprint on == off")
            (Fpvm.Stats.fingerprint base.Fpvm.Engine.stats)
            (Fpvm.Stats.fingerprint r.Fpvm.Engine.stats);
          Alcotest.(check string)
            (label ^ ": output on == off")
            base.Fpvm.Engine.output r.Fpvm.Engine.output)
        [ true; false ])
    ports

(* ---- bisect wiring: the birth event is where the bisector lands ------ *)

let test_bisect_lands_on_birth () =
  (* Inject a NaN into lorenz, record under the recorder, and check
     the flow's birth-event index against the bisector: a log that
     agrees up to the birth and diverges there must bisect to exactly
     fl_birth_event. *)
  let prog = Machine.Program.inject_nan (lorenz ()) ~nth:0 in
  let d = Fleet.port_driver (Fleet.Port.Mpfr 50) in
  let config = cfg () in
  let meta =
    { Replay.Log.workload = "lorenz"; scale = "test"; arith = "mpfr:50";
      config = "flowrec-test;injnan=0" }
  in
  let tel = Telemetry.create ~flows:true ~flow_capacity:100000 () in
  let rec_ =
    d.Fleet.d_record
      ~instrument:(fun sink -> Telemetry.attach tel sink)
      ~checkpoint_every:0 ~meta ~config prog
  in
  let fr = match tel.Telemetry.flows with Some fr -> fr | None -> assert false in
  Alcotest.(check bool) "injection birthed a flow" true (FR.n_flows fr >= 1);
  let f = List.hd (FR.all_flows fr) in
  Alcotest.(check bool) "injected flow is NaN" true f.FR.fl_is_nan;
  let birth = f.FR.fl_birth_event in
  let log = Replay.Log.of_string rec_.Replay.Session.log_bytes in
  let total = Array.length log.Replay.Log.events in
  Alcotest.(check bool) "birth event within the log" true
    (birth >= 0 && birth < total);
  (* a log that shares the prefix [0, birth) and then diverges *)
  let cut =
    { log with Replay.Log.events = Array.sub log.Replay.Log.events 0 birth }
  in
  (match Replay.Bisect.first_divergence log cut with
  | Some dv ->
      Alcotest.(check int) "bisector lands on the birth event" birth
        dv.Replay.Bisect.at;
      Alcotest.(check bool) "the birth event itself is reported" true
        (dv.Replay.Bisect.left <> None)
  | None -> Alcotest.fail "expected a divergence at the birth event");
  (* full-log self-comparison stays clean (sanity) *)
  Alcotest.(check bool) "identical logs do not diverge" true
    (Replay.Bisect.first_divergence log log = None)

(* ---- interval ground truth: real vs spurious ------------------------- *)

(* Two exception sites in one program:
   - real: 0/0 is domain-invalid under any arithmetic — the interval
     port excepts there too;
   - spurious: a chain seeded through an underflowing multiply (so the
     values are boxed and every later op emulates on the port) adds
     1 + 2^-12 + epsilon. An 8-bit significand rounds that to 1.0, the
     subtraction returns 0, and the divide births an Inf — a precision
     artifact the interval port (binary64 endpoints, where 1 + 2^-12
     is exact) never reproduces: its enclosure of the divisor stays
     bounded away from zero. *)
let truth_src : Fpvm_ir.Ast.program =
  let open Fpvm_ir.Ast in
  { name = "truth";
    decls =
      [ Fscalar ("z", 0.0); Fscalar ("tiny", 0.000244140625);
        Fscalar ("small", 1e-300); Fscalar ("sc", 1e-10);
        Fscalar ("nan", 0.0); Fscalar ("s", 0.0); Fscalar ("y", 0.0);
        Fscalar ("d", 0.0); Fscalar ("spur", 0.0) ];
    body =
      [ Fset ("nan", fv "z" /: fv "z"); (* real: 0/0 *)
        Fset ("s", fv "small" *: fv "sc"); (* underflows: boxes the chain *)
        Fset ("y", (f 1.0 +: fv "tiny") +: fv "s");
        Fset ("d", fv "y" -: f 1.0); (* 0 under mpfr-8, ~2^-12 else *)
        Fset ("spur", f 1.0 /: fv "d"); (* Inf under mpfr-8 only *)
        Print_f (fv "nan");
        Print_f (fv "spur") ] }

let test_ground_truth () =
  let prog = Fpvm_ir.Codegen.compile_program truth_src in
  let config = cfg () in
  let run port =
    let d = Fleet.port_driver port in
    let tel = Telemetry.create ~flows:true () in
    let r =
      d.Fleet.d_run
        ~instrument:(fun sink -> Telemetry.attach tel sink)
        ~config prog
    in
    match tel.Telemetry.flows with
    | Some fr -> (fr, r)
    | None -> assert false
  in
  let fr, _ = run (Fleet.Port.Mpfr 8) in
  Alcotest.(check bool) "mpfr-8 sees both flows" true (FR.n_flows fr >= 2);
  Alcotest.(check bool) "one flow is a NaN" true
    (List.exists (fun f -> f.FR.fl_is_nan) (FR.all_flows fr));
  Alcotest.(check bool) "one flow is an Inf" true
    (List.exists (fun f -> not f.FR.fl_is_nan) (FR.all_flows fr));
  (* ground truth: re-run on the interval port, label by birth site *)
  let fr_iv, _ = run Fleet.Port.Interval in
  let real_sites = FR.birth_sites fr_iv in
  FR.label_truth fr (fun site -> Hashtbl.mem real_sites site);
  let real, spurious = FR.truth_counts fr in
  Alcotest.(check bool) "0/0 labeled real" true (real >= 1);
  Alcotest.(check bool) "rounding artifact labeled spurious" true
    (spurious >= 1);
  (* the NaN flow specifically is the real one; the Inf the spurious *)
  List.iter
    (fun f ->
      if f.FR.fl_is_nan then
        Alcotest.(check int) "NaN (0/0) flow real" 1 f.FR.fl_real
      else
        Alcotest.(check int) "Inf (rounding) flow spurious" 0 f.FR.fl_real)
    (FR.all_flows fr);
  (* an unlabeled recorder reports (0, 0) *)
  let fr0 = FR.create () in
  Alcotest.(check (pair int int)) "unlabeled counts" (0, 0)
    (FR.truth_counts fr0)

(* ---- jit / no-jit flow-counter consistency --------------------------- *)

(* Satellite: numprof's nan/inf birth-prop-kill counters and the flow
   gauges must agree between jit and no-jit runs — the JIT emits the
   same N_op/N_rebox payloads from inside superblocks that the
   interpreter emits outside them. Drift here means a guarded site
   stopped reporting. *)
let test_jit_differential () =
  let progs =
    [ ("lorenz+nan", Machine.Program.inject_nan (lorenz ()) ~nth:0);
      ("truth", Fpvm_ir.Codegen.compile_program truth_src) ]
  in
  let d = Fleet.port_driver (Fleet.Port.Mpfr 50) in
  List.iter
    (fun (name, prog) ->
      let run use_jit =
        let tel = Telemetry.create ~shadow:true ~flows:true () in
        let r =
          d.Fleet.d_run
            ~instrument:(fun sink -> Telemetry.attach tel sink)
            ~config:(cfg ~use_jit ()) prog
        in
        Telemetry.finalize tel r.Fpvm.Engine.stats;
        let np =
          match tel.Telemetry.numprof with Some np -> np | None -> assert false
        in
        let fr =
          match tel.Telemetry.flows with Some fr -> fr | None -> assert false
        in
        (Telemetry.Numprof.totals np, FR.gauges fr, FR.n_flows fr)
      in
      let np_jit, g_jit, n_jit = run true in
      let np_int, g_int, n_int = run false in
      let nb, npp, nk, ib, ip, ik = np_jit in
      let nb', npp', nk', ib', ip', ik' = np_int in
      Alcotest.(check (list int))
        (name ^ ": numprof nan/inf counters jit == no-jit")
        [ nb'; npp'; nk'; ib'; ip'; ik' ]
        [ nb; npp; nk; ib; ip; ik ];
      Alcotest.(check bool) (name ^ ": injected/seeded specials seen") true
        (nb + ib >= 1);
      let o, c, dr = g_jit and o', c', dr' = g_int in
      Alcotest.(check (list int))
        (name ^ ": flow gauges jit == no-jit")
        [ o'; c'; dr' ] [ o; c; dr ];
      Alcotest.(check int) (name ^ ": flow count jit == no-jit") n_int n_jit)
    progs

(* ---- stats plumbing -------------------------------------------------- *)

let test_finalize_gauges () =
  let fr = FR.create () in
  op fr ~site:1 Isa.FDIV zero zero qnan;
  let tel =
    { (Telemetry.create ()) with Telemetry.flows = Some fr }
  in
  let s = Fpvm.Stats.create () in
  let fp_before = Fpvm.Stats.fingerprint s in
  FR.label_truth fr (fun _ -> true);
  Telemetry.finalize tel s;
  Alcotest.(check int) "flows_open gauge" 1 s.Fpvm.Stats.flows_open;
  Alcotest.(check int) "flows_completed gauge" 0 s.Fpvm.Stats.flows_completed;
  Alcotest.(check int) "flows_real gauge" 1 s.Fpvm.Stats.flows_real;
  (* the gauges are fingerprint-excluded *)
  Alcotest.(check string) "gauges outside the fingerprint" fp_before
    (Fpvm.Stats.fingerprint s)

let test_capacity_bound () =
  let before = (Gc.quick_stat ()).Gc.major_words in
  (match FR.create ~capacity:(FR.max_capacity + 1) () with
  | _ -> Alcotest.fail "create accepted a capacity above the bound"
  | exception Invalid_argument _ -> ());
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  if words >= 1e5 then Alcotest.failf "create allocated %.0f major words" words

let () =
  Alcotest.run "flowrec"
    [ ("chains",
       [ Alcotest.test_case "birth-prop-kill reconstruction" `Quick
           test_chain_reconstruction;
         Alcotest.test_case "first observation opens a flow" `Quick
           test_first_observation;
         Alcotest.test_case "ring overflow drops oldest chain whole" `Quick
           test_ring_overflow;
         Alcotest.test_case "a capacity past the bound allocates nothing"
           `Quick test_capacity_bound ]);
      ("determinism",
       [ Alcotest.test_case "on/off identity, 5 ports x 2 gc" `Slow
           test_identity ]);
      ("bisect",
       [ Alcotest.test_case "birth event is the bisect target" `Slow
           test_bisect_lands_on_birth ]);
      ("ground-truth",
       [ Alcotest.test_case "interval labels real vs spurious" `Quick
           test_ground_truth ]);
      ("jit",
       [ Alcotest.test_case "flow counters jit == no-jit" `Slow
           test_jit_differential ]);
      ("stats",
       [ Alcotest.test_case "finalize copies the gauges" `Quick
           test_finalize_gauges ]) ]

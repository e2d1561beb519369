(* Re-entrancy: the Session refactor's contract.

   Every piece of mutable engine state — arena, plan cache, JIT
   tables, stats, decode cache, probe sink, per-recording digest
   scratch — is owned by an instantiable session value; there are no
   module-level globals left (the arithmetic ports are functors over
   their sizing, the bigfloat constant cache is domain-local). So:

   - two engine sessions interleaved at quiesce points on one domain
     fingerprint exactly as the same two run sequentially;
   - two mpfr ports at different precisions coexist in one process,
     each bit-identical to its solo run;
   - two recordings interleaved through one Session.Make produce
     byte-identical logs to sequential ones, and both replay Match;
   - sessions on two genuinely parallel domains match their solo
     fingerprints. *)

module W = Workloads

let cfg = Fpvm.Engine.default_config

let prog () = (Option.get (W.find "lorenz")).W.program W.Test

let fingerprint (r : Fpvm.Engine.result) =
  Fpvm.Stats.fingerprint r.Fpvm.Engine.stats

(* Run [make_thunks] interleaved under the fleet scheduler, yielding
   every [batch] quiesce points. *)
let interleaved ~batch (runs : ((Fpvm.Probe.sink -> unit) -> Fpvm.Engine.result) list) =
  let out = Array.make (List.length runs) None in
  Fleet.Sched.run
    (List.mapi
       (fun i run () ->
         let n = ref 0 in
         out.(i) <-
           Some
             (run (fun sink ->
                  Fpvm.Probe.add_quiesce sink (fun _st ->
                      incr n;
                      if !n >= batch then begin
                        n := 0;
                        Fleet.Sched.yield ()
                      end))))
       runs);
  Array.to_list out |> List.map Option.get

(* One run thunk on port [A]: prepare, instrument, resume. *)
let runner (module A : Fpvm.Arith.S) prog instrument =
  let module E = Fpvm.Engine.Make (A) in
  let ses = E.prepare ~config:cfg prog in
  instrument (E.probe ses.E.eng);
  E.resume ses

let test_interleaved_eq_sequential () =
  let p = prog () in
  let solo_v = runner (module Fpvm.Alt_vanilla) p ignore in
  let solo_m = runner (module Fpvm.Alt_mpfr) p ignore in
  List.iter
    (fun batch ->
      let rs =
        interleaved ~batch
          [ (fun i -> runner (module Fpvm.Alt_vanilla) p i);
            (fun i -> runner (module Fpvm.Alt_mpfr) p i) ]
      in
      match rs with
      | [ rv; rm ] ->
          Alcotest.(check string)
            (Printf.sprintf "vanilla fingerprint (batch %d)" batch)
            (fingerprint solo_v) (fingerprint rv);
          Alcotest.(check string)
            (Printf.sprintf "mpfr fingerprint (batch %d)" batch)
            (fingerprint solo_m) (fingerprint rm);
          Alcotest.(check string) "vanilla output" solo_v.Fpvm.Engine.output
            rv.Fpvm.Engine.output;
          Alcotest.(check string) "mpfr output" solo_m.Fpvm.Engine.output
            rm.Fpvm.Engine.output
      | _ -> Alcotest.fail "expected two results")
    [ 1; 8; 64 ]

let test_two_precisions_coexist () =
  let p = prog () in
  (* 8 bits visibly perturbs the lorenz trajectory; 200 tracks IEEE at
     print resolution — so the two instances are observably distinct *)
  let m8 = (module (val Fpvm.Alt_mpfr.make ~prec:8 ()) : Fpvm.Arith.S) in
  let m200 = (module Fpvm.Alt_mpfr : Fpvm.Arith.S) in
  let solo8 = runner m8 p ignore in
  let solo200 = runner m200 p ignore in
  Alcotest.(check bool) "8 and 200 bit runs differ" true
    (solo8.Fpvm.Engine.output <> solo200.Fpvm.Engine.output);
  let rs =
    interleaved ~batch:4 [ (fun i -> runner m8 p i); (fun i -> runner m200 p i) ]
  in
  match rs with
  | [ r8; r200 ] ->
      Alcotest.(check string) "mpfr-8 interleaved == solo" (fingerprint solo8)
        (fingerprint r8);
      Alcotest.(check string) "mpfr-200 interleaved == solo"
        (fingerprint solo200) (fingerprint r200);
      Alcotest.(check string) "mpfr-8 output" solo8.Fpvm.Engine.output
        r8.Fpvm.Engine.output;
      Alcotest.(check string) "mpfr-200 output" solo200.Fpvm.Engine.output
        r200.Fpvm.Engine.output
  | _ -> Alcotest.fail "expected two results"

(* Two recordings through ONE Session.Make must not share digest
   scratch, decode memos or probe hooks: interleave them and compare
   the logs byte-for-byte against sequential recordings. *)
let test_interleaved_recordings () =
  let p = prog () in
  let module S = Replay.Session.Make (Fpvm.Alt_mpfr) in
  let meta i =
    { Replay.Log.workload = "lorenz"; scale = "test"; arith = "mpfr:200";
      config = Printf.sprintf "reent-%d" i }
  in
  let record instrument i =
    S.record ?instrument ~meta:(meta i) ~config:cfg p
  in
  let seq0 = record None 0 in
  let seq1 = record None 1 in
  let out = Array.make 2 None in
  Fleet.Sched.run
    [ (fun () ->
        out.(0) <-
          Some
            (record
               (Some
                  (fun sink ->
                    Fpvm.Probe.add_quiesce sink (fun _ -> Fleet.Sched.yield ())))
               0));
      (fun () ->
        out.(1) <-
          Some
            (record
               (Some
                  (fun sink ->
                    Fpvm.Probe.add_quiesce sink (fun _ -> Fleet.Sched.yield ())))
               1)) ];
  let il0 = Option.get out.(0) and il1 = Option.get out.(1) in
  Alcotest.(check string) "log 0 byte-identical"
    seq0.Replay.Session.log_bytes il0.Replay.Session.log_bytes;
  Alcotest.(check string) "log 1 byte-identical"
    seq1.Replay.Session.log_bytes il1.Replay.Session.log_bytes;
  (* both interleaved logs replay clean *)
  List.iter
    (fun (rec_ : Replay.Session.recording) ->
      match S.replay ~config:cfg rec_.Replay.Session.log p with
      | Replay.Session.Match _ -> ()
      | Replay.Session.Diverged d ->
          Alcotest.failf "interleaved recording diverged at %d" d.Replay.Session.at)
    [ il0; il1 ]

let test_parallel_domains () =
  let p = prog () in
  let solo_v = fingerprint (runner (module Fpvm.Alt_vanilla) p ignore) in
  let solo_m = fingerprint (runner (module Fpvm.Alt_mpfr) p ignore) in
  let dv =
    Domain.spawn (fun () -> fingerprint (runner (module Fpvm.Alt_vanilla) p ignore))
  in
  let dm =
    Domain.spawn (fun () -> fingerprint (runner (module Fpvm.Alt_mpfr) p ignore))
  in
  Alcotest.(check string) "vanilla on its own domain" solo_v (Domain.join dv);
  Alcotest.(check string) "mpfr on its own domain" solo_m (Domain.join dm)

let () =
  Alcotest.run "reentrancy"
    [ ("interleave",
       [ Alcotest.test_case "interleaved == sequential fingerprints" `Quick
           test_interleaved_eq_sequential;
         Alcotest.test_case "two mpfr precisions coexist" `Quick
           test_two_precisions_coexist ]);
      ("record",
       [ Alcotest.test_case "interleaved recordings byte-identical" `Slow
           test_interleaved_recordings ]);
      ("domains",
       [ Alcotest.test_case "parallel sessions == solo" `Quick
           test_parallel_domains ]) ]

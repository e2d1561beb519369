(* fpvm_serve: serve a fleet of FPVM guests across OCaml domains.

   Reads a manifest (one guest per line, key=value tokens — see
   Fleet.Manifest), partitions the guests over --domains worker
   domains, and co-schedules each domain's shard cooperatively with
   batched trap delivery. Per-guest results stream to stdout as JSON
   lines while the fleet runs; a final aggregate object reports the
   modeled makespan, switch charges and fact-store sharing.

     fpvm_serve --manifest fleet.txt --domains 4
     fpvm_serve --manifest fleet.txt --domains 2 --batch 16 --verify-solo
     fpvm_serve --manifest fleet.txt --json > fleet.json

   Every guest's stats fingerprint is bit-identical to the same
   workload/flags run solo under fpvm_run; --verify-solo re-runs each
   guest solo after the fleet and exits 7 on any mismatch. *)

module J = Fpvm.Json

let guest_json (r : Fleet.guest_result) =
  let g = r.Fleet.r_guest in
  J.Obj
    ([ ("guest", J.Int g.Fleet.g_id);
       ("workload", J.Str g.Fleet.g_workload);
       ("arith", J.Str (Fleet.guest_arith g));
       ("scale", J.Str (Fleet.scale_string g.Fleet.g_scale));
       ("gc", J.Str ((Fpvm.Engine.front "gc").spell g.Fleet.g_config));
       ("domain", J.Int r.Fleet.r_domain);
       ("cycles", J.Int r.Fleet.r_cycles);
       ("insns", J.Int r.Fleet.r_insns);
       ("fp_insns", J.Int r.Fleet.r_fp_insns);
       ("output_bytes", J.Int (String.length r.Fleet.r_output)) ]
    @ Fpvm.Stats.to_json r.Fleet.r_stats
    @ [ ("fingerprint", J.Str r.Fleet.r_fingerprint) ])

let fleet_json (f : Fleet.fleet_result) =
  J.Obj
    (J.ints
       [ ("schema_version", 1);
         ("guests", List.length f.Fleet.f_results);
         ("domains", f.Fleet.f_domains);
         ("batch", f.Fleet.f_batch);
         ("switches", f.Fleet.f_switches);
         ("facts_hits", f.Fleet.f_facts_hits);
         ("facts_misses", f.Fleet.f_facts_misses);
         ("total_cycles", f.Fleet.f_total_cycles);
         ("makespan", f.Fleet.f_makespan);
         ("blocks_published", f.Fleet.f_blocks_published);
         ("blocks_shared", f.Fleet.f_blocks_shared);
         ("cyc_compile_shared", f.Fleet.f_cyc_compile_shared) ]
    @ [ ("domain_cycles",
         J.Arr (Array.to_list (Array.map (fun c -> J.Int c) f.Fleet.f_domain_cycles)));
        ("results", J.Arr (List.map guest_json f.Fleet.f_results)) ])

let serve manifest domains batch switch_cost flows verify_solo json quiet =
  match Fleet.validate_serve ~domains ~batch ~switch_cost with
  | Error m -> `Error (false, m)
  | Ok () -> (
      if manifest = "" then `Error (false, "--manifest FILE is required")
      else
        match Fleet.Manifest.load manifest with
        | Error m -> `Error (false, Printf.sprintf "%s: %s" manifest m)
        | Ok guests ->
            let on_result r =
              if not quiet then begin
                print_endline (J.to_string (guest_json r));
                flush stdout
              end
            in
            let fleet =
              Fleet.serve ~domains ~batch ~switch_cost ~flows ~on_result
                guests
            in
            if json then print_endline (J.to_string (fleet_json fleet))
            else begin
              Printf.eprintf
                "fleet: %d guests on %d domain(s), batch %d: makespan %d \
                 cycles (total %d, %.2fx), %d switches, facts %d shared / %d \
                 computed, blocks %d shared / %d compiled (%d cycles \
                 off-guest)\n"
                (List.length fleet.Fleet.f_results)
                domains batch fleet.Fleet.f_makespan fleet.Fleet.f_total_cycles
                (if fleet.Fleet.f_makespan > 0 then
                   float_of_int fleet.Fleet.f_total_cycles
                   /. float_of_int fleet.Fleet.f_makespan
                 else 0.)
                fleet.Fleet.f_switches fleet.Fleet.f_facts_hits
                fleet.Fleet.f_facts_misses fleet.Fleet.f_blocks_shared
                fleet.Fleet.f_blocks_published fleet.Fleet.f_cyc_compile_shared
            end;
            if not verify_solo then `Ok 0
            else begin
              (* Identity audit: every guest re-run solo (no scheduler,
                 no shared facts) must reproduce the fleet's output and
                 stats fingerprint bit-for-bit. *)
              let mismatches = ref 0 in
              List.iter
                (fun (r : Fleet.guest_result) ->
                  let solo = Fleet.run_solo r.Fleet.r_guest in
                  let sfp = Fpvm.Stats.fingerprint solo.Fpvm.Engine.stats in
                  let ok =
                    sfp = r.Fleet.r_fingerprint
                    && solo.Fpvm.Engine.output = r.Fleet.r_output
                    && solo.Fpvm.Engine.serialized = r.Fleet.r_serialized
                    (* compile-cycle conservation: a storeless solo run
                       pays on-guest exactly what the fleet guest saw
                       elided into its off-guest bucket *)
                    && solo.Fpvm.Engine.cycles
                       = r.Fleet.r_cycles
                         + r.Fleet.r_stats.Fpvm.Stats.cyc_compile_shared
                  in
                  if not ok then begin
                    incr mismatches;
                    Printf.eprintf
                      "MISMATCH guest %d (%s %s): fleet fingerprint %s != \
                       solo %s\n"
                      r.Fleet.r_guest.Fleet.g_id
                      r.Fleet.r_guest.Fleet.g_workload
                      (Fleet.guest_arith r.Fleet.r_guest)
                      r.Fleet.r_fingerprint sfp
                  end)
                fleet.Fleet.f_results;
              if !mismatches > 0 then begin
                Printf.eprintf
                  "verify-solo: %d of %d guests diverged from their solo run\n"
                  !mismatches
                  (List.length fleet.Fleet.f_results);
                `Ok 7
              end
              else begin
                if not quiet then
                  Printf.eprintf
                    "verify-solo: all %d guests bit-identical to solo runs\n"
                    (List.length fleet.Fleet.f_results);
                `Ok 0
              end
            end)

open Cmdliner

let manifest =
  let keys = List.map (fun f -> f.Fpvm.Engine.key) Fpvm.Engine.config_fronts in
  Arg.(value & opt string ""
       & info [ "m"; "manifest" ]
           ~doc:("Fleet manifest: one guest per line of key=value tokens \
                  (workload, arith, prec, posit, scale, count, "
                 ^ String.concat ", " keys ^ "). '#' starts a comment.")
           ~docv:"FILE")

let domains =
  Arg.(value & opt int 1
       & info [ "d"; "domains" ]
           ~doc:
             (Printf.sprintf
                "Worker domains to partition the fleet across (1 to %d)."
                Fleet.max_domains)
           ~docv:"N")

let batch =
  Arg.(value & opt int 8
       & info [ "batch" ]
           ~doc:"Trap deliveries a guest absorbs before yielding its domain \
                 (>= 1); larger batches amortize the modeled switch cost." ~docv:"B")

let switch_cost =
  Arg.(value & opt int Fleet.default_switch_cost
       & info [ "switch-cost" ]
           ~doc:"Modeled cycles charged to a domain per guest context switch." ~docv:"CYCLES")

let flows =
  Arg.(value & flag
       & info [ "flows" ]
           ~doc:"Attach a per-guest FP-exception flight recorder; its \
                 flows_* gauges then count in each guest's JSON line. \
                 Observation only: fingerprints are unchanged.")

let verify_solo =
  Arg.(value & flag
       & info [ "verify-solo" ]
           ~doc:"After the fleet completes, re-run every guest solo and \
                 compare output and stats fingerprint bit-for-bit; exit 7 \
                 on any mismatch.")

let json =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Print the aggregate fleet result as JSON to stdout.")

let quiet =
  Arg.(value & flag
       & info [ "q"; "quiet" ]
           ~doc:"Suppress the per-guest JSON result lines.")

let cmd =
  let doc = "serve a fleet of FPVM guests across OCaml domains" in
  Cmd.v (Cmd.info "fpvm_serve" ~doc)
    Term.(
      ret
        (const serve $ manifest $ domains $ batch $ switch_cost $ flows
       $ verify_solo $ json $ quiet))

let () = exit (Cmd.eval' cmd)

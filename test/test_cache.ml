(* The compilation-artifact cache (lib/core/artifact.ml, DESIGN.md 4j):
   warm==cold bit-identity across every port and GC mode, exact
   compile-cycle conservation, on-disk corruption/version/key
   rejection with silent cold fallback, fleet-wide dedup, composition
   with record/replay and checkpoint restore, and trap-and-patch
   invalidation propagating into the shared store. *)

module W = Workloads
module Art = Fpvm.Artifact
module CM = Machine.Cost_model

let prog_of w =
  match W.find w with
  | Some e -> e.W.program W.Test
  | None -> Alcotest.failf "unknown workload %s" w

let port_of ?(prec = 200) ?(posit = 32) arith =
  match Fleet.Port.of_flags ~arith ~prec ~posit with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let dc = Fpvm.Engine.default_config

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpvm-cache-test-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let fp (r : Fpvm.Engine.result) = Fpvm.Stats.fingerprint r.Fpvm.Engine.stats

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file f s =
  let oc = open_out_bin f in
  output_string oc s;
  close_out oc

(* ---- warm == cold identity, all ports x both GC modes ------------------ *)

let identity_one ~arith ~gc_inc () =
  let port = port_of arith in
  let d = Fleet.port_driver port in
  let config = { dc with Fpvm.Engine.incremental_gc = gc_inc } in
  let prog = prog_of "lorenz" in
  let dir = fresh_dir () in
  let key = d.Fleet.d_session_key ~config prog in
  (* storeless baseline: attaching an empty store must change nothing *)
  let solo = d.Fleet.d_run ~config prog in
  let cold_store = Art.create () in
  let cold = d.Fleet.d_run ~artifacts:cold_store ~config prog in
  Alcotest.(check string) "cold fingerprint == storeless" (fp solo) (fp cold);
  Alcotest.(check int) "cold cycles == storeless (publisher pays)"
    solo.Fpvm.Engine.cycles cold.Fpvm.Engine.cycles;
  Alcotest.(check bool) "save" true (Art.save cold_store ~dir ~key);
  let warm_store = Art.create () in
  Alcotest.(check bool) "load" true (Art.load warm_store ~dir ~key);
  let warm = d.Fleet.d_run ~artifacts:warm_store ~config prog in
  Alcotest.(check string) "warm output == cold" cold.Fpvm.Engine.output
    warm.Fpvm.Engine.output;
  Alcotest.(check string) "warm serialized == cold" cold.Fpvm.Engine.serialized
    warm.Fpvm.Engine.serialized;
  Alcotest.(check string) "warm fingerprint == cold" (fp cold) (fp warm);
  (* exact conservation: the warm run's cycles are the cold run's minus
     exactly the compile charges the store elided *)
  Alcotest.(check int) "cycles conservation"
    cold.Fpvm.Engine.cycles
    (warm.Fpvm.Engine.cycles
    + warm.Fpvm.Engine.stats.Fpvm.Stats.cyc_compile_shared);
  if cold.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles > 0 then begin
    Alcotest.(check int) "warm shares every block"
      cold.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles
      warm.Fpvm.Engine.stats.Fpvm.Stats.blocks_shared;
    Alcotest.(check int) "warm elides every compile cycle"
      (cold.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles
      * config.Fpvm.Engine.cost.CM.jit_compile)
      warm.Fpvm.Engine.stats.Fpvm.Stats.cyc_compile_shared
  end

let identity_tests =
  List.concat_map
    (fun arith ->
      List.map
        (fun gc_inc ->
          Alcotest.test_case
            (Printf.sprintf "warm==cold: %s gc=%s" arith
               (if gc_inc then "inc" else "full"))
            `Quick
            (identity_one ~arith ~gc_inc))
        [ true; false ])
    [ "vanilla"; "mpfr"; "posit"; "interval"; "slash" ]

(* ---- on-disk rejection and cold fallback ------------------------------- *)

let cold_save () =
  let d = Fleet.port_driver (port_of "vanilla") in
  let prog = prog_of "lorenz" in
  let dir = fresh_dir () in
  let key = d.Fleet.d_session_key ~config:dc prog in
  let store = Art.create () in
  let cold = d.Fleet.d_run ~artifacts:store ~config:dc prog in
  Alcotest.(check bool) "save" true (Art.save store ~dir ~key);
  (d, prog, dir, key, cold)

let check_rejected ~what (d : Fleet.driver) prog dir key cold =
  let store = Art.create () in
  Alcotest.(check bool) (what ^ " rejected") false (Art.load store ~dir ~key);
  (* the failed load left the store empty: the run is simply cold *)
  let r = d.Fleet.d_run ~artifacts:store ~config:dc prog in
  Alcotest.(check string) (what ^ ": fallback fingerprint == cold") (fp cold)
    (fp r);
  Alcotest.(check int) (what ^ ": fallback pays compiles on-guest")
    cold.Fpvm.Engine.cycles r.Fpvm.Engine.cycles;
  Alcotest.(check int) (what ^ ": nothing shared") 0
    r.Fpvm.Engine.stats.Fpvm.Stats.blocks_shared

let disk_tests =
  [ Alcotest.test_case "corrupted cache file -> cold fallback" `Quick
      (fun () ->
        let d, prog, dir, key, cold = cold_save () in
        let file = Art.file_for ~dir ~key in
        let s = read_file file in
        let b = Bytes.of_string s in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        write_file file (Bytes.to_string b);
        check_rejected ~what:"corrupt" d prog dir key cold);
    Alcotest.test_case "truncated cache file -> cold fallback" `Quick
      (fun () ->
        let d, prog, dir, key, cold = cold_save () in
        let file = Art.file_for ~dir ~key in
        let s = read_file file in
        write_file file (String.sub s 0 (String.length s / 3));
        check_rejected ~what:"truncated" d prog dir key cold);
    Alcotest.test_case "missing cache file -> cold fallback" `Quick
      (fun () ->
        let d, prog, dir, key, cold = cold_save () in
        let file = Art.file_for ~dir ~key in
        Sys.remove file;
        check_rejected ~what:"missing" d prog dir key cold);
    Alcotest.test_case "wrong format version -> cold fallback" `Quick
      (fun () ->
        let d, prog, dir, key, cold = cold_save () in
        let file = Art.file_for ~dir ~key in
        let s = read_file file in
        (* bump the version byte (right after the 8-byte magic) and
           re-seal the checksum, so rejection is for the version alone *)
        let body = Bytes.of_string (String.sub s 0 (String.length s - 8)) in
        Bytes.set body 8 (Char.chr (Char.code (Bytes.get body 8) + 1));
        let body = Bytes.to_string body in
        let b = Buffer.create (String.length s) in
        Buffer.add_string b body;
        Fpvm.Wire.i64 b (Fpvm.Wire.fnv64 Fpvm.Wire.fnv_basis body);
        write_file file (Buffer.contents b);
        check_rejected ~what:"version" d prog dir key cold);
    Alcotest.test_case
      "a version-1 cache file is rejected before its facts are read; so is version 2"
      `Quick (fun () ->
        let d, prog, dir, key, cold = cold_save () in
        (* Both old formats, hand-built with a valid trailer: version 1
           ended in a facts flag and a marshalled blob (an int here: a
           run on it as facts would crash); version 2 ended in the plan
           and decoded site lists (empty here). *)
        List.iter
          (fun version ->
            let b = Buffer.create 64 in
            Buffer.add_string b "FPVMART1";
            Fpvm.Wire.u8 b version;
            Fpvm.Wire.str b key;
            List.iter (Fpvm.Wire.varint b) [ 0; 0; 0 ];
            if version = 1 then begin
              Fpvm.Wire.bool_ b true;
              Fpvm.Wire.str b (Marshal.to_string 42 [])
            end;
            Fpvm.Wire.i64 b
              (Fpvm.Wire.fnv64 Fpvm.Wire.fnv_basis (Buffer.contents b));
            write_file (Art.file_for ~dir ~key) (Buffer.contents b);
            check_rejected
              ~what:(Printf.sprintf "version %d" version)
              d prog dir key cold)
          [ 1; 2 ]);
    Alcotest.test_case "a claimed path length allocates nothing" `Quick
      (fun () ->
        let dir = fresh_dir () and key = "claimed-length" in
        (* one recipe that claims 2^24 steps and carries one *)
        let b = Buffer.create 64 in
        Buffer.add_string b "FPVMART1";
        Fpvm.Wire.u8 b Art.format_version;
        Fpvm.Wire.str b key;
        Fpvm.Wire.varint b 1;
        Fpvm.Wire.varint b 0;
        Fpvm.Wire.i64 b 0L;
        Fpvm.Wire.varint b (1 lsl 24);
        Fpvm.Wire.varint b 0;
        Fpvm.Wire.bool_ b false;
        Fpvm.Wire.i64 b (Fpvm.Wire.fnv64 Fpvm.Wire.fnv_basis (Buffer.contents b));
        write_file (Art.file_for ~dir ~key) (Buffer.contents b);
        let store = Art.create () in
        let before = (Gc.quick_stat ()).Gc.major_words in
        let loaded = Art.load store ~dir ~key in
        let words = (Gc.quick_stat ()).Gc.major_words -. before in
        Alcotest.(check bool) "rejected" false loaded;
        Alcotest.(check int) "store left empty" 0 (Art.block_count store ~key);
        if words >= 1e6 then
          Alcotest.failf "load allocated %.0f major words" words);
    Alcotest.test_case "bytes after the last recipe -> cold fallback" `Quick
      (fun () ->
        let d, prog, dir, key, cold = cold_save () in
        let file = Art.file_for ~dir ~key in
        let s = read_file file in
        (* one stray byte before a re-sealed trailer *)
        let body = String.sub s 0 (String.length s - 8) ^ "\000" in
        let b = Buffer.create (String.length s + 1) in
        Buffer.add_string b body;
        Fpvm.Wire.i64 b (Fpvm.Wire.fnv64 Fpvm.Wire.fnv_basis body);
        write_file file (Buffer.contents b);
        check_rejected ~what:"trailing bytes" d prog dir key cold);
    Alcotest.test_case "stale key (different config) -> cold fallback" `Quick
      (fun () ->
        let d, prog, dir, key, cold = cold_save () in
        (* masquerade the valid file under another session's file name:
           the embedded key no longer matches the requested one *)
        let config2 =
          { dc with Fpvm.Engine.jit_threshold = dc.Fpvm.Engine.jit_threshold + 1 }
        in
        let key2 = d.Fleet.d_session_key ~config:config2 prog in
        Alcotest.(check bool) "distinct keys" true (key <> key2);
        let s = read_file (Art.file_for ~dir ~key) in
        write_file (Art.file_for ~dir ~key:key2) s;
        let store = Art.create () in
        Alcotest.(check bool) "stale key rejected" false
          (Art.load store ~dir ~key:key2);
        ignore cold)
  ]

(* ---- fleet-wide sharing ------------------------------------------------ *)

let fleet_tests =
  [ Alcotest.test_case "8 duplicate guests compile each block once" `Quick
      (fun () ->
        let g =
          { Fleet.g_id = 0; g_workload = "lorenz"; g_scale = W.Test;
            g_port = port_of "vanilla"; g_config = dc }
        in
        let guests = List.init 8 (fun i -> { g with Fleet.g_id = i }) in
        let f = Fleet.serve ~domains:2 guests in
        let solo = Fleet.run_solo g in
        let compiles = solo.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles in
        Alcotest.(check bool) "workload does compile blocks" true (compiles > 0);
        Alcotest.(check int) "each block published exactly once" compiles
          f.Fleet.f_blocks_published;
        Alcotest.(check int) "the other 7 guests share" (7 * compiles)
          f.Fleet.f_blocks_shared;
        Alcotest.(check int) "fleet compile bucket = 7x compile cost"
          (7 * compiles * dc.Fpvm.Engine.cost.CM.jit_compile)
          f.Fleet.f_cyc_compile_shared;
        List.iter
          (fun (r : Fleet.guest_result) ->
            Alcotest.(check string) "guest fingerprint == solo" (fp solo)
              r.Fleet.r_fingerprint;
            Alcotest.(check int) "per-guest cycle conservation"
              solo.Fpvm.Engine.cycles
              (r.Fleet.r_cycles + r.Fleet.r_stats.Fpvm.Stats.cyc_compile_shared))
          f.Fleet.f_results;
        (* fleet-wide ledger: elided cycles match the per-guest buckets *)
        Alcotest.(check int) "ledger"
          (List.fold_left
             (fun a (r : Fleet.guest_result) ->
               a + r.Fleet.r_stats.Fpvm.Stats.cyc_compile_shared)
             0 f.Fleet.f_results)
          f.Fleet.f_cyc_compile_shared);
    Alcotest.test_case "serve composes with a preloaded (warm) store" `Quick
      (fun () ->
        let g =
          { Fleet.g_id = 0; g_workload = "lorenz"; g_scale = W.Test;
            g_port = port_of "vanilla"; g_config = dc }
        in
        let d = Fleet.port_driver g.Fleet.g_port in
        let prog = prog_of "lorenz" in
        let dir = fresh_dir () in
        let key = d.Fleet.d_session_key ~config:dc prog in
        let store = Art.create () in
        let cold = d.Fleet.d_run ~artifacts:store ~config:dc prog in
        Alcotest.(check bool) "save" true (Art.save store ~dir ~key);
        let warm_store = Art.create () in
        Alcotest.(check bool) "load" true (Art.load warm_store ~dir ~key);
        let guests = List.init 4 (fun i -> { g with Fleet.g_id = i }) in
        let f = Fleet.serve ~domains:2 ~artifacts:warm_store guests in
        (* every guest claims every block from the preloaded store *)
        Alcotest.(check int) "no fresh publishes" 0 f.Fleet.f_blocks_published;
        Alcotest.(check int) "all blocks shared"
          (4 * cold.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles)
          f.Fleet.f_blocks_shared;
        List.iter
          (fun (r : Fleet.guest_result) ->
            Alcotest.(check string) "warm guest fingerprint == cold" (fp cold)
              r.Fleet.r_fingerprint)
          f.Fleet.f_results)
  ]

(* ---- record/replay and checkpoint composition -------------------------- *)

let compose_tests =
  [ Alcotest.test_case "warm record == cold record; replay matches both ways"
      `Quick (fun () ->
        let d = Fleet.port_driver (port_of "vanilla") in
        let prog = prog_of "lorenz" in
        let dir = fresh_dir () in
        let key = d.Fleet.d_session_key ~config:dc prog in
        let store = Art.create () in
        let cold = d.Fleet.d_run ~artifacts:store ~config:dc prog in
        Alcotest.(check bool) "save" true (Art.save store ~dir ~key);
        let meta =
          { Replay.Log.workload = "lorenz"; scale = "test"; arith = "vanilla";
            config = "cache-test" }
        in
        let rec_cold = d.Fleet.d_record ~checkpoint_every:0 ~meta ~config:dc prog in
        let warm_store = Art.create () in
        Alcotest.(check bool) "load" true (Art.load warm_store ~dir ~key);
        let rec_warm =
          d.Fleet.d_record ~artifacts:warm_store ~checkpoint_every:0 ~meta
            ~config:dc prog
        in
        (* the event stream is purely architectural, so the log bytes
           are identical whether the recorder ran warm or cold *)
        Alcotest.(check string) "log bytes identical"
          rec_cold.Replay.Session.log_bytes rec_warm.Replay.Session.log_bytes;
        Alcotest.(check string) "warm recording fingerprint == cold"
          (fp rec_cold.Replay.Session.result)
          (fp rec_warm.Replay.Session.result);
        Alcotest.(check int) "recording cycle conservation"
          rec_cold.Replay.Session.result.Fpvm.Engine.cycles
          (rec_warm.Replay.Session.result.Fpvm.Engine.cycles
          + rec_warm.Replay.Session.result.Fpvm.Engine.stats
              .Fpvm.Stats.cyc_compile_shared);
        let log = Replay.Log.of_string rec_warm.Replay.Session.log_bytes in
        (match d.Fleet.d_replay ~config:dc log prog with
        | Replay.Session.Match _ -> ()
        | Replay.Session.Diverged _ ->
            Alcotest.fail "storeless replay of a warm recording diverged");
        let replay_store = Art.create () in
        Alcotest.(check bool) "load" true (Art.load replay_store ~dir ~key);
        match d.Fleet.d_replay ~artifacts:replay_store ~config:dc log prog with
        | Replay.Session.Match r ->
            Alcotest.(check string) "warm replay fingerprint == cold" (fp cold)
              (fp r)
        | Replay.Session.Diverged _ ->
            Alcotest.fail "warm replay of a warm recording diverged");
    Alcotest.test_case "checkpoint restore composes with a warm store" `Quick
      (fun () ->
        let d = Fleet.port_driver (port_of "vanilla") in
        let prog = prog_of "lorenz" in
        let dir = fresh_dir () in
        let key = d.Fleet.d_session_key ~config:dc prog in
        let store = Art.create () in
        let cold = d.Fleet.d_run ~artifacts:store ~config:dc prog in
        Alcotest.(check bool) "save" true (Art.save store ~dir ~key);
        let meta =
          { Replay.Log.workload = "lorenz"; scale = "test"; arith = "vanilla";
            config = "cache-test" }
        in
        let rec_ = d.Fleet.d_record ~checkpoint_every:100 ~meta ~config:dc prog in
        Alcotest.(check bool) "recording produced checkpoints" true
          (rec_.Replay.Session.checkpoints <> []);
        let _, blob =
          List.nth rec_.Replay.Session.checkpoints
            (List.length rec_.Replay.Session.checkpoints - 1)
        in
        let resume_store = Art.create () in
        Alcotest.(check bool) "load" true (Art.load resume_store ~dir ~key);
        let r = d.Fleet.d_resume ~artifacts:resume_store ~config:dc prog blob in
        Alcotest.(check string) "resumed output == cold" cold.Fpvm.Engine.output
          r.Fpvm.Engine.output;
        Alcotest.(check string) "resumed fingerprint == cold" (fp cold) (fp r))
  ]

(* ---- trap-and-patch invalidation --------------------------------------- *)

let invalidate_tests =
  [ Alcotest.test_case "store-level: invalidate_site drops touching recipes"
      `Quick (fun () ->
        let store = Art.create () in
        let key = "k" in
        let path = [| (10, false); (11, true); (12, false) |] in
        Alcotest.(check bool) "first claim publishes" true
          (Art.claim_block store ~key ~head:10 ~digest:1L ~path ~cycles:1900
          = `Published);
        Alcotest.(check bool) "identical claim shares" true
          (Art.claim_block store ~key ~head:10 ~digest:1L ~path ~cycles:1900
          = `Shared);
        (* same head+digest but a different path is a different recipe *)
        Alcotest.(check bool) "path mismatch republishes" true
          (Art.claim_block store ~key ~head:10 ~digest:1L
             ~path:[| (10, false) |] ~cycles:1900
          = `Published);
        Alcotest.(check int) "two recipes live" 2 (Art.block_count store ~key);
        Alcotest.(check int) "site 11 drops only the touching recipe" 1
          (Art.invalidate_site store ~key ~site:11);
        Alcotest.(check int) "one recipe left" 1 (Art.block_count store ~key);
        Alcotest.(check int) "head site drops the rest" 1
          (Art.invalidate_site store ~key ~site:10);
        Alcotest.(check bool) "re-claim after invalidation republishes" true
          (Art.claim_block store ~key ~head:10 ~digest:1L ~path ~cycles:1900
          = `Published));
    Alcotest.test_case "trap-and-patch: invalidation propagates to the store"
      `Quick (fun () ->
        let d = Fleet.port_driver (port_of "vanilla") in
        let prog = prog_of "lorenz" in
        let config =
          { dc with Fpvm.Engine.approach = Fpvm.Engine.Trap_and_patch;
            jit_threshold = 1 }
        in
        let store = Art.create () in
        let r1 = d.Fleet.d_run ~artifacts:store ~config prog in
        Alcotest.(check bool) "run invalidates jit blocks" true
          (r1.Fpvm.Engine.stats.Fpvm.Stats.jit_invalidations > 0);
        let c = Art.counters store in
        Alcotest.(check bool) "invalidations propagated to the store" true
          (c.Art.c_invalidations > 0);
        Alcotest.(check int) "every compile claimed exactly once"
          r1.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles
          (c.Art.c_blocks_published + c.Art.c_blocks_shared);
        (* a second identical guest re-applies the same patches, and
           each patch drops any store recipe whose path crosses the
           patched site *before* the guest reaches its own compile
           point — so a patch-heavy run republishes rather than
           shares. Conservative invalidation trades sharing for
           soundness; behavior stays bit-identical throughout. *)
        let before = Art.counters store in
        let r2 = d.Fleet.d_run ~artifacts:store ~config prog in
        Alcotest.(check string) "second run fingerprint identical" (fp r1)
          (fp r2);
        let after = Art.counters store in
        Alcotest.(check int) "second run: every compile claimed exactly once"
          r2.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles
          (after.Art.c_blocks_published - before.Art.c_blocks_published
          + (after.Art.c_blocks_shared - before.Art.c_blocks_shared));
        Alcotest.(check bool) "second run re-propagates invalidations" true
          (after.Art.c_invalidations > before.Art.c_invalidations);
        let solo = d.Fleet.d_run ~config prog in
        Alcotest.(check int) "second-run cycle conservation"
          solo.Fpvm.Engine.cycles
          (r2.Fpvm.Engine.cycles
          + r2.Fpvm.Engine.stats.Fpvm.Stats.cyc_compile_shared))
  ]

(* ---- the recorded-path cap --------------------------------------------- *)

module EV = Fpvm.Engine.Make (Fpvm.Alt_vanilla)

let cap_tests =
  [ Alcotest.test_case "recorded paths respect the cap; outputs unchanged"
      `Quick (fun () ->
        (* traces of up to 256 instructions record windows longer than
           the cap, so some recordings are cut to exactly the cap *)
        let prog = prog_of "lorenz" in
        let cap = Fpvm.Engine.jit_max_trace_len in
        let store = Art.create () in
        let r256 =
          EV.run ~artifacts:store
            ~config:{ dc with Fpvm.Engine.max_trace_len = 256 } prog
        in
        (* a fresh store holds exactly the paths this run compiled *)
        let lens =
          Hashtbl.fold
            (fun _ entry acc ->
              Hashtbl.fold
                (fun _ recipes acc ->
                  List.map (fun rc -> Array.length rc.Art.rc_path) !recipes
                  @ acc)
                entry acc)
            store.Art.entries []
        in
        Alcotest.(check bool) "blocks were compiled" true (lens <> []);
        List.iter
          (fun n -> Alcotest.(check bool) "path length <= cap" true (n <= cap))
          lens;
        Alcotest.(check bool) "a recording was cut to the cap" true
          (List.mem cap lens);
        let r64 = EV.run ~config:dc prog in
        Alcotest.(check string) "output identical under any trace length"
          r64.Fpvm.Engine.output r256.Fpvm.Engine.output;
        Alcotest.(check string) "serialized identical under any trace length"
          r64.Fpvm.Engine.serialized r256.Fpvm.Engine.serialized);
    Alcotest.test_case "a trace length past the bound allocates nothing"
      `Quick (fun () ->
        (* prepare sizes a per-trace scratch buffer by max_trace_len:
           the whole-record check rejects the config before it *)
        let prog = prog_of "lorenz" in
        let before = (Gc.quick_stat ()).Gc.major_words in
        (match
           EV.prepare ~config:{ dc with Fpvm.Engine.max_trace_len = 1 lsl 20 }
             prog
         with
        | _ -> Alcotest.fail "prepare accepted max_trace_len 2^20"
        | exception Invalid_argument _ -> ());
        let words = (Gc.quick_stat ()).Gc.major_words -. before in
        if words >= 1e5 then
          Alcotest.failf "prepare allocated %.0f major words" words)
  ]

(* ---- content digests ---------------------------------------------------

   Session keys and cache files name a binary by [Art.content_digest], a
   hash of every instruction's printed text plus the data image. The ten
   stock binaries and their instrumented builds are pinned here, so a
   change to how instructions are rendered for hashing cannot silently
   re-key every cache. *)

let content_goldens =
  [ ("fbench", "74930e05173c92da", "dddbd191440bfc9f");
    ("lorenz", "13728bfbfe4f0180", "70fe2447381d9a33");
    ("three-body", "25eef7a586c10518", "e53916739b761153");
    ("miniAero", "22ed347977ad9b72", "95f690c8bc3cb14a");
    ("NAS IS", "3001b207664e2891", "e7113f723efb5ec7");
    ("NAS EP", "18c6f36fdbb7ee86", "44732788d2943dbf");
    ("NAS CG", "894d7758222026ea", "4110197bc3aaaea7");
    ("NAS MG", "07cd02e12abab9ea", "dceee49085fbf354");
    ("NAS LU", "760ca2874883275f", "21372a153fa88229");
    ("Enzo(astro)", "c2553bbc4e22b193", "10e19475a4ceded9") ]

let digest_tests =
  [ Alcotest.test_case "content_digest of the stock binaries" `Quick (fun () ->
        Alcotest.(check (list string)) "every stock workload is pinned"
          (List.map (fun (e : W.entry) -> e.W.name) W.all)
          (List.map (fun (n, _, _) -> n) content_goldens);
        List.iter
          (fun (name, plain, instr) ->
            let e = Option.get (W.find name) in
            let hex p = Printf.sprintf "%016Lx" (Art.content_digest p) in
            Alcotest.(check string) name plain (hex (e.W.program W.Test));
            Alcotest.(check string) (name ^ " instrumented") instr
              (hex (e.W.instrumented W.Test)))
          content_goldens) ]

let () =
  Alcotest.run "cache"
    [ ("identity", identity_tests);
      ("digest", digest_tests);
      ("disk", disk_tests);
      ("fleet", fleet_tests);
      ("compose", compose_tests);
      ("invalidate", invalidate_tests);
      ("trace-cap", cap_tests)
    ]

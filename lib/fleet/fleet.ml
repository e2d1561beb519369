(* Fleet serving: N virtualized guests co-scheduled on D OCaml domains.

   The paper's pitch is virtualizing FP hardware for *many* unmodified
   guests; this library is the many. Each guest is one fully private
   engine session (arena, plan cache, JIT state, stats — the Session
   refactor guarantees zero module-level globals), so guests compose
   with no cross-talk: a guest's deterministic counters, and hence its
   {!Fpvm.Stats.fingerprint}, are bit-identical to the same workload
   run solo under [fpvm_run] with the same flags.

   Three mechanisms make the fleet cheap rather than merely correct:

   - A shared read-only fact store ({!Facts}): the precision-tiered VSA
     analysis is a pure, index-based function of the pristine binary,
     so co-scheduled guests of the same workload pay for it once.
     Publication is safe by construction — facts are either computed
     before [Domain.spawn] (the spawn edge orders them) or inserted
     under the store's mutex.

   - Cooperative scheduling over quiesce points ({!Sched}): guests
     yield only at the end of a trap handler, the points checkpointing
     already proved are between-instructions with no handler frame
     live. An effect-based round-robin scheduler multiplexes guests on
     one domain with one-shot continuations; no guest state is shared.

   - Batched trap delivery: a guest yields every [batch] quiesce points
     rather than at every one, so the host-level switch cost (modeled,
     like every other cost here) is amortized across a batch of
     deliveries. Batching changes only *when* the scheduler runs, never
     what a guest computes: per-guest cycle accounting is untouched and
     the switch charge is carried in the fleet's makespan, outside
     every guest fingerprint.

   Throughput is measured in modeled cycles, consistent with the rest
   of the reproduction: a domain's makespan is the sum of its guests'
   modeled cycles plus the modeled switch charges, and the fleet's
   makespan is the worst domain's. Domains still execute genuinely in
   parallel (and the reentrancy suite runs them so), but the metric
   does not depend on host core count. *)

module W = Workloads
module P = Fpvm.Probe

(* ---- arithmetic ports ------------------------------------------------- *)

module Port = struct
  (* Which alternative arithmetic a guest runs under. Sized ports carry
     their size: two guests may run mpfr at different precisions in one
     process (the ports are functors, not globally-knobbed modules). *)
  type t =
    | Vanilla
    | Mpfr of int (* significand bits *)
    | Posit of int (* width: 8, 16, 32 *)
    | Interval
    | Slash of int (* num/den bit budget *)

  let to_string = function
    | Vanilla -> "vanilla"
    | Mpfr p -> Printf.sprintf "mpfr:%d" p
    | Posit n -> Printf.sprintf "posit:%d" n
    | Interval -> "interval"
    | Slash b -> Printf.sprintf "slash:%d" b

  (* The one validator of the arithmetic flags, for fpvm_run and fleet
     manifests alike: a size is checked only by the port that uses it. *)
  let of_flags ~arith ~prec ~posit : (t, string) result =
    match String.lowercase_ascii arith with
    | "native" | "vanilla" -> Ok Vanilla
    | "mpfr" ->
        if prec < 2 then Error (Printf.sprintf "prec must be >= 2 (got %d)" prec)
        else Ok (Mpfr prec)
    | "posit" ->
        if not (List.mem posit [ 8; 16; 32 ]) then
          Error (Printf.sprintf "posit must be 8, 16 or 32 (got %d)" posit)
        else Ok (Posit posit)
    | "interval" -> Ok Interval
    | "slash" ->
        if prec < 2 then Error (Printf.sprintf "prec must be >= 2 (got %d)" prec)
        else Ok (Slash prec)
    | a ->
        Error
          (Printf.sprintf
             "unknown arithmetic %S (native, vanilla, mpfr, posit, interval, slash)"
             a)

  let arith : t -> (module Fpvm.Arith.S) = function
    | Vanilla -> (module Fpvm.Alt_vanilla)
    | Mpfr prec ->
        let m = Fpvm.Alt_mpfr.make ~prec () in
        (module (val m))
    | Posit n ->
        let spec =
          match n with 8 -> Posit.posit8 | 16 -> Posit.posit16 | _ -> Posit.posit32
        in
        let m = Fpvm.Alt_posit.make ~spec () in
        (module (val m))
    | Interval -> (module Fpvm.Alt_interval)
    | Slash bits ->
        let m = Fpvm.Alt_slash.make ~bits () in
        (module (val m))

  (* Telemetry's numprof elision predicate ([~clean]) for [prog] under
     this port: the sites the FP tier proves birth-free. Those verdicts
     are binary64 facts. A slash value saturates to infinity at
     2^bits, so a slash op can birth an infinity where binary64 stays
     finite (NAS IS's [x * 5^13] passes 2^64): no slash site is clean. *)
  let clean port (a : Fpvm.Vsa.analysis) (prog : Machine.Program.t) =
    match port with
    | Slash _ -> None
    | Vanilla | Mpfr _ | Posit _ | Interval ->
        let born =
          Analysis.Fpa.born_free_array a.Fpvm.Vsa.fpa
            (Array.length prog.Machine.Program.insns)
        in
        Some (fun i -> i >= 0 && i < Array.length born && born.(i))
end

(* ---- the functor-erased driver ---------------------------------------- *)

(* Engine/session types are functor-specific, but [Replay.Session.
   recording] / [outcome] / [Fpvm.Engine.result] are shared, so a
   record of closures erases the functor. This is the single-guest API
   both fpvm_run (one driver, one guest) and the fleet (one driver per
   guest) build on. *)
type driver = {
  d_run :
    ?facts:Fpvm.Vsa.analysis ->
    ?instrument:(Fpvm.Probe.sink -> unit) ->
    ?artifacts:Fpvm.Artifact.t ->
    config:Fpvm.Engine.config ->
    Machine.Program.t ->
    Fpvm.Engine.result;
  d_record :
    ?facts:Fpvm.Vsa.analysis ->
    ?instrument:(Fpvm.Probe.sink -> unit) ->
    ?artifacts:Fpvm.Artifact.t ->
    checkpoint_every:int ->
    meta:Replay.Log.meta ->
    config:Fpvm.Engine.config ->
    Machine.Program.t ->
    Replay.Session.recording;
  d_replay :
    ?checkpoint:string ->
    ?instrument:(Fpvm.Probe.sink -> unit) ->
    ?facts:Fpvm.Vsa.analysis ->
    ?artifacts:Fpvm.Artifact.t ->
    config:Fpvm.Engine.config ->
    Replay.Log.t ->
    Machine.Program.t ->
    Replay.Session.outcome;
  d_resume :
    ?instrument:(Fpvm.Probe.sink -> unit) ->
    ?facts:Fpvm.Vsa.analysis ->
    ?artifacts:Fpvm.Artifact.t ->
    config:Fpvm.Engine.config ->
    Machine.Program.t ->
    string ->
    Fpvm.Engine.result;
  d_session_key : config:Fpvm.Engine.config -> Machine.Program.t -> string;
      (* the artifact-store key [Engine.prepare] derives for this port,
         config and (pristine) binary — exposed so callers can load and
         save the persistent cache for a session they are about to run *)
}

let driver (m : (module Fpvm.Arith.S)) : driver =
  let module A = (val m) in
  let module S = Replay.Session.Make (A) in
  {
    d_run =
      (fun ?facts ?instrument ?artifacts ~config prog ->
        (* prepare / instrument / resume, so telemetry attaches the
           same way it does around a checkpoint restore *)
        let ses = S.prepare ?facts ?artifacts ~config prog in
        Option.iter (fun f -> f (S.E.probe ses.S.E.eng)) instrument;
        S.E.resume ses);
    d_record =
      (fun ?facts ?instrument ?artifacts ~checkpoint_every ~meta ~config prog ->
        S.record ?facts ~checkpoint_every ?instrument ?artifacts ~meta ~config
          prog);
    d_replay =
      (fun ?checkpoint ?instrument ?facts ?artifacts ~config log prog ->
        S.replay ?checkpoint ?instrument ?facts ?artifacts ~config log prog);
    d_resume =
      (fun ?instrument ?facts ?artifacts ~config prog blob ->
        S.resume_from ?instrument ?facts ?artifacts ~config prog blob);
    d_session_key =
      (fun ~config prog ->
        Fpvm.Artifact.session_key ~port:A.name
          ~flags:(Fpvm.Engine.config_flags config) prog);
  }

let port_driver p = driver (Port.arith p)

(* ---- shared read-only fact store -------------------------------------- *)

module Facts = struct
  (* VSA analyses keyed by workload identity. The analysis is a pure
     function of the instruction array and its products are
     index-based, so one analysis of the pristine binary serves every
     session of that workload regardless of port, GC mode or flags
     ([Engine.prepare] applies the patches to each session's private
     program copy).

     Publication rules (see DESIGN.md 4h): entries inserted before
     [Domain.spawn] are ordered by the spawn edge; entries inserted
     during a fleet run are inserted and looked up under [mu]. The
     store is add-only and values are immutable once published. *)
  type t = {
    mu : Mutex.t;
    tbl : (string, Fpvm.Vsa.analysis) Hashtbl.t;
    mutable hits : int; (* lookups served without re-analysis *)
    mutable misses : int; (* analyses actually run *)
  }

  let create () = { mu = Mutex.create (); tbl = Hashtbl.create 16; hits = 0; misses = 0 }

  (* The store key: workload identity *plus* the analysis tier stack's
     version. Keying by workload@scale alone would let a fleet whose
     processes span an analysis upgrade (e.g. a checkpoint-resumed
     guest built before the FP tier existed) read facts that lack the
     tiers its consumers ask for — the version suffix makes old and
     new facts distinct entries instead of silent aliases. *)
  let key_for ~workload ~scale =
    Printf.sprintf "%s@%s#t%d" workload scale Fpvm.Vsa.tier_version

  let get t ~key (prog : Machine.Program.t) : Fpvm.Vsa.analysis =
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some a ->
            t.hits <- t.hits + 1;
            a
        | None ->
            let a = Fpvm.Vsa.analyze prog in
            t.misses <- t.misses + 1;
            Hashtbl.replace t.tbl key a;
            a)
end

(* ---- cooperative scheduler -------------------------------------------- *)

module Sched = struct
  type _ Effect.t += Yield : unit Effect.t

  (* Give up the domain until the round-robin comes back around. Only
     meaningful under [run]; a yield with no scheduler installed is a
     programming error and raises [Effect.Unhandled]. *)
  let yield () = Effect.perform Yield

  (* Round-robin the thunks on the current domain. Trampolined: a
     yield enqueues the one-shot continuation and unwinds to the drain
     loop, so the stack stays flat no matter how many times guests
     switch. Completion order is deterministic (queue order), which
     the reentrancy suite relies on. *)
  let run (thunks : (unit -> unit) list) : unit =
    let open Effect.Deep in
    let q : (unit -> unit) Queue.t = Queue.create () in
    List.iter
      (fun t ->
        Queue.add
          (fun () ->
            match_with t ()
              {
                retc = (fun () -> ());
                exnc = raise;
                effc =
                  (fun (type a) (eff : a Effect.t) ->
                    match eff with
                    | Yield ->
                        Some
                          (fun (k : (a, _) continuation) ->
                            Queue.add (fun () -> continue k ()) q)
                    | _ -> None);
              })
          q)
      thunks;
    while not (Queue.is_empty q) do
      (Queue.pop q) ()
    done
end

(* ---- guests ------------------------------------------------------------ *)

type guest = {
  g_id : int; (* stable fleet-wide index (manifest order) *)
  g_workload : string; (* resolved workload name (W.find succeeded) *)
  g_scale : W.scale;
  g_port : Port.t;
  g_config : Fpvm.Engine.config;
}

let guest_arith (g : guest) = Port.to_string g.g_port

let scale_string = function W.Test -> "test" | W.S -> "s"

(* The one reader of a scale spelling, for fpvm_run's [--scale] and a
   manifest's [scale=]: test or s, in any case. *)
let scale_of_string v =
  match String.lowercase_ascii v with
  | "test" -> Ok W.Test
  | "s" -> Ok W.S
  | _ -> Error (Printf.sprintf "scale must be test or s (got %S)" v)

(* One guest's outcome. Everything here is functor-free; the
   fingerprint is the engine's 42-counter deterministic stats string,
   the bit-identity witness against a solo run, and [r_stats] carries
   every other metric (the fingerprint-excluded gauges included; the
   flows_* gauges are zero unless [serve ~flows:true] attached a
   per-guest recorder). *)
type guest_result = {
  r_guest : guest;
  r_domain : int; (* domain the guest ran on *)
  r_cycles : int;
  r_insns : int;
  r_fp_insns : int;
  r_output : string;
  r_serialized : string;
  r_fingerprint : string;
  r_stats : Fpvm.Stats.t;
}

(* ---- manifest ---------------------------------------------------------- *)

module Manifest = struct
  (* One guest per line, whitespace-separated [key=value] tokens:

       workload=lorenz arith=mpfr prec=200 gc=inc jit=on count=2

     Keys: workload (required); arith (vanilla|mpfr|posit|interval|
     slash, default vanilla); prec (mpfr/slash size, default 200);
     posit (8|16|32, default 32); scale (test|s, default test); count
     (replicate the guest N times, default 1); and the engine's config
     keys, read by [Fpvm.Engine.set] as fpvm_run's flags are ([gc=full]
     is [--full-gc]). '#' starts a comment; blank lines are ignored.

     Workload names are matched case-insensitively; since tokens are
     whitespace-separated, names containing spaces are written with
     '-' or '_' in their place ([workload=nas-cg] resolves to
     "NAS CG"). *)

  (* [parse] expands every line's count into guests before any runs,
     so a line's count and the manifest's guest total are bounded. *)
  let max_count = 4096
  let max_guests = 65536

  (* Parse one guest line into (guest-sans-id, count). *)
  let parse_line ~line (s : string) : (guest * int, string) result =
    let workload = ref None and arith = ref "vanilla" and prec = ref 200 in
    let posit = ref 32 and scale = ref W.Test and count = ref 1 in
    let config = ref Fpvm.Engine.default_config in
    let ( let* ) = Result.bind in
    let int key v =
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "%s must be an integer (got %S)" key v)
    in
    let apply (key, v) =
      match key with
      | "workload" -> Ok (workload := Some v)
      | "arith" -> Ok (arith := v)
      | "prec" -> Result.map (( := ) prec) (int key v)
      | "posit" -> Result.map (( := ) posit) (int key v)
      | "scale" -> Result.map (( := ) scale) (scale_of_string v)
      | "count" ->
          let* n = int key v in
          if n < 1 then Error (Printf.sprintf "count must be >= 1 (got %d)" n)
          else if n > max_count then
            Error (Printf.sprintf "count must be <= %d (got %d)" max_count n)
          else Ok (count := n)
      | k -> Result.map (( := ) config) (Fpvm.Engine.set !config k v)
    in
    let toks =
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun t -> t <> "")
    in
    Result.map_error (Printf.sprintf "line %d: %s" line)
    @@ let* () =
         List.fold_left
           (fun acc tok ->
             let* () = acc in
             match String.index_opt tok '=' with
             | None -> Error (Printf.sprintf "expected key=value, got %S" tok)
             | Some i ->
                 apply
                   ( String.sub tok 0 i,
                     String.sub tok (i + 1) (String.length tok - i - 1) ))
           (Ok ()) toks
       in
       match !workload with
       | None -> Error "missing workload="
       | Some workload ->
           let* entry =
             (* A manifest token cannot contain spaces, so '-'/'_' stand
                in for them when the spelled name does not resolve. *)
             let despaced =
               String.map (fun c -> if c = '-' || c = '_' then ' ' else c) workload
             in
             match W.find workload with
             | Some e -> Ok e
             | None -> (
                 match W.find despaced with
                 | Some e -> Ok e
                 | None -> Error (Printf.sprintf "unknown workload %S" workload))
           in
           let* port = Port.of_flags ~arith:!arith ~prec:!prec ~posit:!posit in
           Ok
             ( { g_id = 0; g_workload = entry.W.name; g_scale = !scale;
                 g_port = port; g_config = !config },
               !count )

  let parse (content : string) : (guest list, string) result =
    let ( let* ) = Result.bind in
    let lines = String.split_on_char '\n' content in
    let* specs, _ =
      List.fold_left
        (fun acc (line_no, raw) ->
          let* acc, total = acc in
          let s =
            match String.index_opt raw '#' with
            | Some i -> String.sub raw 0 i
            | None -> raw
          in
          if String.trim s = "" then Ok (acc, total)
          else
            let* ((_, count) as g) = parse_line ~line:line_no s in
            if total + count > max_guests then
              Error
                (Printf.sprintf "line %d: the manifest has more than %d guests"
                   line_no max_guests)
            else Ok (g :: acc, total + count))
        (Ok ([], 0))
        (List.mapi (fun i l -> (i + 1, l)) lines)
    in
    let specs = List.rev specs in
    if specs = [] then Error "manifest defines no guests"
    else begin
      let id = ref (-1) in
      Ok
        (List.concat_map
           (fun (g, count) ->
             List.init count (fun _ ->
                 incr id;
                 { g with g_id = !id }))
           specs)
    end

  let load (path : string) : (guest list, string) result =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | content -> parse content
    | exception Sys_error msg -> Error msg
  end

(* ---- the fleet --------------------------------------------------------- *)

(* Modeled cost of parking one guest and installing the next on a
   domain (context save/restore of the virtualized FP state, run-queue
   traffic). Charged to the domain's makespan, never to a guest. *)
let default_switch_cost = 400

type fleet_result = {
  f_results : guest_result list; (* in guest (manifest) order *)
  f_domains : int;
  f_batch : int;
  f_switches : int; (* guest context switches, fleet-wide *)
  f_facts_hits : int; (* analyses shared via the fact store *)
  f_facts_misses : int; (* analyses actually computed *)
  f_domain_cycles : int array; (* per-domain modeled makespan *)
  f_makespan : int; (* max over domains *)
  f_total_cycles : int; (* sum of per-guest cycles *)
  (* compilation-artifact sharing (the fleet-level compile bucket):
     every superblock's compile charge lands in exactly one guest's
     cycles (the publisher's); later identical compiles are elided into
     f_cyc_compile_shared, outside every makespan term *)
  f_blocks_published : int;
  f_blocks_shared : int;
  f_cyc_compile_shared : int;
}

(* Every requested domain is spawned, an OS thread each, even for an
   empty shard, and OCaml 5 refuses a domain past its 128th live one;
   the margin leaves room for the host process's own. *)
let max_domains = 64

let validate_serve ~domains ~batch ~switch_cost : (unit, string) result =
  if domains < 1 then
    Error (Printf.sprintf "--domains must be >= 1 (got %d)" domains)
  else if domains > max_domains then
    Error
      (Printf.sprintf "--domains must be <= %d (got %d)" max_domains domains)
  else if batch < 1 then
    Error (Printf.sprintf "--batch must be >= 1 (got %d)" batch)
  else if switch_cost < 0 then
    (* a negative charge would bring a makespan below its guests' cycles *)
    Error (Printf.sprintf "--switch-cost must be >= 0 (got %d)" switch_cost)
  else Ok ()

(* Partition guest indices across [domains] shards balancing the given
   weights: longest-processing-time greedy (sort descending, always
   give the next guest to the lightest shard). With uniform weights
   this degenerates to round-robin. Returns shards of guest indices,
   each ascending, so co-scheduling order within a domain is stable
   regardless of weights. *)
let partition ~domains (weights : int array) : int list array =
  let n = Array.length weights in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare weights.(b) weights.(a) with
      | 0 -> compare a b
      | c -> c)
    order;
  let load = Array.make domains 0 in
  let shards = Array.make domains [] in
  Array.iter
    (fun g ->
      let lightest = ref 0 in
      for d = 1 to domains - 1 do
        if load.(d) < load.(!lightest) then lightest := d
      done;
      load.(!lightest) <- load.(!lightest) + weights.(g);
      shards.(!lightest) <- g :: shards.(!lightest))
    order;
  Array.map (fun l -> List.sort compare l) shards

(* Run one guest to completion on the current domain, yielding to the
   co-scheduled guests every [batch] quiesce points. When [flows] is
   set, a per-guest flight recorder rides the same instrument hook and
   lands its gauges in the guest's stats (observation only: the
   fingerprint is recorder-invariant). *)
let run_guest ~batch ~flows ~facts ~artifacts ~on_switch (g : guest) :
    Fpvm.Engine.result =
  let entry =
    match W.find g.g_workload with
    | Some e -> e
    | None -> invalid_arg ("fleet: unknown workload " ^ g.g_workload)
  in
  let prog = entry.W.program g.g_scale in
  let key =
    Facts.key_for ~workload:g.g_workload ~scale:(scale_string g.g_scale)
  in
  let a = Facts.get facts ~key prog in
  let d = port_driver g.g_port in
  let quiesces = ref 0 in
  let tel = if flows then Some (Telemetry.create ~flows:true ()) else None in
  let r =
    d.d_run ~facts:a ~artifacts
      ~instrument:(fun sink ->
        P.add_quiesce sink (fun _st ->
            incr quiesces;
            if !quiesces >= batch then begin
              quiesces := 0;
              on_switch ();
              Sched.yield ()
            end);
        Option.iter (fun t -> Telemetry.attach t sink) tel)
      ~config:g.g_config prog
  in
  Option.iter (fun t -> Telemetry.finalize t r.Fpvm.Engine.stats) tel;
  r

(* Run one domain's shard cooperatively; returns results in shard
   order plus the switch count. *)
let run_shard ~batch ~flows ~facts ~artifacts ~domain_id
    (guests : guest list) : guest_result list * int =
  let switches = ref 0 in
  let out = Array.make (List.length guests) None in
  Sched.run
    (List.mapi
       (fun i g () ->
         let r =
           run_guest ~batch ~flows ~facts ~artifacts
             ~on_switch:(fun () -> incr switches)
             g
         in
         out.(i) <-
           Some
             { r_guest = g;
               r_domain = domain_id;
               r_cycles = r.Fpvm.Engine.cycles;
               r_insns = r.Fpvm.Engine.insns;
               r_fp_insns = r.Fpvm.Engine.fp_insns;
               r_output = r.Fpvm.Engine.output;
               r_serialized = r.Fpvm.Engine.serialized;
               r_fingerprint = Fpvm.Stats.fingerprint r.Fpvm.Engine.stats;
               r_stats = r.Fpvm.Engine.stats })
       guests);
  ( Array.to_list out
    |> List.map (function
         | Some r -> r
         | None -> invalid_arg "fleet: guest produced no result"),
    !switches )

(* Serve the fleet: partition [guests] over [domains] OCaml domains and
   run every guest to completion.

   [weights] (optional, one per guest) drives the LPT partitioner —
   pass measured per-guest cycles from a previous run for near-optimal
   balance; default is uniform (round-robin). [on_result] streams each
   guest's result as it completes; it is called from worker domains
   under an internal mutex, in completion order. *)
let serve ?(domains = 1) ?(batch = 8) ?(switch_cost = default_switch_cost)
    ?(flows = false) ?weights ?on_result ?artifacts (guests : guest list) :
    fleet_result =
  (match validate_serve ~domains ~batch ~switch_cost with
  | Ok () -> ()
  | Error m -> invalid_arg ("fleet: " ^ m));
  if guests = [] then invalid_arg "fleet: no guests";
  let n = List.length guests in
  let garr = Array.of_list guests in
  let weights =
    match weights with
    | Some w when Array.length w = n -> w
    | Some _ -> invalid_arg "fleet: weights length <> guest count"
    | None -> Array.make n 1
  in
  let facts = Facts.create () in
  (* The shared artifact store: the caller's (which may hold entries
     loaded from a cache file) or fresh per fleet. Guests publish and
     claim under the store's mutex; the spawn edge orders any preloaded
     entries. *)
  let artifacts =
    match artifacts with Some a -> a | None -> Fpvm.Artifact.create ()
  in
  (* Pre-publish the shared facts before spawning: every distinct
     workload is analyzed exactly once, and the spawn edge makes the
     table safely visible to every worker domain (read-only there —
     all keys already present, so workers only take the mutex briefly
     for lookups). *)
  List.iter
    (fun g ->
      match W.find g.g_workload with
      | Some e ->
          let key =
            Facts.key_for ~workload:g.g_workload
              ~scale:(scale_string g.g_scale)
          in
          ignore (Facts.get facts ~key (e.W.program g.g_scale))
      | None -> invalid_arg ("fleet: unknown workload " ^ g.g_workload))
    guests;
  let shards = partition ~domains weights in
  let emit_mu = Mutex.create () in
  let emit r =
    match on_result with
    | None -> ()
    | Some f -> Mutex.protect emit_mu (fun () -> f r)
  in
  let run_dom d () =
    let gl = List.map (fun i -> garr.(i)) shards.(d) in
    if gl = [] then ([], 0)
    else begin
      let rs, sw = run_shard ~batch ~flows ~facts ~artifacts ~domain_id:d gl in
      List.iter emit rs;
      (rs, sw)
    end
  in
  let per_dom =
    if domains = 1 then [| run_dom 0 () |]
    else begin
      let handles =
        Array.init domains (fun d -> Domain.spawn (fun () -> run_dom d ()))
      in
      Array.map Domain.join handles
    end
  in
  let all = Array.to_list per_dom |> List.concat_map fst in
  let switches = Array.fold_left (fun a (_, s) -> a + s) 0 per_dom in
  let domain_cycles =
    Array.map
      (fun (rs, sw) ->
        List.fold_left (fun a r -> a + r.r_cycles) 0 rs + (sw * switch_cost))
      per_dom
  in
  let by_id = List.sort (fun a b -> compare a.r_guest.g_id b.r_guest.g_id) all in
  (* Exact conservation of the compile-cycle ledger (DESIGN.md 4j):
     every jit compile across the fleet claimed the store exactly once,
     and every cycle the store says it elided is accounted in exactly
     one guest's cyc_compile_shared bucket. *)
  let c = Fpvm.Artifact.counters artifacts in
  let sum f = List.fold_left (fun a r -> a + f r) 0 by_id in
  assert (
    c.Fpvm.Artifact.c_blocks_published + c.Fpvm.Artifact.c_blocks_shared
    = sum (fun r -> r.r_stats.Fpvm.Stats.jit_compiles));
  assert (
    c.Fpvm.Artifact.c_cyc_elided
    = sum (fun r -> r.r_stats.Fpvm.Stats.cyc_compile_shared));
  { f_results = by_id;
    f_domains = domains;
    f_batch = batch;
    f_switches = switches;
    f_facts_hits = facts.Facts.hits;
    f_facts_misses = facts.Facts.misses;
    f_domain_cycles = domain_cycles;
    f_makespan = Array.fold_left max 0 domain_cycles;
    f_total_cycles = List.fold_left (fun a r -> a + r.r_cycles) 0 by_id;
    f_blocks_published = c.Fpvm.Artifact.c_blocks_published;
    f_blocks_shared = c.Fpvm.Artifact.c_blocks_shared;
    f_cyc_compile_shared = c.Fpvm.Artifact.c_cyc_elided }

(* Solo baseline for one guest: same flags, same facts discipline
   (facts change nothing bit-wise), no scheduler — exactly what
   [fpvm_run -w ... ] produces. The identity witness. *)
let run_solo (g : guest) : Fpvm.Engine.result =
  let entry =
    match W.find g.g_workload with
    | Some e -> e
    | None -> invalid_arg ("fleet: unknown workload " ^ g.g_workload)
  in
  let d = port_driver g.g_port in
  d.d_run ~config:g.g_config (entry.W.program g.g_scale)

(* Facade: build the requested collectors, attach them to an engine's
   probe sink, and fold the (non-deterministic-safe) gauges into Stats
   at the end of the run.

   Determinism contract: telemetry only *reads* machine state — every
   collector consumes the probe payloads (ints and demoted images) and
   writes only its own tables, never the arena, the stats counters the
   fingerprint covers, or machine state. The [tel_events]/[tel_dropped]
   gauges written by {!finalize} are excluded from
   [Stats.fingerprint] and from checkpoints, so a run fingerprints
   identically with telemetry on or off, and a recorded run replays
   identically under instrumentation. *)

(* Re-export the collectors and the structures they share: [telemetry]
   is a wrapped library, so this module is its public face. *)
module Store = Store
module Trace = Trace
module Profile = Profile
module Numprof = Numprof
module Flowrec = Flowrec

type t = {
  trace : Trace.t option;
  profile : Profile.t option;
  numprof : Numprof.t option;
  flows : Flowrec.t option;
  mutable events : int; (* total events observed on both channels *)
}

let create ?(trace = false) ?trace_capacity ?(profile = false)
    ?(numprof = false) ?(shadow = false) ?clean ?static_candidates
    ?(flows = false) ?flow_capacity () =
  { trace = (if trace then Some (Trace.create ?capacity:trace_capacity ())
             else None);
    profile = (if profile then Some (Profile.create ()) else None);
    numprof =
      (if numprof || shadow then
         Some (Numprof.create ~shadow ?clean ?static_candidates ())
       else None);
    flows =
      (if flows then Some (Flowrec.create ?capacity:flow_capacity ())
       else None);
    events = 0 }

let enabled t =
  t.trace <> None || t.profile <> None || t.numprof <> None
  || t.flows <> None

(* Install the collectors on a probe sink. Call between [prepare] (or
   checkpoint [restore]) and [resume]. All channels compose: replay
   callbacks live on separate fields, and any callback already on a
   shared channel (another collector, a fleet scheduler) keeps running
   first. *)
let attach t (sink : Fpvm.Probe.sink) =
  if t.trace <> None || t.profile <> None then
    Fpvm.Probe.add_tel sink (fun st ev ->
        t.events <- t.events + 1;
        (match t.trace with
        | Some tr -> Trace.record tr ~ts:st.Machine.State.cycles ev
        | None -> ());
        match t.profile with
        | Some p -> Profile.record p ev
        | None -> ());
  (match t.numprof with
  | None -> ()
  | Some np ->
      Fpvm.Probe.add_num sink (fun _st ev ->
          t.events <- t.events + 1;
          Numprof.record np ev));
  match t.flows with
  | None -> ()
  | Some fr ->
      (* the flight recorder needs the replay-event position to pin
         each birth for the bisector; counting [on_event] composes with
         (and runs after) any recorder already installed *)
      Fpvm.Probe.add_event sink (fun _st _ev -> Flowrec.saw_event fr);
      Fpvm.Probe.add_num sink (fun st ev ->
          t.events <- t.events + 1;
          Flowrec.record fr ~cycles:st.Machine.State.cycles ev)

(* Copy the observation gauges into the run's stats (all excluded from
   the fingerprint and from checkpoints). *)
let finalize t (stats : Fpvm.Stats.t) =
  stats.Fpvm.Stats.tel_events <- t.events;
  stats.Fpvm.Stats.tel_dropped <-
    (match t.trace with Some tr -> Trace.dropped tr | None -> 0);
  (match t.numprof with
  | Some np ->
      stats.Fpvm.Stats.shadow_elided <- np.Numprof.elided;
      stats.Fpvm.Stats.fpa_nan_violations <- np.Numprof.nan_violations
  | None -> ());
  match t.flows with
  | Some fr ->
      let opn, comp, drop = Flowrec.gauges fr in
      stats.Fpvm.Stats.flows_open <- opn;
      stats.Fpvm.Stats.flows_completed <- comp;
      stats.Fpvm.Stats.flows_dropped <- drop;
      let real, spurious = Flowrec.truth_counts fr in
      stats.Fpvm.Stats.flows_real <- real;
      stats.Fpvm.Stats.flows_spurious <- spurious
  | None -> ()

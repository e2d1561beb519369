(* Bounded ring buffer of structural telemetry events, timestamped with
   modeled cycles (State.cycles at emission — never wall clock, so a
   trace taken from a recorded run and from its replay are identical).

   The ring is the shared drop-oldest one ({!Store.Ring}): its slots
   are preallocated and keep the engine's event records as emitted, so
   recording allocates nothing of its own. When the ring is full the
   oldest event is overwritten and counted as dropped; the exporter
   tolerates the orphaned window edges this can produce.

   The per-emulation and per-patch-check events (T_emulate /
   T_patch_check) are deliberately NOT recorded here: they fire once per
   emulated instruction and would evict everything else from the ring in
   a few thousand cycles of hot loop. The profiler consumes them; the
   ring keeps the structural story (deliveries, trace windows, plan
   traffic, GC, correctness traps). *)

module P = Fpvm.Probe

(* Each slot keeps the engine's event as emitted, stamped with its
   modeled-cycle time. *)
type slot = { mutable ts : int; mutable ev : P.tel }
type t = slot Store.Ring.t

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  Store.Ring.create (max 1 capacity) (fun () ->
      { ts = 0; ev = P.T_checkpoint { seq = 0; bytes = 0 } })

let recorded = Store.Ring.recorded
let dropped = Store.Ring.dropped
let length = Store.Ring.length

(* Record one probe event. Per-emulation noise (T_emulate,
   T_patch_check) is filtered; everything else lands in the ring. A
   T_jit_exec is one slot per block execution, bounded by deliveries
   and links: structural like trace windows, not per-instruction
   noise. *)
let record t ~ts (ev : P.tel) =
  match ev with
  | P.T_emulate _ | P.T_patch_check _ -> ()
  | _ ->
      let s = Store.Ring.next t in
      s.ts <- ts;
      s.ev <- ev

(* ---- Chrome/Perfetto trace-event export ------------------------------- *)

(* The trace-event format (catapult "JSON Object Format"): an object
   with a [traceEvents] array; each event carries ph (phase), ts
   (microsecond-ish timestamp — we emit modeled cycles), pid/tid, name,
   cat and args. Duration events use ph "X" with [dur]; trace windows
   use matched "B"/"E" pairs; everything else is an instant ("i").
   Perfetto and chrome://tracing both load this shape. *)

let schema_version = 1

module J = Fpvm.Json

(* One trace event; instants are thread-scoped. *)
let event ~ph ~ts ?dur ~name ~cat args =
  J.Obj
    ([ ("ph", J.Str ph); ("ts", J.Int ts); ("pid", J.Int 1); ("tid", J.Int 1) ]
    @ (match dur with Some d -> [ ("dur", J.Int d) ] | None -> [])
    @ (if ph = "i" then [ ("s", J.Str "t") ] else [])
    @ [ ("name", J.Str name); ("cat", J.Str cat) ]
    @ if args = [] then [] else [ ("args", J.Obj args) ])

(* [extra] events are appended to the [traceEvents] array (e.g.
   Flowrec's flow arrows), so this module does not depend on their
   producer. *)
let export_json ?(extra = []) t =
  let events = ref [] in
  let ev ~ph ~ts ?dur ~name ~cat args =
    events := event ~ph ~ts ?dur ~name ~cat args :: !events
  in
  (* Trace windows never nest (absorbed faults do not re-deliver and a
     correctness trap is a trace terminator), so depth is 0 or 1. A
     leading "E" whose "B" was overwritten by the ring is skipped. *)
  let depth = ref 0 and last_ts = ref 0 in
  let site index = ("site", J.Int index) in
  let flags bits = J.Str (String.concat "+" (Ieee754.Flags.names bits)) in
  Store.Ring.iter t (fun { ts; ev = e } ->
      last_ts := ts;
      let span ~name ~cat d args =
        ev ~ph:"X" ~ts:(max 0 (ts - d)) ~dur:d ~name ~cat args
      in
      let instant ~name ~cat args = ev ~ph:"i" ~ts ~name ~cat args in
      match e with
      | P.T_emulate _ | P.T_patch_check _ -> ()
      | P.T_trap { index; events; delivery } ->
          span ~name:"trap" ~cat:"delivery" delivery
            [ site index; ("events", flags events) ]
      | P.T_absorbed { index; events } ->
          instant ~name:"absorbed" ~cat:"trace"
            [ site index; ("events", flags events) ]
      | P.T_trace_enter { index } ->
          if !depth = 0 then begin
            incr depth;
            ev ~ph:"B" ~ts ~name:"trace" ~cat:"trace" [ site index ]
          end
      | P.T_trace_exit { index; insns; step_cycles; exit_cycles } ->
          if !depth > 0 then begin
            decr depth;
            ev ~ph:"E" ~ts ~name:"trace" ~cat:"trace"
              [ site index; ("insns", J.Int insns);
                ("step_cycles", J.Int step_cycles);
                ("exit_cycles", J.Int exit_cycles) ]
          end
      | P.T_plan_hit { index } ->
          instant ~name:"plan_hit" ~cat:"plan" [ site index ]
      | P.T_plan_miss { index } ->
          instant ~name:"plan_miss" ~cat:"plan" [ site index ]
      | P.T_plan_invalidate { index } ->
          instant ~name:"plan_invalidate" ~cat:"plan" [ site index ]
      | P.T_gc { full; freed; words; cycles } ->
          span ~name:(if full then "gc_full" else "gc") ~cat:"gc" cycles
            [ ("freed", J.Int freed); ("words", J.Int words) ]
      | P.T_correctness { index; delivery; handler } ->
          span ~name:"correctness" ~cat:"delivery" (delivery + handler)
            [ site index; ("delivery", J.Int delivery);
              ("handler", J.Int handler) ]
      | P.T_demote { index; count } ->
          instant ~name:"demote" ~cat:"delivery"
            [ site index; ("count", J.Int count) ]
      | P.T_checkpoint { seq; bytes } ->
          instant ~name:"checkpoint" ~cat:"replay"
            [ ("seq", J.Int seq); ("bytes", J.Int bytes) ]
      | P.T_jit_compile { index; steps; cycles } ->
          span ~name:"jit_compile" ~cat:"jit" cycles
            [ site index; ("steps", J.Int steps) ]
      | P.T_jit_exec { index; steps; cycles } ->
          span ~name:"jit_exec" ~cat:"jit" cycles
            [ site index; ("steps", J.Int steps) ]
      | P.T_jit_invalidate { index } ->
          instant ~name:"jit_invalidate" ~cat:"jit" [ site index ]);
  (* A window still open at export (halt inside a trace) gets a
     synthetic close, at the newest event, so strict viewers don't
     reject the file. *)
  if !depth > 0 then ev ~ph:"E" ~ts:!last_ts ~name:"trace" ~cat:"trace" [];
  J.Obj
    [ ("schema_version", J.Int schema_version);
      ("recorded", J.Int (recorded t));
      ("dropped", J.Int (dropped t));
      ("traceEvents", J.Arr (List.rev_append !events extra)) ]

let write_file ?extra t path =
  let oc = open_out path in
  output_string oc (J.to_string (export_json ?extra t));
  output_char oc '\n';
  close_out oc

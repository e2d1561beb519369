(* Bounded ring buffer of structural telemetry events, timestamped with
   modeled cycles (State.cycles at emission — never wall clock, so a
   trace taken from a recorded run and from its replay are identical).

   Slots are preallocated and mutated in place: steady-state recording
   allocates nothing. When the ring is full the oldest event is
   overwritten (drop-oldest) and a drop counter advances; the exporter
   tolerates the orphaned window edges this can produce.

   The per-emulation and per-patch-check events (T_emulate /
   T_patch_check) are deliberately NOT recorded here: they fire once per
   emulated instruction and would evict everything else from the ring in
   a few thousand cycles of hot loop. The profiler consumes them; the
   ring keeps the structural story (deliveries, trace windows, plan
   traffic, GC, correctness traps). *)

(* Integer kind tags (ring slots are all-int so recording is alloc-free). *)
let k_trap = 0
let k_absorbed = 1
let k_trace_enter = 2
let k_trace_exit = 3
let k_plan_hit = 4
let k_plan_miss = 5
let k_plan_invalidate = 6
let k_gc = 7
let k_correctness = 8
let k_demote = 9
let k_checkpoint = 10
let k_jit_compile = 11
let k_jit_exec = 12
let k_jit_invalidate = 13

type slot = {
  mutable ts : int; (* modeled cycles at emission *)
  mutable kind : int;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
}

type t = {
  slots : slot array;
  capacity : int;
  mutable head : int; (* next write position *)
  mutable count : int; (* live slots, <= capacity *)
  mutable dropped : int; (* events overwritten *)
  mutable recorded : int; (* events ever offered (incl. dropped) *)
}

let default_capacity = 65536

let create ?(capacity = default_capacity) () =
  { slots =
      Array.init (max 1 capacity) (fun _ ->
          { ts = 0; kind = 0; a = 0; b = 0; c = 0; d = 0 });
    capacity = max 1 capacity;
    head = 0;
    count = 0;
    dropped = 0;
    recorded = 0 }

let recorded t = t.recorded
let dropped t = t.dropped
let length t = t.count

let push t ~ts ~kind ~a ~b ~c ~d =
  let s = t.slots.(t.head) in
  s.ts <- ts;
  s.kind <- kind;
  s.a <- a;
  s.b <- b;
  s.c <- c;
  s.d <- d;
  t.head <- (t.head + 1) mod t.capacity;
  if t.count < t.capacity then t.count <- t.count + 1
  else t.dropped <- t.dropped + 1;
  t.recorded <- t.recorded + 1

(* Record one probe event. Per-emulation noise (T_emulate,
   T_patch_check) is filtered; everything else lands in the ring. *)
let record t ~ts (ev : Fpvm.Probe.tel) =
  match ev with
  | Fpvm.Probe.T_emulate _ | Fpvm.Probe.T_patch_check _ -> ()
  | Fpvm.Probe.T_trap { index; events; delivery } ->
      push t ~ts ~kind:k_trap ~a:index ~b:events ~c:delivery ~d:0
  | Fpvm.Probe.T_absorbed { index; events } ->
      push t ~ts ~kind:k_absorbed ~a:index ~b:events ~c:0 ~d:0
  | Fpvm.Probe.T_trace_enter { index } ->
      push t ~ts ~kind:k_trace_enter ~a:index ~b:0 ~c:0 ~d:0
  | Fpvm.Probe.T_trace_exit { index; insns; step_cycles; exit_cycles } ->
      push t ~ts ~kind:k_trace_exit ~a:index ~b:insns ~c:step_cycles
        ~d:exit_cycles
  | Fpvm.Probe.T_plan_hit { index } ->
      push t ~ts ~kind:k_plan_hit ~a:index ~b:0 ~c:0 ~d:0
  | Fpvm.Probe.T_plan_miss { index } ->
      push t ~ts ~kind:k_plan_miss ~a:index ~b:0 ~c:0 ~d:0
  | Fpvm.Probe.T_plan_invalidate { index } ->
      push t ~ts ~kind:k_plan_invalidate ~a:index ~b:0 ~c:0 ~d:0
  | Fpvm.Probe.T_gc { full; freed; words; cycles } ->
      push t ~ts ~kind:k_gc ~a:(if full then 1 else 0) ~b:freed ~c:words
        ~d:cycles
  | Fpvm.Probe.T_correctness { index; delivery; handler } ->
      push t ~ts ~kind:k_correctness ~a:index ~b:delivery ~c:handler ~d:0
  | Fpvm.Probe.T_demote { index; count } ->
      push t ~ts ~kind:k_demote ~a:index ~b:count ~c:0 ~d:0
  | Fpvm.Probe.T_checkpoint { seq; bytes } ->
      push t ~ts ~kind:k_checkpoint ~a:seq ~b:bytes ~c:0 ~d:0
  | Fpvm.Probe.T_jit_compile { index; steps; cycles } ->
      push t ~ts ~kind:k_jit_compile ~a:index ~b:steps ~c:cycles ~d:0
  | Fpvm.Probe.T_jit_exec { index; steps; cycles } ->
      (* one slot per block execution — bounded by deliveries + links,
         structural like trace windows, not per-instruction noise *)
      push t ~ts ~kind:k_jit_exec ~a:index ~b:steps ~c:cycles ~d:0
  | Fpvm.Probe.T_jit_invalidate { index } ->
      push t ~ts ~kind:k_jit_invalidate ~a:index ~b:0 ~c:0 ~d:0

(* Oldest-first iteration over live slots. *)
let iter t f =
  let start = (t.head - t.count + t.capacity * 2) mod t.capacity in
  for i = 0 to t.count - 1 do
    f t.slots.((start + i) mod t.capacity)
  done

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
  let depth = ref 0 in
  let i n = J.Int n in
  let flags bits = J.Str (String.concat "+" (Ieee754.Flags.names bits)) in
  iter t (fun s ->
      if s.kind = k_trap then
        ev ~ph:"X"
          ~ts:(max 0 (s.ts - s.c))
          ~dur:s.c ~name:"trap" ~cat:"delivery"
          [ ("site", i s.a); ("events", flags s.b) ]
      else if s.kind = k_absorbed then
        ev ~ph:"i" ~ts:s.ts ~name:"absorbed" ~cat:"trace"
          [ ("site", i s.a); ("events", flags s.b) ]
      else if s.kind = k_trace_enter then begin
        if !depth = 0 then begin
          incr depth;
          ev ~ph:"B" ~ts:s.ts ~name:"trace" ~cat:"trace" [ ("site", i s.a) ]
        end
      end
      else if s.kind = k_trace_exit then begin
        if !depth > 0 then begin
          decr depth;
          ev ~ph:"E" ~ts:s.ts ~name:"trace" ~cat:"trace"
            [ ("site", i s.a); ("insns", i s.b); ("step_cycles", i s.c);
              ("exit_cycles", i s.d) ]
        end
      end
      else if s.kind = k_plan_hit then
        ev ~ph:"i" ~ts:s.ts ~name:"plan_hit" ~cat:"plan" [ ("site", i s.a) ]
      else if s.kind = k_plan_miss then
        ev ~ph:"i" ~ts:s.ts ~name:"plan_miss" ~cat:"plan" [ ("site", i s.a) ]
      else if s.kind = k_plan_invalidate then
        ev ~ph:"i" ~ts:s.ts ~name:"plan_invalidate" ~cat:"plan"
          [ ("site", i s.a) ]
      else if s.kind = k_gc then
        ev ~ph:"X"
          ~ts:(max 0 (s.ts - s.d))
          ~dur:s.d ~name:(if s.a = 1 then "gc_full" else "gc") ~cat:"gc"
          [ ("freed", i s.b); ("words", i s.c) ]
      else if s.kind = k_correctness then
        ev ~ph:"X"
          ~ts:(max 0 (s.ts - s.b - s.c))
          ~dur:(s.b + s.c) ~name:"correctness" ~cat:"delivery"
          [ ("site", i s.a); ("delivery", i s.b); ("handler", i s.c) ]
      else if s.kind = k_demote then
        ev ~ph:"i" ~ts:s.ts ~name:"demote" ~cat:"delivery"
          [ ("site", i s.a); ("count", i s.b) ]
      else if s.kind = k_checkpoint then
        ev ~ph:"i" ~ts:s.ts ~name:"checkpoint" ~cat:"replay"
          [ ("seq", i s.a); ("bytes", i s.b) ]
      else if s.kind = k_jit_compile then
        ev ~ph:"X"
          ~ts:(max 0 (s.ts - s.c))
          ~dur:s.c ~name:"jit_compile" ~cat:"jit"
          [ ("site", i s.a); ("steps", i s.b) ]
      else if s.kind = k_jit_exec then
        ev ~ph:"X"
          ~ts:(max 0 (s.ts - s.c))
          ~dur:s.c ~name:"jit_exec" ~cat:"jit"
          [ ("site", i s.a); ("steps", i s.b) ]
      else if s.kind = k_jit_invalidate then
        ev ~ph:"i" ~ts:s.ts ~name:"jit_invalidate" ~cat:"jit"
          [ ("site", i s.a) ]);
  (* A window still open at export (halt inside a trace) gets a
     synthetic close so strict viewers don't reject the file. *)
  if !depth > 0 then begin
    let last_ts =
      if t.count = 0 then 0
      else
        t.slots.((t.head - 1 + t.capacity) mod t.capacity).ts
    in
    ev ~ph:"E" ~ts:last_ts ~name:"trace" ~cat:"trace" []
  end;
  J.Obj
    [ ("schema_version", J.Int schema_version);
      ("recorded", J.Int t.recorded);
      ("dropped", J.Int t.dropped);
      ("traceEvents", J.Arr (List.rev_append !events extra)) ]

let write_file ?extra t path =
  let oc = open_out path in
  output_string oc (J.to_string (export_json ?extra t));
  output_char oc '\n';
  close_out oc

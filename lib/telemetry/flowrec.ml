(* FP-exception flight recorder (FlowFPX-style).

   numprof counts NaN/Inf births, propagations and kills *per site*;
   this module records the *flows* that connect them: each birth (a
   special result computed from clean operands) opens a flow, every
   downstream op whose special result inherits a special operand
   extends it, and the op or observation boundary where the special
   value disappears (or is printed/serialized/compared) closes it.
   The chain links are the diagnostic FlowFPX argues debugging needs —
   "where was this NaN born, what dragged it here, where did the
   program last see it" — and the recorded birth-event index is what
   wires the report into the replay bisector.

   Mechanics:

   - Flow identity lives in the same self-healing table numprof keeps
     its shadows in ({!Store.Values}), keyed by the result's machine
     word (a NaN-box pattern, or the raw binary64 word for unboxed
     values): a lookup whose current image no longer matches falls
     back to "no flow" instead of a stale one. [N_rebox] events move
     entries when the JIT promotes a scratch temp to a durable box,
     and an [S_demote] sink re-keys the flow under the raw demoted
     word so correctness demotions don't break the chain.

   - Chain links land in preallocated mutable slots of the shared
     drop-oldest ring ({!Store.Ring}). When the ring wraps, the
     overwritten link's *entire flow* is marked dropped: a chain is
     either reported whole or not at all, never with a silently
     missing middle. Flow metadata (birth site,
     kill site, link/prop counts, cycle span) lives outside the ring
     and survives a drop — only the per-link detail is lost.

   - The birth-event index: the engine emits the replay-channel event
     for a delivery/absorption *before* emulating (see
     Engine.absorb_event), so the op that births a special executes
     "inside" the most recently emitted replay event. Counting
     [on_event] occurrences therefore pins each birth to the replay
     log position the bisector can land on ([N_ext] births belong to
     the [Ext_call] event emitted right *after* the handler returns,
     so they take the next index instead).

   Pure observation: the recorder reads probe payloads only, charges
   no modeled cycles, and never touches machine state — a run must
   fingerprint identically with it on or off. *)

module Isa = Machine.Isa
module J = Fpvm.Json

(* NaN or Inf: exponent field saturated. *)
let is_special bits = not (Ieee754.Soft64.is_finite bits)

(* ---- kill kinds --------------------------------------------------------- *)

(* Sink kinds as kill kinds (40+); 0 is an op kill. *)
let sink_code (k : Fpvm.Probe.sink_kind) =
  match k with
  | Fpvm.Probe.S_compare -> 40
  | Fpvm.Probe.S_print -> 41
  | Fpvm.Probe.S_serialize -> 42
  | Fpvm.Probe.S_demote -> 43

let sink_name = function
  | 40 -> "compare" | 41 -> "print" | 42 -> "serialize" | _ -> "demote"

let kill_kind_name k =
  match k with
  | 0 -> "op" (* special operand consumed, clean result *)
  | 40 | 41 | 42 -> sink_name k
  | _ -> "open"

(* ---- flows -------------------------------------------------------------- *)

type flow = {
  fl_id : int;
  fl_is_nan : bool; (* NaN at birth (false: Inf) *)
  fl_birth_site : int;
  fl_birth_cycle : int;
  fl_birth_event : int; (* replay-log event index of the birth *)
  fl_birth_op : string; (* the op's name *)
  mutable fl_links : int; (* chain links recorded (incl. birth) *)
  mutable fl_props : int;
  mutable fl_last_site : int;
  mutable fl_last_cycle : int;
  mutable fl_kill_site : int; (* -1 while open *)
  mutable fl_kill_kind : int; (* op code family above; -1 open *)
  mutable fl_dropped : bool; (* a chain link was overwritten *)
  mutable fl_real : int; (* -1 unlabeled / 0 spurious / 1 real *)
}

(* Ring slot: one chain link, (cycle, kind, site, flow, op name,
   operand flow ids). Kinds: 0 birth, 1 prop, 2 kill, 3 sink. *)
type slot = {
  mutable s_cyc : int;
  mutable s_kind : int;
  mutable s_site : int;
  mutable s_flow : int;
  mutable s_op : string;
  mutable s_fa : int;
  mutable s_fb : int;
}

type t = {
  tbl : int Store.Values.t; (* machine word -> flow id *)
  mutable flows : flow array;
  mutable n_flows : int;
  ring : slot Store.Ring.t;
  mutable events_seen : int; (* replay-channel events counted so far *)
}

let default_capacity = 4096

(* The ring is allocated whole, about 9 heap words a slot, so its size
   is bounded: 2^20 slots is ten times the largest committed use. *)
let max_capacity = 1 lsl 20

let create ?(capacity = default_capacity) () =
  if capacity > max_capacity then
    invalid_arg
      (Printf.sprintf "Flowrec.create: capacity %d is above %d" capacity
         max_capacity);
  { tbl = Store.Values.create 1024;
    flows = [||];
    n_flows = 0;
    ring =
      Store.Ring.create (max 8 capacity) (fun () ->
          { s_cyc = 0; s_kind = -1; s_site = 0; s_flow = -1; s_op = "";
            s_fa = -1; s_fb = -1 });
    events_seen = 0 }

(* Count one replay-channel event (installed on [on_event] by
   Telemetry.attach); see the birth-event indexing note above. *)
let saw_event t = t.events_seen <- t.events_seen + 1

let new_flow t ~is_nan ~site ~cyc ~event ~op =
  let id = t.n_flows in
  if id >= Array.length t.flows then begin
    let n = max 64 (2 * Array.length t.flows) in
    let a =
      Array.make n
        { fl_id = -1; fl_is_nan = false; fl_birth_site = -1;
          fl_birth_cycle = 0; fl_birth_event = -1; fl_birth_op = "";
          fl_links = 0; fl_props = 0; fl_last_site = -1; fl_last_cycle = 0;
          fl_kill_site = -1; fl_kill_kind = -1; fl_dropped = false;
          fl_real = -1 }
    in
    Array.blit t.flows 0 a 0 t.n_flows;
    t.flows <- a
  end;
  let f =
    { fl_id = id; fl_is_nan = is_nan; fl_birth_site = site;
      fl_birth_cycle = cyc; fl_birth_event = event; fl_birth_op = op;
      fl_links = 0; fl_props = 0; fl_last_site = site; fl_last_cycle = cyc;
      fl_kill_site = -1; fl_kill_kind = -1; fl_dropped = false;
      fl_real = -1 }
  in
  t.flows.(id) <- f;
  t.n_flows <- t.n_flows + 1;
  f

let push t ~cyc ~kind ~site ~flow ~op ~fa ~fb =
  let full = Store.Ring.full t.ring in
  let s = Store.Ring.next t.ring in
  (* drop-oldest: the overwritten link's whole chain goes with it, so
     every reported chain is intact *)
  if full && s.s_flow >= 0 && s.s_flow < t.n_flows then
    t.flows.(s.s_flow).fl_dropped <- true;
  s.s_cyc <- cyc;
  s.s_kind <- kind;
  s.s_site <- site;
  s.s_flow <- flow;
  s.s_op <- op;
  s.s_fa <- fa;
  s.s_fb <- fb;
  let f = t.flows.(flow) in
  f.fl_links <- f.fl_links + 1;
  f.fl_last_site <- site;
  f.fl_last_cycle <- cyc

(* The flow currently carried by machine word [bits], validated against
   the port's current demoted [image]. *)
let flow_of t bits image =
  match Store.Values.find t.tbl bits ~image with Some fid -> fid | None -> -1

let record_arith t ~cyc ~event ~index ~op ~unary ~a_bits ~b_bits ~r_bits ~a
    ~b ~r =
  let a_sp = is_special a in
  let b_sp = (not unary) && is_special b in
  let r_sp = is_special r in
  if not (a_sp || b_sp || r_sp) then begin
    (* clean op: if the result reuses a word a dead special once held,
       retire the stale entry *)
    Store.Values.forget t.tbl r_bits
  end
  else begin
    let fa = if a_sp then flow_of t a_bits a else -1 in
    let fb = if b_sp then flow_of t b_bits b else -1 in
    if r_sp then begin
      let fid =
        if a_sp || b_sp then begin
          let inherited = if fa >= 0 then fa else fb in
          if inherited >= 0 then begin
            let f = t.flows.(inherited) in
            f.fl_props <- f.fl_props + 1;
            push t ~cyc ~kind:1 ~site:index ~flow:inherited ~op ~fa ~fb;
            inherited
          end
          else begin
            (* a special operand whose flow we no longer know (healed
               entry, or a producer on_num does not model): first
               observation opens a flow here *)
            let f =
              new_flow t ~is_nan:(Ieee754.Soft64.is_nan r) ~site:index ~cyc
                ~event ~op
            in
            push t ~cyc ~kind:0 ~site:index ~flow:f.fl_id ~op ~fa ~fb;
            f.fl_id
          end
        end
        else begin
          (* birth: special result from clean operands *)
          let f =
            new_flow t ~is_nan:(Ieee754.Soft64.is_nan r) ~site:index ~cyc
              ~event ~op
          in
          push t ~cyc ~kind:0 ~site:index ~flow:f.fl_id ~op ~fa:(-1)
            ~fb:(-1);
          f.fl_id
        end
      in
      Store.Values.bind t.tbl r_bits ~image:r fid
    end
    else begin
      (* special operand, clean result: the flow is killed here *)
      Store.Values.forget t.tbl r_bits;
      let kill fid =
        if fid >= 0 then begin
          let f = t.flows.(fid) in
          push t ~cyc ~kind:2 ~site:index ~flow:fid ~op ~fa ~fb;
          if f.fl_kill_site < 0 then begin
            f.fl_kill_site <- index;
            f.fl_kill_kind <- 0
          end
        end
      in
      kill fa;
      if fb >= 0 && fb <> fa then kill fb
    end
  end

let record_sink t ~cyc ~index ~kind ~bits ~f64 =
  if is_special f64 then begin
    let fid = flow_of t bits f64 in
    if fid >= 0 then begin
      let f = t.flows.(fid) in
      let code = sink_code kind in
      push t ~cyc ~kind:3 ~site:index ~flow:fid ~op:(sink_name code) ~fa:fid
        ~fb:(-1);
      match kind with
      | Fpvm.Probe.S_demote ->
          (* the value survives demotion as a raw binary64 word: follow
             it to its new key so the chain continues *)
          Store.Values.bind t.tbl f64 ~image:f64 fid
      | _ ->
          if f.fl_kill_site < 0 then begin
            f.fl_kill_site <- index;
            f.fl_kill_kind <- code
          end
    end
  end

let record t ~cycles (ev : Fpvm.Probe.num) =
  match ev with
  | Fpvm.Probe.N_op { index; op; a_bits; b_bits; r_bits; a; b; r } ->
      record_arith t ~cyc:cycles
        ~event:(max 0 (t.events_seen - 1))
        ~index ~op:(Isa.fp_op_name op)
        ~unary:(op = Isa.FSQRT)
        ~a_bits ~b_bits ~r_bits ~a ~b ~r
  | Fpvm.Probe.N_ext { index; fn; unary; a_bits; b_bits; r_bits; a; b; r } ->
      (* the Ext_call replay event is emitted after the handler
         returns, so an ext birth belongs to the *next* event index *)
      record_arith t ~cyc:cycles ~event:t.events_seen ~index
        ~op:(Isa.ext_fn_name fn) ~unary ~a_bits ~b_bits ~r_bits ~a ~b ~r
  | Fpvm.Probe.N_sink { index; kind; bits; f64 } ->
      record_sink t ~cyc:cycles ~index ~kind ~bits ~f64
  | Fpvm.Probe.N_rebox { old_bits; new_bits; _ } ->
      Store.Values.rebox t.tbl ~old_bits ~new_bits

(* ---- run-end accounting ------------------------------------------------- *)

(* (open, completed, dropped): dropped flows are counted once and
   excluded from the other two, so the three partition all flows. *)
let gauges t =
  let opn = ref 0 and comp = ref 0 and drop = ref 0 in
  for i = 0 to t.n_flows - 1 do
    let f = t.flows.(i) in
    if f.fl_dropped then incr drop
    else if f.fl_kill_site >= 0 then incr comp
    else incr opn
  done;
  (!opn, !comp, !drop)

(* (real, spurious) among labeled flows. *)
let truth_counts t =
  let r = ref 0 and s = ref 0 in
  for i = 0 to t.n_flows - 1 do
    match t.flows.(i).fl_real with
    | 1 -> incr r
    | 0 -> incr s
    | _ -> ()
  done;
  (!r, !s)

let n_flows t = t.n_flows
let links_dropped t = Store.Ring.dropped t.ring

(* Distinct sites where any flow (dropped or not) was born — ground
   truth only needs "did the other port except here at all", and flow
   metadata survives ring drops. *)
let birth_sites t =
  let h = Hashtbl.create 16 in
  for i = 0 to t.n_flows - 1 do
    Hashtbl.replace h t.flows.(i).fl_birth_site ()
  done;
  h

(* Label every flow against an interval-port ground truth: [real site]
   answers "did the interval run birth a special (or produce an
   unbounded enclosure, which demotes to a special) at this site". *)
let label_truth t real_site =
  for i = 0 to t.n_flows - 1 do
    let f = t.flows.(i) in
    f.fl_real <- (if real_site f.fl_birth_site then 1 else 0)
  done

(* Every flow in birth order. Flow metadata (birth/kill site, link and
   prop counts, cycle span) is exact even when the flow's ring links
   were overwritten, so the coach reports all of them and only flags
   the chains whose per-link detail is gone. *)
let all_flows t = List.init t.n_flows (Array.get t.flows)

(* Surviving (undropped) flows in birth order, for the chain-link
   consumers (Perfetto export, link listings). *)
let surviving t = List.filter (fun f -> not f.fl_dropped) (all_flows t)

(* The chain links of one surviving flow, oldest first. *)
let links_of t fid =
  let out = ref [] in
  Store.Ring.iter t.ring (fun s -> if s.s_flow = fid then out := s :: !out);
  List.rev !out

(* ---- Perfetto export ---------------------------------------------------- *)

(* Events for the trace's [traceEvents] array (the exporter's [?extra]
   hook): an instant slice per chain link plus the s/t/f flow-arrow
   triple Perfetto draws between them, one arrow id per flow. Dropped
   flows are omitted — chains export whole or not at all, matching the
   report. *)
let export_flows t =
  (* per-flow live-link counts, so the last link can close the arrow *)
  let totals = Hashtbl.create 64 in
  Store.Ring.iter t.ring (fun s ->
      if s.s_flow >= 0 && not t.flows.(s.s_flow).fl_dropped then
        Hashtbl.replace totals s.s_flow
          (1 + try Hashtbl.find totals s.s_flow with Not_found -> 0));
  let seen = Hashtbl.create 64 in
  let events = ref [] in
  Store.Ring.iter t.ring (fun s ->
      if s.s_flow >= 0 && Hashtbl.mem totals s.s_flow then begin
        let k = 1 + try Hashtbl.find seen s.s_flow with Not_found -> 0 in
        Hashtbl.replace seen s.s_flow k;
        let total = Hashtbl.find totals s.s_flow in
        let name =
          match s.s_kind with
          | 0 -> "flow_birth"
          | 1 -> "flow_prop"
          | 2 -> "flow_kill"
          | _ -> "flow_sink"
        in
        let slice =
          Trace.event ~ph:"i" ~ts:s.s_cyc ~name ~cat:"flow"
            [ ("flow", J.Int s.s_flow); ("site", J.Int s.s_site);
              ("op", J.Str s.s_op); ("fa", J.Int s.s_fa);
              ("fb", J.Int s.s_fb) ]
        in
        (* the arrow: s at the first link, t in the middle, f at the
           last (bp:e binds the terminator to the enclosing instant) *)
        let ph, bp =
          if total = 1 then ("s", []) (* single-link chain: start only *)
          else if k = 1 then ("s", [])
          else if k = total then ("f", [ ("bp", J.Str "e") ])
          else ("t", [])
        in
        let arrow =
          J.Obj
            ([ ("ph", J.Str ph); ("id", J.Int s.s_flow); ("ts", J.Int s.s_cyc);
               ("pid", J.Int 1); ("tid", J.Int 1); ("name", J.Str "nanflow");
               ("cat", J.Str "flow") ]
            @ bp)
        in
        events := arrow :: slice :: !events
      end);
  List.rev !events

(* ---- text report --------------------------------------------------------- *)

let flow_kind f = if f.fl_is_nan then "NaN" else "Inf"

let pp_flow_line bb f =
  Buffer.add_string bb
    (Printf.sprintf
       "flow %d [%s] birth site %d (op %s, cycle %d, event %d) -> %s links=%d props=%d span=%d cycles\n"
       f.fl_id (flow_kind f) f.fl_birth_site f.fl_birth_op
       f.fl_birth_cycle f.fl_birth_event
       (if f.fl_kill_site >= 0 then
          Printf.sprintf "%s at site %d" (kill_kind_name f.fl_kill_kind)
            f.fl_kill_site
        else "still open")
       f.fl_links f.fl_props
       (f.fl_last_cycle - f.fl_birth_cycle))

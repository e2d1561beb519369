(* Host-time spans around the benchmark's calls into each layer.

   A span records name, start, end (monotonic nanoseconds), the span
   open when it started (its parent) and the job it belongs to. Spans
   are kept in memory and written out once, as Chrome/Perfetto trace
   JSON, when the run ends. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int; (* id of the enclosing span, -1 at the root *)
  start_ns : int;
  mutable end_ns : int;
}

type t = {
  mutable spans : span list; (* newest first *)
  mutable open_ : span list; (* innermost first *)
  mutable next : int;
}

let create () = { spans = []; open_ = []; next = 0 }

let enter t ~job name =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next; name; job; parent; start_ns = Timed.now ();
      end_ns = -1 }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.open_ <- s :: t.open_;
  s

let leave t s =
  s.end_ns <- Timed.now ();
  t.open_ <- List.filter (fun o -> o != s) t.open_

(* Run [f] inside a span; the span closes even if [f] raises. *)
let within t ~job name f =
  let s = enter t ~job name in
  match f () with
  | r ->
      leave t s;
      r
  | exception e ->
      leave t s;
      raise e

let duration_ns s = s.end_ns - s.start_ns

(* A span's duration minus the time its direct children cover. Children
   run nested inside their parent on one thread, so they never overlap
   each other. *)
let self_ns (spans : span list) (s : span) =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc - duration_ns c else acc)
    (duration_ns s) spans

let in_order t = List.rev t.spans

(* Sum of durations (or self times) of one job's spans with this name. *)
let total ?(self = false) spans ~job name =
  List.fold_left
    (fun acc s ->
      if s.job = job && s.name = name then
        acc + if self then self_ns spans s else duration_ns s
      else acc)
    0 spans

let count spans ~job name =
  List.length (List.filter (fun s -> s.job = job && s.name = name) spans)

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let to_chrome (spans : span list) : Json.t =
  let us ns = Json.Num (float_of_int ns /. 1e3) in
  let t0 = List.fold_left (fun a s -> min a s.start_ns) max_int spans in
  Json.Obj
    [ ( "traceEvents",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [ ("name", Json.Str s.name); ("ph", Json.Str "X");
                   ("ts", us (s.start_ns - t0)); ("dur", us (duration_ns s));
                   ("pid", Json.Num 1.); ("tid", Json.Num 1.);
                   ( "args",
                     Json.Obj
                       [ ("job", Json.Num (float_of_int s.job));
                         ("span", Json.Num (float_of_int s.id));
                         ("parent", Json.Num (float_of_int s.parent));
                         ("self_us", us (self_ns spans s)) ] ) ])
             spans) );
      ("displayTimeUnit", Json.Str "ms") ]

(* Trace-JIT bookkeeping: hot-trace accounting.

   The engine owns the compiled blocks themselves (closures over the
   arithmetic port, keyed in a [Plan.table] so they inherit the plan
   cache's physical-equality shape guard and invalidation discipline);
   each block keeps the recorded path it was compiled from.
   This module owns the per-head delivery counters ("hotness"): bumped
   once per trap delivery at a site with no compiled block; when a
   counter reaches the configured threshold the next interpretive window
   is recorded.

   The counters and the blocks' paths are architectural state: they are
   persisted in checkpoints (format v4) and reseeded on restore so a
   replayed run recompiles the same blocks at the same points and
   replays the original's jit hit/exit stream deterministically. *)

type t = (int, int) Hashtbl.t (* head index -> deliveries seen *)

(* Compiled-to-compiled transfers allowed within one resident window:
   bounds how far a linked chain may extend past [max_trace_len]
   without returning to native execution. *)
let max_links = 128

let create () : t = Hashtbl.create 64

let bump t head =
  let n = (match Hashtbl.find_opt t head with Some n -> n | None -> 0) + 1 in
  Hashtbl.replace t head n;
  n

(* A trap-and-patch rewrite of [head] (or of any site its block touches)
   invalidates the compiled block, and with it the recording: restart
   the count so the site re-records against the rewritten program. *)
let forget t head = Hashtbl.remove t head

(* ---- checkpoints ------------------------------------------------------ *)

(* The hot counters, then each compiled block's recorded (index,
   absorbed) window, both ascending by head. *)
let encode b t (paths : (int * (int * bool) array) list) =
  let counters =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
  in
  Wire.varint b (List.length counters);
  List.iter
    (fun (h, n) ->
      Wire.varint b h;
      Wire.varint b n)
    counters;
  Wire.varint b (List.length paths);
  List.iter
    (fun (h, path) ->
      Wire.varint b h;
      Wire.varint b (Array.length path);
      Array.iter
        (fun (i, absorbed) ->
          Wire.varint b i;
          Wire.bool_ b absorbed)
        path)
    paths

(* Read what [encode] wrote: the counters over [t], and the paths
   returned for the engine to recompile a block from each, so every
   head and step must be one of the program's [n_insns] instructions. *)
let restore s pos t ~n_insns =
  Hashtbl.reset t;
  for _ = 1 to Wire.r_count ~per:2 s pos do
    let h = Wire.r_varint s pos in
    Hashtbl.replace t h (Wire.r_varint s pos)
  done;
  let index () =
    let i = Wire.r_varint s pos in
    if i < 0 || i >= n_insns then Wire.corrupt "JIT path index %d past the program" i;
    i
  in
  List.init (Wire.r_count ~per:2 s pos) (fun _ ->
      let h = index () in
      (* a varint index and a bool per step *)
      let len = Wire.r_count ~per:2 s pos in
      let path =
        Array.init len (fun _ ->
            let i = index () in
            (i, Wire.r_bool s pos))
      in
      (h, path))

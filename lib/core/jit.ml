(* Trace-JIT bookkeeping: hot-trace accounting and the recorded paths
   superblocks are compiled from.

   The engine owns the compiled blocks themselves (closures over the
   arithmetic port, keyed in a [Plan.table] so they inherit the plan
   cache's physical-equality shape guard and invalidation discipline);
   this module owns the plain data around them:

   - per-head delivery counters ("hotness"): bumped once per trap
     delivery at a site with no compiled block; when a counter reaches
     the configured threshold the next interpretive window is recorded;
   - recorded paths: the (index, absorbed) step sequence of the
     recording window, kept after compilation because checkpoint
     restore re-lowers blocks from them (closures cannot be serialized;
     the path + the restored program reproduce the block exactly).

   Both tables are architectural state: they are persisted in
   checkpoints (v3) and reseeded on restore so a replayed run
   recompiles the same blocks at the same points and replays the
   original's jit hit/exit stream deterministically. *)

type t = {
  counters : (int, int) Hashtbl.t; (* head index -> deliveries seen *)
  paths : (int, (int * bool) array) Hashtbl.t;
      (* head index -> recorded (index, absorbed) window *)
}

(* Compiled-to-compiled transfers allowed within one resident window:
   bounds how far a linked chain may extend past [max_trace_len]
   without returning to native execution. *)
let max_links = 128

let create () = { counters = Hashtbl.create 64; paths = Hashtbl.create 64 }

let bump t head =
  let n = (match Hashtbl.find_opt t.counters head with Some n -> n | None -> 0) + 1 in
  Hashtbl.replace t.counters head n;
  n

let has_path t head = Hashtbl.mem t.paths head
let set_path t head p = Hashtbl.replace t.paths head p

(* A trap-and-patch rewrite of [head] (or of any site a block touches)
   invalidates the compiled block; the recording is stale too — drop it
   and restart the count so the site re-records against the rewritten
   program. *)
let forget t head =
  Hashtbl.remove t.paths head;
  Hashtbl.remove t.counters head

let sorted tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Recorded paths ascending by head: the order restore recompiles them
   in. *)
let paths t = sorted t.paths

(* ---- checkpoints ------------------------------------------------------ *)

(* The hot counters, then each recorded (index, absorbed) window, both
   ascending by head. *)
let encode b t =
  let counters = sorted t.counters in
  Wire.varint b (List.length counters);
  List.iter
    (fun (h, n) ->
      Wire.varint b h;
      Wire.varint b n)
    counters;
  let paths = paths t in
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

(* Read what [encode] wrote over [t]'s tables; the engine then
   recompiles a block from each path, so every head and step must be
   one of the program's [n_insns] instructions. *)
let restore s pos t ~n_insns =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.paths;
  for _ = 1 to Wire.r_count ~per:2 s pos do
    let h = Wire.r_varint s pos in
    Hashtbl.replace t.counters h (Wire.r_varint s pos)
  done;
  let index () =
    let i = Wire.r_varint s pos in
    if i < 0 || i >= n_insns then Wire.corrupt "JIT path index %d past the program" i;
    i
  in
  for _ = 1 to Wire.r_count ~per:2 s pos do
    let h = index () in
    (* a varint index and a bool per step *)
    let len = Wire.r_count ~per:2 s pos in
    let path =
      Array.init len (fun _ ->
          let i = index () in
          (i, Wire.r_bool s pos))
    in
    Hashtbl.replace t.paths h path
  done

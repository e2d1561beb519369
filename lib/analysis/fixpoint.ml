(* The forward worklist fixpoint both flow-sensitive tiers run over the
   CFG (Pipeline on its integer/taint states, Fpa on its paired states):
   blocks come off a worklist in reverse postorder, each out-state is
   joined into its successor's in-state, loop heads widen from their
   second visit on, and a successor is queued again only when its
   in-state changed.  A run that exceeds 200 block transfers per block
   plus 1000 bails out, and the caller must then assume nothing. *)

type 'a t = {
  states : 'a option array; (* in-state per block id; None = not reached *)
  iterations : int; (* block transfers *)
  bailed_out : bool;
}

let run (cfg : Cfg.t) ~entry ~(transfer : Cfg.block -> 'a -> (int * 'a) list) ~join ~widen
    ~equal : 'a t =
  let nb = Array.length cfg.Cfg.blocks in
  let states = Array.make nb None in
  let visits = Array.make nb 0 in
  let iterations = ref 0 in
  let bailed = ref false in
  let budget = (200 * nb) + 1000 in
  let module PQ = Set.Make (struct
    type t = int * int (* rpo position, block id *)
    let compare ((a : int), (b : int)) (c, d) = if a <> c then Int.compare a c else Int.compare b d
  end) in
  let wl = ref PQ.empty in
  let push b =
    if cfg.Cfg.rpo_index.(b) < max_int then wl := PQ.add (cfg.Cfg.rpo_index.(b), b) !wl
  in
  states.(cfg.Cfg.entry) <- Some entry;
  push cfg.Cfg.entry;
  while (not (PQ.is_empty !wl)) && not !bailed do
    let ((_, b) as elt) = PQ.min_elt !wl in
    wl := PQ.remove elt !wl;
    incr iterations;
    if !iterations > budget then bailed := true
    else begin
      match states.(b) with
      | None -> ()
      | Some st_in ->
          List.iter
            (fun (s, st_out) ->
              match states.(s) with
              | None ->
                  states.(s) <- Some st_out;
                  visits.(s) <- 1;
                  push s
              | Some old ->
                  let joined = join old st_out in
                  let joined =
                    if cfg.Cfg.loop_head.(s) && visits.(s) >= 2 then widen old joined else joined
                  in
                  if not (equal old joined) then begin
                    states.(s) <- Some joined;
                    visits.(s) <- visits.(s) + 1;
                    push s
                  end)
            (transfer cfg.Cfg.blocks.(b) st_in)
    end
  done;
  { states; iterations = !iterations; bailed_out = !bailed }

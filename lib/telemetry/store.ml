(* The three structures the collectors keep: a self-healing table of
   values keyed by machine word (numprof's shadows, flowrec's flow ids),
   a drop-oldest ring of preallocated slots (the trace's events,
   flowrec's chain links) and a table of per-site records grown on
   demand (profile, numprof). *)

(* ---- value table -------------------------------------------------------- *)

(* A value keyed by the machine word that carries it (a NaN-box pattern,
   or the raw binary64 word of an unboxed value), stored with the arith
   port's demoted image of that word at bind time. A lookup whose
   current image differs misses: the arena cell or scratch slot was
   recycled and the box pattern reused, so the entry is stale and the
   caller falls back to the image itself. *)
module Values = struct
  module H = Hashtbl.Make (Int64)

  type 'a t = (int64 * 'a) H.t

  let create n : 'a t = H.create n

  let find t bits ~image =
    match H.find t bits with
    | img, v when Int64.equal img image -> Some v
    | _ -> None
    | exception Not_found -> None

  let bind t bits ~image v = H.replace t bits (image, v)
  let forget t bits = H.remove t bits

  (* A scratch temp promoted to a durable arena box ([Probe.N_rebox]):
     the entry follows the value to its new key, and the old word is
     left unbound. *)
  let rebox t ~old_bits ~new_bits =
    match H.find_opt t old_bits with
    | Some e ->
        H.remove t old_bits;
        H.replace t new_bits e
    | None -> ()
end

(* ---- ring ---------------------------------------------------------------- *)

(* Drop-oldest: [next] hands out a fresh slot until the ring is [full],
   then the oldest live one, whose contents the caller may read before
   stamping over them. Slots are mutated in place, so a steady-state
   ring allocates nothing. *)
module Ring = struct
  type 'a t = {
    slots : 'a array;
    mutable head : int; (* the slot [next] hands out *)
    mutable count : int; (* live slots *)
    mutable recorded : int; (* slots ever handed out *)
  }

  let create capacity make =
    { slots = Array.init capacity (fun _ -> make ()); head = 0; count = 0;
      recorded = 0 }

  let full t = t.count = Array.length t.slots

  let next t =
    let s = t.slots.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.slots;
    if not (full t) then t.count <- t.count + 1;
    t.recorded <- t.recorded + 1;
    s

  let length t = t.count
  let recorded t = t.recorded
  let dropped t = t.recorded - t.count

  (* Live slots, oldest first. *)
  let iter t f =
    let cap = Array.length t.slots in
    let start = (t.head - t.count + cap) mod cap in
    for i = 0 to t.count - 1 do
      f t.slots.((start + i) mod cap)
    done
end

(* ---- per-site table ------------------------------------------------------ *)

(* One record per instruction index, made by [fresh] on first touch. A
   negative index files under 0. *)
module Sites = struct
  type 'a t = {
    fresh : unit -> 'a;
    mutable cells : 'a option array;
    mutable last : int; (* highest index touched, -1 if none *)
  }

  let create fresh = { fresh; cells = Array.make 256 None; last = -1 }

  let get t i =
    let i = max 0 i in
    let n = Array.length t.cells in
    if i >= n then begin
      let m = ref n in
      while i >= !m do
        m := !m * 2
      done;
      let cells = Array.make !m None in
      Array.blit t.cells 0 cells 0 n;
      t.cells <- cells
    end;
    if i > t.last then t.last <- i;
    match t.cells.(i) with
    | Some s -> s
    | None ->
        let s = t.fresh () in
        t.cells.(i) <- Some s;
        s

  let find t i = if i >= 0 && i <= t.last then t.cells.(i) else None

  (* Touched sites in ascending index order. *)
  let fold f t acc =
    let acc = ref acc in
    for i = 0 to t.last do
      Option.iter (fun s -> acc := f i s !acc) t.cells.(i)
    done;
    !acc
end

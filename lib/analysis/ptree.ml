(* Big-endian Patricia trees over non-negative int keys (Okasaki & Gill,
   "Fast Mergeable Integer Maps", 1998): the cell maps and provenance
   sets of the static analysis.

   A tree branches on the highest bit in which its keys differ: every
   key of a [Branch (p, m, l, r)] agrees with the prefix [p] above the
   branching bit [m], and those of [l] have bit [m] clear, those of [r]
   have it set.  The shape is a function of the key set alone, so
   structural equality is set (or map) equality, and two trees that
   share a subtree share it physically whenever one was derived from the
   other.  The two-operand operations test [a == b] at each node, and
   every operation returns its (left) argument itself when nothing
   changed, so a join of two states that differ in one store costs that
   one path, not the whole map.

   Keys must be non-negative: with the sign bit clear, left-before-right
   is ascending order, which [fold], [bindings] and [elements] promise.
   Adding a negative key raises [Invalid_argument]. *)

let check k = if k < 0 then invalid_arg "Ptree: negative key"

(* the keys of a subtree at bit [m] lie in [mask k m, mask k m + 2m) *)
let below m = m lor (m - 1)
let mask k m = k land lnot (below m)
let zero_bit k m = k land m = 0
let match_prefix k p m = mask k m = p

let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x - (x lsr 1)

module Map = struct
  type 'a t = Empty | Leaf of int * 'a | Branch of int * int * 'a t * 'a t

  let empty = Empty

  (* the tree holding the disjoint trees [t0] (with key [p0]) and [t1] *)
  let link p0 t0 p1 t1 =
    let m = highest_bit (p0 lxor p1) in
    if zero_bit p0 m then Branch (mask p0 m, m, t0, t1) else Branch (mask p0 m, m, t1, t0)

  let branch p m l r =
    match (l, r) with Empty, t | t, Empty -> t | _ -> Branch (p, m, l, r)

  let rec find_opt k = function
    | Empty -> None
    | Leaf (j, v) -> if j = k then Some v else None
    | Branch (_, m, l, r) -> find_opt k (if zero_bit k m then l else r)

  let add k v t =
    check k;
    let rec go t =
      match t with
      | Empty -> Leaf (k, v)
      | Leaf (j, w) -> if j <> k then link k (Leaf (k, v)) j t else if w == v then t else Leaf (k, v)
      | Branch (p, m, l, r) ->
          if not (match_prefix k p m) then link k (Leaf (k, v)) p t
          else if zero_bit k m then
            let l' = go l in
            if l' == l then t else Branch (p, m, l', r)
          else
            let r' = go r in
            if r' == r then t else Branch (p, m, l, r')
    in
    go t

  (* drop every key in [lo, hi) *)
  let rec remove_range lo hi t =
    match t with
    | Empty -> t
    | Leaf (k, _) -> if lo <= k && k < hi then Empty else t
    | Branch (p, m, l, r) ->
        let last = p lor below m in
        if hi <= p || last < lo || hi <= lo then t
        else if lo <= p && last < hi then Empty
        else
          let l' = remove_range lo hi l and r' = remove_range lo hi r in
          if l' == l && r' == r then t else branch p m l' r'

  let rec remove k t =
    match t with
    | Empty -> t
    | Leaf (j, _) -> if j = k then Empty else t
    | Branch (p, m, l, r) ->
        if not (match_prefix k p m) then t
        else if zero_bit k m then
          let l' = remove k l in
          if l' == l then t else branch p m l' r
        else
          let r' = remove k r in
          if r' == r then t else branch p m l r'

  let rec min_binding = function
    | Empty -> raise Not_found
    | Leaf (k, v) -> (k, v)
    | Branch (_, _, l, _) -> min_binding l

  (* the binding with the least key >= [lo] *)
  let rec min_geq lo = function
    | Empty -> None
    | Leaf (k, v) -> if k >= lo then Some (k, v) else None
    | Branch (p, m, l, r) as t ->
        if lo <= p then Some (min_binding t)
        else if lo > p lor below m then None
        else if zero_bit lo m then
          match min_geq lo l with None -> Some (min_binding r) | b -> b
        else min_geq lo r

  let rec exists f = function
    | Empty -> false
    | Leaf (k, v) -> f k v
    | Branch (_, _, l, r) -> exists f l || exists f r

  let rec filter_map f t =
    match t with
    | Empty -> t
    | Leaf (k, v) -> (
        match f k v with None -> Empty | Some v' -> if v' == v then t else Leaf (k, v'))
    | Branch (p, m, l, r) ->
        let l' = filter_map f l in
        let r' = filter_map f r in
        if l' == l && r' == r then t else branch p m l' r'

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf (k, v) -> f k v acc
    | Branch (_, _, l, r) -> fold f r (fold f l acc)

  let bindings t =
    let rec go acc = function
      | Empty -> acc
      | Leaf (k, v) -> (k, v) :: acc
      | Branch (_, _, l, r) -> go (go acc r) l
    in
    go [] t

  let of_seq s = Seq.fold_left (fun t (k, v) -> add k v t) Empty s

  let rec equal eq a b =
    a == b
    ||
    match (a, b) with
    | Leaf (j, x), Leaf (k, y) -> j = k && eq x y
    | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
        p = q && m = n && equal eq a0 b0 && equal eq a1 b1
    | _ -> false

  (* The keys of both maps, each bound to [f x y] with [x] from [a] and
     [y] from [b] (widening is not symmetric).  [f] must satisfy
     [f x x = x]: subtrees the maps share are kept without calling it,
     and [a] itself comes back when no value changed. *)
  let rec inter f a b =
    if a == b then a
    else
      match (a, b) with
      | Empty, _ | _, Empty -> Empty
      | Leaf (k, x), _ -> (
          match find_opt k b with
          | None -> Empty
          | Some y ->
              let z = f x y in
              if z == x then a else Leaf (k, z))
      | _, Leaf (k, y) -> (
          match find_opt k a with None -> Empty | Some x -> Leaf (k, f x y))
      | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
          if m = n && p = q then
            let r0 = inter f a0 b0 and r1 = inter f a1 b1 in
            if r0 == a0 && r1 == a1 then a else branch p m r0 r1
          else if m > n && match_prefix q p m then
            inter f (if zero_bit q m then a0 else a1) b
          else if m < n && match_prefix p q n then
            inter f a (if zero_bit p n then b0 else b1)
          else Empty
end

module Set = struct
  type t = Empty | Leaf of int | Branch of int * int * t * t

  let empty = Empty
  let is_empty = function Empty -> true | _ -> false

  let singleton k =
    check k;
    Leaf k

  let link p0 t0 p1 t1 =
    let m = highest_bit (p0 lxor p1) in
    if zero_bit p0 m then Branch (mask p0 m, m, t0, t1) else Branch (mask p0 m, m, t1, t0)

  let rec mem k = function
    | Empty -> false
    | Leaf j -> j = k
    | Branch (_, m, l, r) -> mem k (if zero_bit k m then l else r)

  let add k t =
    check k;
    let rec go t =
      match t with
      | Empty -> Leaf k
      | Leaf j -> if j = k then t else link k (Leaf k) j t
      | Branch (p, m, l, r) ->
          if not (match_prefix k p m) then link k (Leaf k) p t
          else if zero_bit k m then
            let l' = go l in
            if l' == l then t else Branch (p, m, l', r)
          else
            let r' = go r in
            if r' == r then t else Branch (p, m, l, r')
    in
    go t

  (* [s] itself when [t] adds nothing to it, else [t] when [s] adds
     nothing to [t] at a shared node *)
  let rec union s t =
    if s == t then s
    else
      match (s, t) with
      | Empty, _ -> t
      | _, Empty -> s
      | _, Leaf k -> add k s
      | Leaf k, _ -> add k t
      | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
          if m = n && p = q then
            let u0 = union s0 t0 and u1 = union s1 t1 in
            if u0 == s0 && u1 == s1 then s
            else if u0 == t0 && u1 == t1 then t
            else Branch (p, m, u0, u1)
          else if m > n && match_prefix q p m then
            if zero_bit q m then
              let u = union s0 t in
              if u == s0 then s else Branch (p, m, u, s1)
            else
              let u = union s1 t in
              if u == s1 then s else Branch (p, m, s0, u)
          else if m < n && match_prefix p q n then
            if zero_bit p n then
              let u = union s t0 in
              if u == t0 then t else Branch (q, n, u, t1)
            else
              let u = union s t1 in
              if u == t1 then t else Branch (q, n, t0, u)
          else link p s q t

  let rec subset s t =
    s == t
    ||
    match (s, t) with
    | Empty, _ -> true
    | _, Empty | Branch _, Leaf _ -> false
    | Leaf k, _ -> mem k t
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
        if m = n && p = q then subset s0 t0 && subset s1 t1
        else m < n && match_prefix p q n && subset s (if zero_bit p n then t0 else t1)

  let rec equal a b =
    a == b
    ||
    match (a, b) with
    | Leaf j, Leaf k -> j = k
    | Branch (p, m, a0, a1), Branch (q, n, b0, b1) ->
        p = q && m = n && equal a0 b0 && equal a1 b1
    | _ -> false

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf k -> f k acc
    | Branch (_, _, l, r) -> fold f r (fold f l acc)

  let elements t =
    let rec go acc = function
      | Empty -> acc
      | Leaf k -> k :: acc
      | Branch (_, _, l, r) -> go (go acc r) l
    in
    go [] t

  let of_list l = List.fold_left (fun t k -> add k t) Empty l

  let rec min_elt = function
    | Empty -> raise Not_found
    | Leaf k -> k
    | Branch (_, _, l, _) -> min_elt l

  let rec max_elt = function
    | Empty -> raise Not_found
    | Leaf k -> k
    | Branch (_, _, _, r) -> max_elt r
end

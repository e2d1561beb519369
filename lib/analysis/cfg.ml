(* Control-flow graph construction over VX64 programs: basic blocks,
   successor/predecessor edges (including call/return edges), reverse
   postorder for the worklist, and a dominator-based back-edge pass that
   marks loop heads (the widening points of the abstract interpreter).

   The instruction array is expected to be free of instrumentation
   wrappers (see [Program.stripped_insns]); direct branch targets are
   instruction indices, as produced by the assembler.  A [Ret] may flow
   to the fall-through of any [Call] site (call-strings of length 0). *)

type block = {
  id : int;
  first : int; (* first instruction index *)
  last : int;  (* last instruction index, inclusive *)
  mutable succs : int list; (* successor block ids *)
  mutable preds : int list;
}

type t = {
  blocks : block array;
  block_of : int array; (* instruction index -> block id *)
  entry : int;          (* entry block id *)
  rpo : int array;      (* reachable block ids in reverse postorder *)
  rpo_index : int array; (* block id -> position in rpo; max_int if unreachable *)
  reachable : bool array;
  loop_head : bool array; (* block is the target of a back edge *)
  n_loop_heads : int;
}

let build (insns : Machine.Isa.insn array) ~entry : t =
  let n = Array.length insns in
  if n = 0 then
    { blocks = [||]; block_of = [||]; entry = 0; rpo = [||]; rpo_index = [||];
      reachable = [||]; loop_head = [||]; n_loop_heads = 0 }
  else begin
    (* ---- leaders ---- *)
    let leader = Array.make n false in
    leader.(entry) <- true;
    leader.(0) <- true;
    let mark i = if i >= 0 && i < n then leader.(i) <- true in
    let ret_targets = ref [] in
    Array.iteri
      (fun i insn ->
        match insn with
        | Machine.Isa.Jmp t -> mark t; mark (i + 1)
        | Machine.Isa.Jcc (_, t) -> mark t; mark (i + 1)
        | Machine.Isa.Call t ->
            mark t;
            mark (i + 1);
            if i + 1 < n then ret_targets := (i + 1) :: !ret_targets
        | Machine.Isa.Ret | Machine.Isa.Halt -> mark (i + 1)
        | _ -> ())
      insns;
    (* ---- blocks ---- *)
    let block_of = Array.make n (-1) in
    let firsts = ref [] in
    for i = n - 1 downto 0 do
      if leader.(i) then firsts := i :: !firsts
    done;
    let firsts = Array.of_list !firsts in
    let nb = Array.length firsts in
    let blocks =
      Array.init nb (fun b ->
          let first = firsts.(b) in
          let last = if b + 1 < nb then firsts.(b + 1) - 1 else n - 1 in
          for i = first to last do
            block_of.(i) <- b
          done;
          { id = b; first; last; succs = []; preds = [] })
    in
    let ret_target_blocks =
      List.sort_uniq compare (List.map (fun i -> block_of.(i)) !ret_targets)
    in
    (* ---- edges ---- *)
    Array.iter
      (fun blk ->
        let i = blk.last in
        let fall = if i + 1 < n then [ block_of.(i + 1) ] else [] in
        let succs =
          match insns.(i) with
          | Machine.Isa.Jmp t -> if t >= 0 && t < n then [ block_of.(t) ] else []
          | Machine.Isa.Jcc (_, t) ->
              (if t >= 0 && t < n then [ block_of.(t) ] else []) @ fall
          | Machine.Isa.Call t -> if t >= 0 && t < n then [ block_of.(t) ] else []
          | Machine.Isa.Ret -> ret_target_blocks
          | Machine.Isa.Halt -> []
          | _ -> fall
        in
        blk.succs <- List.sort_uniq compare succs)
      blocks;
    Array.iter
      (fun blk -> List.iter (fun s -> blocks.(s).preds <- blk.id :: blocks.(s).preds) blk.succs)
      blocks;
    (* ---- reverse postorder over reachable blocks ---- *)
    let entry_b = block_of.(entry) in
    let reachable = Array.make nb false in
    let post = ref [] in
    let rec dfs b =
      if not reachable.(b) then begin
        reachable.(b) <- true;
        List.iter dfs blocks.(b).succs;
        post := b :: !post
      end
    in
    dfs entry_b;
    let rpo = Array.of_list !post in
    let rpo_index = Array.make nb max_int in
    Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
    (* ---- dominators (Cooper-Harvey-Kennedy) over reachable blocks ---- *)
    let idom = Array.make nb (-1) in
    idom.(entry_b) <- entry_b;
    let intersect a b =
      let a = ref a and b = ref b in
      while !a <> !b do
        while rpo_index.(!a) > rpo_index.(!b) do a := idom.(!a) done;
        while rpo_index.(!b) > rpo_index.(!a) do b := idom.(!b) done
      done;
      !a
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> entry_b then begin
            let new_idom =
              List.fold_left
                (fun acc p ->
                  if not reachable.(p) || idom.(p) = -1 then acc
                  else match acc with None -> Some p | Some a -> Some (intersect a p))
                None blocks.(b).preds
            in
            match new_idom with
            | Some ni when idom.(b) <> ni ->
                idom.(b) <- ni;
                changed := true
            | _ -> ()
          end)
        rpo
    done;
    (* does v dominate u?  walk u's idom chain *)
    let dominates v u =
      let rec walk u =
        if u = v then true else if idom.(u) = u || idom.(u) = -1 then false else walk idom.(u)
      in
      walk u
    in
    let loop_head = Array.make nb false in
    let n_loop_heads = ref 0 in
    Array.iter
      (fun blk ->
        if reachable.(blk.id) then
          List.iter
            (fun s ->
              if reachable.(s) && dominates s blk.id && not loop_head.(s) then begin
                loop_head.(s) <- true;
                incr n_loop_heads
              end)
            blk.succs)
      blocks;
    { blocks; block_of; entry = entry_b; rpo; rpo_index; reachable; loop_head;
      n_loop_heads = !n_loop_heads }
  end

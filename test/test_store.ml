(* The structures lib/telemetry's collectors share (Telemetry.Store),
   each checked against a list model: the drop-oldest ring the trace
   and the flight recorder keep, the self-healing word-keyed value
   table numprof and the flight recorder keep, and the per-site table
   the profile and numprof keep. *)

module S = Telemetry.Store

let qtest name ~seed arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~count:300 ~name arb law)

let fail fmt = QCheck.Test.fail_reportf fmt

(* ---- ring ---------------------------------------------------------------- *)

(* A slot as the collectors use one: mutable, stamped after [next]. *)
type slot = { mutable v : int }

(* The model is the live values, oldest first, and the push count. At
   every step the ring iterates the model, [recorded] is the pushes and
   [length + dropped], and [full] holds exactly when [next] hands back
   the slot iteration visited first. *)
let ring_model_test =
  qtest "ring: pushes match a list model" ~seed:0x21A6
    QCheck.(
      make
        ~print:(fun (cap, n) -> Printf.sprintf "capacity %d, %d pushes" cap n)
        Gen.(pair (oneofl [ 1; 2; 8 ]) (int_range 0 40)))
    (fun (cap, n) ->
      let r = S.Ring.create cap (fun () -> { v = -1 }) in
      let model = ref [] in
      let live () =
        let l = ref [] in
        S.Ring.iter r (fun s -> l := s.v :: !l);
        List.rev !l
      in
      for push = 1 to n do
        let oldest = ref None in
        S.Ring.iter r (fun s -> if !oldest = None then oldest := Some s);
        let full = S.Ring.full r in
        let s = S.Ring.next r in
        let handed_oldest =
          match !oldest with Some o -> o == s | None -> false
        in
        if full <> handed_oldest then
          fail "push %d: full = %b but next handed back the oldest = %b" push
            full handed_oldest;
        s.v <- push;
        model := !model @ [ push ];
        if List.length !model > cap then model := List.tl !model;
        if live () <> !model then fail "push %d: live slots differ" push;
        if S.Ring.length r <> List.length !model then
          fail "push %d: length %d" push (S.Ring.length r);
        if S.Ring.recorded r <> push then
          fail "push %d: recorded %d" push (S.Ring.recorded r);
        if S.Ring.recorded r <> S.Ring.length r + S.Ring.dropped r then
          fail "push %d: recorded <> length + dropped" push
      done;
      true)

(* ---- value table ---------------------------------------------------------- *)

type vop =
  | Bind of int * int * int (* word, image, value *)
  | Find of int * int (* word, image *)
  | Forget of int
  | Rebox of int * int (* old word, new word *)

let show_vop = function
  | Bind (w, i, v) -> Printf.sprintf "bind %d@%d=%d" w i v
  | Find (w, i) -> Printf.sprintf "find %d@%d" w i
  | Forget w -> Printf.sprintf "forget %d" w
  | Rebox (o, n) -> Printf.sprintf "rebox %d->%d" o n

(* Few words and images, so rebinds, stale images and reboxes onto a
   bound word all come up. *)
let arb_vops =
  let open QCheck.Gen in
  let word = int_range 0 5 and image = int_range 0 2 in
  let op =
    frequency
      [ (4, map3 (fun w i v -> Bind (w, i, v)) word image (int_range 0 99));
        (4, map2 (fun w i -> Find (w, i)) word image);
        (1, map (fun w -> Forget w) word);
        (2, map2 (fun o n -> Rebox (o, n)) word word) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_vop ops))
    (list_size (int_range 1 60) op)

let value_model_test =
  qtest "values: bind/find/forget/rebox match an assoc-list model"
    ~seed:0x7A81E arb_vops (fun ops ->
      let t = S.Values.create 4 and model = ref [] in
      let w = Int64.of_int in
      let find_model word image =
        match List.assoc_opt word !model with
        | Some (img, v) when img = image -> Some v
        | _ -> None
      in
      let check what =
        for word = 0 to 5 do
          for image = 0 to 2 do
            if S.Values.find t (w word) ~image:(w image) <> find_model word image
            then fail "after %s: word %d image %d differs" what word image
          done
        done
      in
      List.iter
        (fun op ->
          (match op with
          | Bind (word, image, v) ->
              S.Values.bind t (w word) ~image:(w image) v;
              model := (word, (image, v)) :: List.remove_assoc word !model;
              (* a lookup with a changed image misses *)
              if S.Values.find t (w word) ~image:(w (image + 1)) <> None then
                fail "%s: another image hits" (show_vop op)
          | Find (word, image) ->
              if S.Values.find t (w word) ~image:(w image) <> find_model word image
              then fail "%s differs" (show_vop op)
          | Forget word ->
              S.Values.forget t (w word);
              model := List.remove_assoc word !model
          | Rebox (o, n) -> (
              S.Values.rebox t ~old_bits:(w o) ~new_bits:(w n);
              match List.assoc_opt o !model with
              | Some e ->
                  model := (n, e) :: List.remove_assoc n (List.remove_assoc o !model);
                  (* the old word is left unbound *)
                  if o <> n && List.exists
                       (fun image -> S.Values.find t (w o) ~image:(w image) <> None)
                       [ 0; 1; 2 ]
                  then fail "%s: the old word is still bound" (show_vop op)
              | None -> ()));
          check (show_vop op))
        ops;
      true)

(* ---- per-site table -------------------------------------------------------- *)

let sites_test =
  Alcotest.test_case "sites: made on first touch, grown, folded in order" `Quick
    (fun () ->
      let made = ref 0 in
      let t = S.Sites.create (fun () -> incr made; ref 0) in
      List.iter (fun i -> incr (S.Sites.get t i)) [ 3; 3; 1000; -7; 0 ];
      Alcotest.(check int) "one record per site" 3 !made;
      Alcotest.(check (list (pair int int))) "ascending, a negative index under 0"
        [ (0, 2); (3, 2); (1000, 1) ]
        (List.rev (S.Sites.fold (fun i s acc -> (i, !s) :: acc) t []));
      Alcotest.(check bool) "an untouched site is absent" true
        (S.Sites.find t 5 = None && S.Sites.find t 5000 = None
        && S.Sites.find t (-1) = None);
      Alcotest.(check (option int)) "a touched site is found" (Some 1)
        (Option.map ( ! ) (S.Sites.find t 1000)))

let () =
  Alcotest.run "store"
    [ ("ring", [ ring_model_test ]);
      ("values", [ value_model_test ]);
      ("sites", [ sites_test ]) ]

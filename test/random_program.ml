(* The random-program generator shared by the differential suite and
   the analysis facts digest: small workload-DSL programs with scalar
   and array FP/integer state, nested loops and branches, libm calls
   and bit reinterpretation. *)

open Fpvm_ir.Ast

let fvar_names = [ "x"; "y"; "z"; "w" ]
let ivar_names = [ "n"; "m" ]
let arr_size = 8

let gen_fconst =
  QCheck.Gen.oneofl
    [ 0.0; -0.0; 1.0; -1.0; 0.5; 3.25; 0.1; -2.75; 1e10; 1e-10; 1e308;
      1e-308; 0.333333333333; 7.25e5; -9.875 ]

let gen_program : program QCheck.Gen.t =
  let open QCheck.Gen in
  (* index expression, always masked into range *)
  let rec gen_ie depth =
    if depth <= 0 then
      oneof [ map (fun c -> Iconst c) (int_bound 20); oneofl (List.map iv ivar_names) ]
    else
      frequency
        [ (2, map (fun c -> Iconst c) (int_bound 64));
          (2, oneofl (List.map iv ivar_names));
          (3,
           let* op = oneofl [ IAdd; ISub; IMul; IAnd; IOr; IXor ] in
           let* a = gen_ie (depth - 1) in
           let* b = gen_ie (depth - 1) in
           return (Ibin (op, a, b)));
          (1,
           let* a = gen_ie (depth - 1) in
           let* s = int_range 1 8 in
           return (Ibin (IShr, a, Iconst s)));
          (1, map (fun fe -> Ibits_of_float fe) (gen_fe (depth - 1)));
          (1, map (fun fe -> Iof_float fe) (gen_fe (depth - 1))) ]
  and masked_ix depth =
    let* e = gen_ie depth in
    return (Ibin (IAnd, e, Iconst (arr_size - 1)))
  and gen_fe depth =
    if depth <= 0 then
      frequency
        [ (3, map f gen_fconst);
          (3, oneofl (List.map fv fvar_names));
          (1,
           let* ix = masked_ix 0 in
           return (Fload ("A", ix))) ]
    else
      frequency
        [ (2, map f gen_fconst);
          (2, oneofl (List.map fv fvar_names));
          (4,
           let* op = oneofl [ FAdd; FSub; FMul; FDiv ] in
           let* a = gen_fe (depth - 1) in
           let* b = gen_fe (depth - 1) in
           return (Fbin (op, a, b)));
          (1, map (fun e -> Fneg e) (gen_fe (depth - 1)));
          (1, map (fun e -> Fabs_e e) (gen_fe (depth - 1)));
          (1,
           let* name = oneofl [ "sqrt"; "sin"; "cos"; "atan"; "exp"; "floor" ] in
           let* a = gen_fe (depth - 1) in
           return (Fcall (name, [ a ])));
          (1, map (fun ie -> Fof_int ie) (gen_ie (depth - 1)));
          (1,
           let* ix = masked_ix (depth - 1) in
           return (Fload ("A", ix))) ]
  in
  let gen_cond depth =
    let* op = oneofl [ Lt; Le; Gt; Ge; Eq; Ne ] in
    oneof
      [ (let* a = gen_fe depth in
         let* b = gen_fe depth in
         return (Fcmp (op, a, b)));
        (let* a = gen_ie depth in
         let* b = gen_ie depth in
         return (Icmp (op, a, b))) ]
  in
  let rec gen_stmt depth =
    frequency
      ([ (3,
          let* n = oneofl fvar_names in
          let* e = gen_fe 3 in
          return (Fset (n, e)));
         (2,
          let* n = oneofl ivar_names in
          let* e = gen_ie 2 in
          return (Iset (n, e)));
         (2,
          let* ix = masked_ix 1 in
          let* e = gen_fe 2 in
          return (Fstore ("A", ix, e)));
         (1,
          let* ix = masked_ix 1 in
          let* e = gen_ie 2 in
          return (Istore ("B", ix, e)));
         (1, map (fun e -> Print_f e) (gen_fe 2));
         (1, map (fun e -> Print_i e) (gen_ie 2)) ]
      @
      if depth <= 0 then []
      else
        [ (2,
           let* c = gen_cond 2 in
           let* nt = int_range 1 3 in
           let* ne = int_range 0 2 in
           let* then_ = list_repeat nt (gen_stmt (depth - 1)) in
           let* else_ = list_repeat ne (gen_stmt (depth - 1)) in
           return (If (c, then_, else_)));
          (2,
           let* hi = int_range 1 6 in
           let* nb = int_range 1 3 in
           let* body = list_repeat nb (gen_stmt (depth - 1)) in
           (* one loop variable per nesting depth: an inner loop must not
              clobber its enclosing loop's counter *)
           return (For ("loop" ^ string_of_int depth, Iconst 0, Iconst hi, body))) ])
  in
  let* nstmts = int_range 3 10 in
  let* body = list_repeat nstmts (gen_stmt 2) in
  let* finals =
    return
      (List.map (fun n -> Print_f (fv n)) fvar_names
      @ List.map (fun n -> Print_i (iv n)) ivar_names)
  in
  return
    { name = "random";
      decls =
        [ Fscalar ("x", 1.5); Fscalar ("y", -0.25); Fscalar ("z", 100.0);
          Fscalar ("w", 0.0); Iscalar ("n", 3); Iscalar ("m", -7);
          Iscalar ("loop1", 0); Iscalar ("loop2", 0);
          Farray ("A", Array.init arr_size (fun k -> float_of_int k *. 0.7));
          Iarray ("B", Array.init arr_size (fun k -> Int64.of_int (k * 11))) ];
      body = body @ finals }

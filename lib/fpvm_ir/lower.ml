(* AST -> IR lowering: fresh temps per expression, structured control
   flow flattened to labels and conditional branches. *)

open Ast

type env = {
  mutable insts : Ir.inst list; (* reversed *)
  mutable nf : int;
  mutable ni : int;
  mutable nl : int;
}

let emit env i = env.insts <- i :: env.insts

let ftemp env =
  let t = env.nf in
  env.nf <- t + 1;
  t

let itemp env =
  let t = env.ni in
  env.ni <- t + 1;
  t

let label env =
  let l = env.nl in
  env.nl <- l + 1;
  l

let rec lower_f env (e : fexp) : Ir.ftemp =
  match e with
  | Fconst c ->
      let t = ftemp env in
      emit env (Ir.FConst (t, c));
      t
  | Fvar n ->
      let t = ftemp env in
      emit env (Ir.FLoadVar (t, n));
      t
  | Fload (arr, idx) ->
      let i = lower_i env idx in
      let t = ftemp env in
      emit env (Ir.FLoadArr (t, arr, i));
      t
  | Fbin (op, a, b) ->
      let ta = lower_f env a in
      let tb = lower_f env b in
      let t = ftemp env in
      emit env (Ir.FBin (op, t, ta, tb));
      t
  | Fneg a ->
      let ta = lower_f env a in
      let t = ftemp env in
      emit env (Ir.FNegI (t, ta));
      t
  | Fabs_e a ->
      let ta = lower_f env a in
      let t = ftemp env in
      emit env (Ir.FAbsI (t, ta));
      t
  | Fcall ("sqrt", [ a ]) ->
      let ta = lower_f env a in
      let t = ftemp env in
      emit env (Ir.FSqrt (t, ta));
      t
  | Fcall (name, args) ->
      let targs = List.map (lower_f env) args in
      let t = ftemp env in
      emit env (Ir.FCall (name, t, targs));
      t
  | Fof_int ie ->
      let ti = lower_i env ie in
      let t = ftemp env in
      emit env (Ir.FOfInt (t, ti));
      t

and lower_i env (e : iexp) : Ir.itemp =
  match e with
  | Iconst c ->
      let t = itemp env in
      emit env (Ir.IConst (t, Int64.of_int c));
      t
  | Ivar n ->
      let t = itemp env in
      emit env (Ir.ILoadVar (t, n));
      t
  | Iload (arr, idx) ->
      let i = lower_i env idx in
      let t = itemp env in
      emit env (Ir.ILoadArr (t, arr, i));
      t
  | Ibin (op, a, b) ->
      let ta = lower_i env a in
      let tb = lower_i env b in
      let t = itemp env in
      emit env (Ir.IBin (op, t, ta, tb));
      t
  | Iof_float fe ->
      let tf = lower_f env fe in
      let t = itemp env in
      emit env (Ir.IOfFloat (t, tf));
      t
  | Ibits_of_float fe ->
      let tf = lower_f env fe in
      let t = itemp env in
      emit env (Ir.IBitsOfF (t, tf));
      t

let lower_cond env (c : cond) : Ir.cnd =
  match c with
  | Fcmp (op, a, b) ->
      let ta = lower_f env a in
      let tb = lower_f env b in
      Ir.Cf (op, ta, tb)
  | Icmp (op, a, b) ->
      let ta = lower_i env a in
      let tb = lower_i env b in
      Ir.Ci (op, ta, tb)

let negate = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Ne
  | Ne -> Eq

let lower_cond_neg env c =
  match lower_cond env c with
  | Ir.Cf (op, a, b) -> Ir.Cf (negate op, a, b)
  | Ir.Ci (op, a, b) -> Ir.Ci (negate op, a, b)

let rec lower_stmt env (s : stmt) =
  match s with
  | Fset (n, e) ->
      let t = lower_f env e in
      emit env (Ir.FStoreVar (n, t))
  | Iset (n, e) ->
      let t = lower_i env e in
      emit env (Ir.IStoreVar (n, t))
  | Fstore (arr, idx, e) ->
      let i = lower_i env idx in
      let t = lower_f env e in
      emit env (Ir.FStoreArr (arr, i, t))
  | Istore (arr, idx, e) ->
      let i = lower_i env idx in
      let t = lower_i env e in
      emit env (Ir.IStoreArr (arr, i, t))
  | For (v, lo, hi, body) ->
      let tlo = lower_i env lo in
      emit env (Ir.IStoreVar (v, tlo));
      let l_top = label env and l_end = label env in
      emit env (Ir.Lbl l_top);
      (* exit when v >= hi *)
      let tv = itemp env in
      emit env (Ir.ILoadVar (tv, v));
      let thi = lower_i env hi in
      emit env (Ir.CondBr (Ir.Ci (Ge, tv, thi), l_end));
      List.iter (lower_stmt env) body;
      (* v <- v + 1 *)
      let tv2 = itemp env in
      emit env (Ir.ILoadVar (tv2, v));
      let one = itemp env in
      emit env (Ir.IConst (one, 1L));
      let tv3 = itemp env in
      emit env (Ir.IBin (IAdd, tv3, tv2, one));
      emit env (Ir.IStoreVar (v, tv3));
      emit env (Ir.Jmp l_top);
      emit env (Ir.Lbl l_end)
  | While (c, body) ->
      let l_top = label env and l_end = label env in
      emit env (Ir.Lbl l_top);
      let nc = lower_cond_neg env c in
      emit env (Ir.CondBr (nc, l_end));
      List.iter (lower_stmt env) body;
      emit env (Ir.Jmp l_top);
      emit env (Ir.Lbl l_end)
  | If (c, then_, else_) ->
      let l_else = label env and l_end = label env in
      let nc = lower_cond_neg env c in
      emit env (Ir.CondBr (nc, l_else));
      List.iter (lower_stmt env) then_;
      emit env (Ir.Jmp l_end);
      emit env (Ir.Lbl l_else);
      List.iter (lower_stmt env) else_;
      emit env (Ir.Lbl l_end)
  | Print_f e ->
      let t = lower_f env e in
      emit env (Ir.PrintF t)
  | Print_i e ->
      let t = lower_i env e in
      emit env (Ir.PrintI t)
  | Print_s s -> emit env (Ir.PrintS s)
  | Serialize_f e ->
      let t = lower_f env e in
      emit env (Ir.SerializeF t)

let lower (p : program) : Ir.func =
  let env = { insts = []; nf = 0; ni = 0; nl = 0 } in
  List.iter (lower_stmt env) p.body;
  { Ir.fname = p.name;
    insts = List.rev env.insts;
    n_ftemps = env.nf;
    n_itemps = env.ni;
    n_labels = env.nl;
    decls = p.decls }

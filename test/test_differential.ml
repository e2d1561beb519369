(* Differential testing: generate random programs in the workload DSL
   and require three independent executions to agree bit-for-bit:

     1. a direct AST interpreter (OCaml doubles / Int64 integers,
        mirroring the compiler's lowering semantics exactly),
     2. the compiled VX64 binary run natively,
     3. the same binary under FPVM+Vanilla (and under the static
        transform).

   (1)==(2) exercises the compiler and the machine; (2)==(3) exercises
   the entire virtualization machinery against adversarial programs
   (NaNs, infinities, denormals, bit reinterpretation, sign games). *)

open Fpvm_ir.Ast
module E_vanilla = Fpvm.Engine.Make (Fpvm.Alt_vanilla)

(* ---- the AST interpreter (oracle) ---------------------------------- *)

exception Unsupported of string

type ienv = {
  fvars : (string, float) Hashtbl.t;
  ivars : (string, int64) Hashtbl.t;
  farrs : (string, float array) Hashtbl.t;
  iarrs : (string, int64 array) Hashtbl.t;
  out : Buffer.t;
}

let lib1_of_name = function
  | "sqrt" -> Float.sqrt
  | "sin" -> Stdlib.sin
  | "cos" -> Stdlib.cos
  | "tan" -> Stdlib.tan
  | "asin" -> Stdlib.asin
  | "acos" -> Stdlib.acos
  | "atan" -> Stdlib.atan
  | "exp" -> Stdlib.exp
  | "log" -> Stdlib.log
  | "log10" -> Stdlib.log10
  | "floor" -> Float.floor
  | "ceil" -> Float.ceil
  | "fabs" -> Float.abs
  | n -> raise (Unsupported n)

let rec eval_f env (e : fexp) : float =
  match e with
  | Fconst c -> c
  | Fvar n -> Hashtbl.find env.fvars n
  | Fload (a, ix) ->
      (Hashtbl.find env.farrs a).(Int64.to_int (eval_i env ix))
  | Fbin (op, a, b) -> begin
      let x = eval_f env a in
      let y = eval_f env b in
      match op with
      | FAdd -> x +. y
      | FSub -> x -. y
      | FMul -> x *. y
      | FDiv -> x /. y
    end
  | Fneg a ->
      (* xorpd with the sign mask: flips the sign bit even of NaNs *)
      Int64.float_of_bits
        (Int64.logxor (Int64.bits_of_float (eval_f env a)) Int64.min_int)
  | Fabs_e a ->
      Int64.float_of_bits
        (Int64.logand (Int64.bits_of_float (eval_f env a)) Int64.max_int)
  | Fcall ("atan2", [ a; b ]) -> Float.atan2 (eval_f env a) (eval_f env b)
  | Fcall ("pow", [ a; b ]) -> eval_f env a ** eval_f env b
  | Fcall ("fmod", [ a; b ]) -> Float.rem (eval_f env a) (eval_f env b)
  | Fcall ("hypot", [ a; b ]) -> Float.hypot (eval_f env a) (eval_f env b)
  | Fcall (n, [ a ]) -> lib1_of_name n (eval_f env a)
  | Fcall (n, _) -> raise (Unsupported n)
  | Fof_int ie -> Int64.to_float (eval_i env ie)

and eval_i env (e : iexp) : int64 =
  match e with
  | Iconst c -> Int64.of_int c
  | Ivar n -> Hashtbl.find env.ivars n
  | Iload (a, ix) ->
      (Hashtbl.find env.iarrs a).(Int64.to_int (eval_i env ix))
  | Ibin (op, a, b) -> begin
      let x = eval_i env a in
      let y = eval_i env b in
      match op with
      | IAdd -> Int64.add x y
      | ISub -> Int64.sub x y
      | IMul -> Int64.mul x y
      | IAnd -> Int64.logand x y
      | IOr -> Int64.logor x y
      | IXor -> Int64.logxor x y
      | IShl -> Int64.shift_left x (Int64.to_int y land 63)
      | IShr -> Int64.shift_right_logical x (Int64.to_int y land 63)
    end
  | Iof_float fe ->
      (* cvttsd2si semantics: NaN / out of range -> integer indefinite *)
      let v = eval_f env fe in
      if Float.is_nan v || v >= 9.223372036854775808e18 || v < -9.223372036854775808e18
      then Int64.min_int
      else Int64.of_float (Float.trunc v)
  | Ibits_of_float fe -> Int64.bits_of_float (eval_f env fe)

(* Branch semantics must mirror the compiled code exactly: float compares
   go through comisd flags and unsigned condition codes, so unordered
   comparisons take the Lt/Le/Eq branches (CF=ZF=1) and skip Gt/Ge/Ne. *)
let branch_taken env (c : cond) : bool =
  match c with
  | Icmp (op, a, b) -> begin
      let x = eval_i env a in
      let y = eval_i env b in
      let s = Int64.compare x y in
      match op with
      | Lt -> s < 0
      | Le -> s <= 0
      | Gt -> s > 0
      | Ge -> s >= 0
      | Eq -> s = 0
      | Ne -> s <> 0
    end
  | Fcmp (op, a, b) -> begin
      let x = eval_f env a in
      let y = eval_f env b in
      if Float.is_nan x || Float.is_nan y then
        match op with Lt | Le | Eq -> true | Gt | Ge | Ne -> false
      else
        match op with
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
        | Eq -> x = y
        | Ne -> x <> y
    end

let negate = function Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt | Eq -> Ne | Ne -> Eq

let negate_cond = function
  | Fcmp (op, a, b) -> Fcmp (negate op, a, b)
  | Icmp (op, a, b) -> Icmp (negate op, a, b)

exception Out_of_fuel

let fuel = ref 0

let rec exec env (s : stmt) : unit =
  decr fuel;
  if !fuel <= 0 then raise Out_of_fuel;
  match s with
  | Fset (n, e) -> Hashtbl.replace env.fvars n (eval_f env e)
  | Iset (n, e) -> Hashtbl.replace env.ivars n (eval_i env e)
  | Fstore (a, ix, e) ->
      let i = Int64.to_int (eval_i env ix) in
      let v = eval_f env e in
      (Hashtbl.find env.farrs a).(i) <- v
  | Istore (a, ix, e) ->
      let i = Int64.to_int (eval_i env ix) in
      let v = eval_i env e in
      (Hashtbl.find env.iarrs a).(i) <- v
  | For (v, lo, hi, body) ->
      (* mirrors Lower: init, test v >= hi at top, increment at bottom *)
      Hashtbl.replace env.ivars v (eval_i env lo);
      let rec loop () =
        let hi_v = eval_i env hi in
        if Int64.compare (Hashtbl.find env.ivars v) hi_v >= 0 then ()
        else begin
          List.iter (exec env) body;
          Hashtbl.replace env.ivars v (Int64.add (Hashtbl.find env.ivars v) 1L);
          loop ()
        end
      in
      loop ()
  | While (c, body) ->
      let rec loop () =
        if branch_taken env (negate_cond c) then ()
        else begin
          List.iter (exec env) body;
          loop ()
        end
      in
      loop ()
  | If (c, then_, else_) ->
      if branch_taken env (negate_cond c) then List.iter (exec env) else_
      else List.iter (exec env) then_
  | Print_f e ->
      Buffer.add_string env.out (Printf.sprintf "%.17g\n" (eval_f env e))
  | Print_i e ->
      Buffer.add_string env.out (Printf.sprintf "%Ld\n" (eval_i env e))
  | Print_s str -> Buffer.add_string env.out str
  | Serialize_f _ -> ()

let interpret (p : program) : string =
  let env =
    { fvars = Hashtbl.create 8;
      ivars = Hashtbl.create 8;
      farrs = Hashtbl.create 4;
      iarrs = Hashtbl.create 4;
      out = Buffer.create 64 }
  in
  fuel := 10_000_000;
  List.iter
    (fun d ->
      match d with
      | Fscalar (n, v) -> Hashtbl.replace env.fvars n v
      | Iscalar (n, v) -> Hashtbl.replace env.ivars n (Int64.of_int v)
      | Farray (n, vs) -> Hashtbl.replace env.farrs n (Array.copy vs)
      | Iarray (n, vs) -> Hashtbl.replace env.iarrs n (Array.copy vs))
    p.decls;
  List.iter (exec env) p.body;
  Buffer.contents env.out

(* ---- random programs ---------------------------------------------------- *)

let arb_program =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Fpvm_ir.Ast.pp_program p)
    Random_program.gen_program

let q name ?(count = 150) law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED2 |])
 (QCheck.Test.make ~count ~name arb_program law)

let tests =
  [ q "interpreter == compiled native run" (fun p ->
        let expected = interpret p in
        let prog = Fpvm_ir.Codegen.compile_program p in
        let r = Fpvm.Engine.run_native ~max_insns:4_000_000 prog in
        expected = r.Fpvm.Engine.output);
    q "native == fpvm-vanilla" ~count:100 (fun p ->
        let prog = Fpvm_ir.Codegen.compile_program p in
        let native = Fpvm.Engine.run_native ~max_insns:4_000_000 prog in
        let v =
          E_vanilla.run
            ~config:
              { Fpvm.Engine.default_config with Fpvm.Engine.max_insns = 8_000_000 }
            prog
        in
        native.Fpvm.Engine.output = v.Fpvm.Engine.output);
    q "native == static transform" ~count:60 (fun p ->
        let prog = Fpvm_ir.Codegen.compile_program p in
        let native = Fpvm.Engine.run_native ~max_insns:4_000_000 prog in
        let v =
          E_vanilla.run
            ~config:
              { Fpvm.Engine.default_config with
                Fpvm.Engine.approach = Fpvm.Engine.Static_transform;
                Fpvm.Engine.max_insns = 8_000_000 }
            prog
        in
        native.Fpvm.Engine.output = v.Fpvm.Engine.output);
    q "native == trap-and-patch" ~count:60 (fun p ->
        let prog = Fpvm_ir.Codegen.compile_program p in
        let native = Fpvm.Engine.run_native ~max_insns:4_000_000 prog in
        let v =
          E_vanilla.run
            ~config:
              { Fpvm.Engine.default_config with
                Fpvm.Engine.approach = Fpvm.Engine.Trap_and_patch;
                Fpvm.Engine.max_insns = 8_000_000 }
            prog
        in
        native.Fpvm.Engine.output = v.Fpvm.Engine.output)
  ]

let () = Alcotest.run "differential" [ ("random-programs", tests) ]

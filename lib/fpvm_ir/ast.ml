(* The workload source language: a small imperative language with
   separate float and integer expression worlds, compiled through the IR
   to VX64 binaries. It deliberately includes the idioms that make
   floating point virtualization hard: reinterpreting a double's bits as
   an integer, sign manipulation via xmm bitwise logic, libm calls, and
   printf/serialization of floating point data. *)

type fbin = FAdd | FSub | FMul | FDiv

type ibin = IAdd | ISub | IMul | IAnd | IOr | IXor | IShl | IShr

type cmpop = Lt | Le | Gt | Ge | Eq | Ne

type fexp =
  | Fconst of float
  | Fvar of string
  | Fload of string * iexp (* float_array[i] *)
  | Fbin of fbin * fexp * fexp
  | Fneg of fexp (* compiled to an xorpd sign flip *)
  | Fabs_e of fexp (* compiled to an andpd mask *)
  | Fcall of string * fexp list (* libm: sin, cos, pow, sqrt, ... *)
  | Fof_int of iexp

and iexp =
  | Iconst of int
  | Ivar of string
  | Iload of string * iexp (* int_array[i] *)
  | Ibin of ibin * iexp * iexp
  | Iof_float of fexp (* cvttsd2si *)
  | Ibits_of_float of fexp (* reinterpret double bits (Figure 6 idiom) *)

type cond =
  | Fcmp of cmpop * fexp * fexp
  | Icmp of cmpop * iexp * iexp

type stmt =
  | Fset of string * fexp
  | Iset of string * iexp
  | Fstore of string * iexp * fexp
  | Istore of string * iexp * iexp
  | For of string * iexp * iexp * stmt list (* for v = lo; v < hi; v++ *)
  | While of cond * stmt list
  | If of cond * stmt list * stmt list
  | Print_f of fexp
  | Print_i of iexp
  | Print_s of string
  | Serialize_f of fexp

type decl =
  | Fscalar of string * float
  | Iscalar of string * int
  | Farray of string * float array
  | Iarray of string * int64 array

type program = { name : string; decls : decl list; body : stmt list }

(* Convenience constructors *)
let f c = Fconst c
let fv n = Fvar n
let ( +: ) a b = Fbin (FAdd, a, b)
let ( -: ) a b = Fbin (FSub, a, b)
let ( *: ) a b = Fbin (FMul, a, b)
let ( /: ) a b = Fbin (FDiv, a, b)
let sqrt_ e = Fcall ("sqrt", [ e ])
let sin_ e = Fcall ("sin", [ e ])
let i c = Iconst c
let iv n = Ivar n

(* ---- pretty printer (for debugging and test failure reports) ---------- *)

let rec pp_fexp fmt (e : fexp) =
  match e with
  | Fconst c -> Format.fprintf fmt "%h" c
  | Fvar n -> Format.pp_print_string fmt n
  | Fload (a, ix) -> Format.fprintf fmt "%s[%a]" a pp_iexp ix
  | Fbin (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_fexp a
        (match op with FAdd -> "+" | FSub -> "-" | FMul -> "*" | FDiv -> "/")
        pp_fexp b
  | Fneg a -> Format.fprintf fmt "(-%a)" pp_fexp a
  | Fabs_e a -> Format.fprintf fmt "|%a|" pp_fexp a
  | Fcall (n, args) ->
      Format.fprintf fmt "%s(%a)" n
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_fexp)
        args
  | Fof_int ie -> Format.fprintf fmt "(double)%a" pp_iexp ie

and pp_iexp fmt (e : iexp) =
  match e with
  | Iconst c -> Format.pp_print_int fmt c
  | Ivar n -> Format.pp_print_string fmt n
  | Iload (a, ix) -> Format.fprintf fmt "%s[%a]" a pp_iexp ix
  | Ibin (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp_iexp a
        (match op with
        | IAdd -> "+" | ISub -> "-" | IMul -> "*" | IAnd -> "&"
        | IOr -> "|" | IXor -> "^" | IShl -> "<<" | IShr -> ">>")
        pp_iexp b
  | Iof_float fe -> Format.fprintf fmt "(int64)%a" pp_fexp fe
  | Ibits_of_float fe -> Format.fprintf fmt "bits(%a)" pp_fexp fe

let pp_cmpop fmt op =
  Format.pp_print_string fmt
    (match op with
    | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!=")

let pp_cond fmt = function
  | Fcmp (op, a, b) -> Format.fprintf fmt "%a %a %a" pp_fexp a pp_cmpop op pp_fexp b
  | Icmp (op, a, b) -> Format.fprintf fmt "%a %a %a" pp_iexp a pp_cmpop op pp_iexp b

let rec pp_stmt fmt (s : stmt) =
  match s with
  | Fset (n, e) -> Format.fprintf fmt "%s = %a;" n pp_fexp e
  | Iset (n, e) -> Format.fprintf fmt "%s = %a;" n pp_iexp e
  | Fstore (a, ix, e) -> Format.fprintf fmt "%s[%a] = %a;" a pp_iexp ix pp_fexp e
  | Istore (a, ix, e) -> Format.fprintf fmt "%s[%a] = %a;" a pp_iexp ix pp_iexp e
  | For (v, lo, hi, body) ->
      Format.fprintf fmt "@[<v 2>for (%s = %a; %s < %a; %s++) {@,%a@]@,}" v
        pp_iexp lo v pp_iexp hi v pp_stmts body
  | While (c, body) ->
      Format.fprintf fmt "@[<v 2>while (%a) {@,%a@]@,}" pp_cond c pp_stmts body
  | If (c, t, e) ->
      Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,} else {@,%a@,}" pp_cond c
        pp_stmts t pp_stmts e
  | Print_f e -> Format.fprintf fmt "printf(\"%%.17g\\n\", %a);" pp_fexp e
  | Print_i e -> Format.fprintf fmt "printf(\"%%ld\\n\", %a);" pp_iexp e
  | Print_s s -> Format.fprintf fmt "printf(%S);" s
  | Serialize_f e -> Format.fprintf fmt "write(%a);" pp_fexp e

and pp_stmts fmt body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt body

let pp_program fmt (p : program) =
  Format.fprintf fmt "@[<v>// %s@,%a@]" p.name pp_stmts p.body

(* The typed 3-address IR between the AST and VX64 code generation —
   the moral equivalent of the paper's whole-program LLVM IR: a small
   set of FP instruction kinds that an FPVM compiler pass can instrument
   wholesale (section 3.4). *)

type ftemp = int
type itemp = int
type label = int

type cnd =
  | Cf of Ast.cmpop * ftemp * ftemp
  | Ci of Ast.cmpop * itemp * itemp

type inst =
  (* floating point *)
  | FConst of ftemp * float
  | FMove of ftemp * ftemp
  | FBin of Ast.fbin * ftemp * ftemp * ftemp (* dst <- a op b *)
  | FNegI of ftemp * ftemp
  | FAbsI of ftemp * ftemp
  | FSqrt of ftemp * ftemp
  | FCall of string * ftemp * ftemp list
  | FLoadVar of ftemp * string
  | FStoreVar of string * ftemp
  | FLoadArr of ftemp * string * itemp
  | FStoreArr of string * itemp * ftemp
  | FOfInt of ftemp * itemp
  (* integer *)
  | IConst of itemp * int64
  | IMove of itemp * itemp
  | IBin of Ast.ibin * itemp * itemp * itemp
  | ILoadVar of itemp * string
  | IStoreVar of string * itemp
  | ILoadArr of itemp * string * itemp
  | IStoreArr of string * itemp * itemp
  | IOfFloat of itemp * ftemp (* cvttsd2si *)
  | IBitsOfF of itemp * ftemp (* bit reinterpretation through memory *)
  (* control *)
  | Lbl of label
  | Jmp of label
  | CondBr of cnd * label (* branch if true *)
  (* I/O *)
  | PrintF of ftemp
  | PrintI of itemp
  | PrintS of string
  | SerializeF of ftemp

type func = {
  fname : string;
  insts : inst list;
  n_ftemps : int;
  n_itemps : int;
  n_labels : int;
  decls : Ast.decl list;
}


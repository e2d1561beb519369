(* The alternative arithmetic interface (paper section 4.3).

   Like the paper's, it consists of scalar functions only — the emulator
   handles vector instructions by calling them per lane — organized as
   23 arithmetic operations, 10 conversions and 4 comparisons, plus
   promotion/demotion and a cost model used for cycle accounting. A new
   arithmetic system is a module of this type (the paper reports ~350
   lines per port; ours are comparable). *)

type op_class =
  | C_add
  | C_sub
  | C_mul
  | C_div
  | C_sqrt
  | C_fma
  | C_cmp
  | C_cvt
  | C_libm

module type S = sig
  type value

  val name : string

  (* --- promotion / demotion --- *)

  val promote : int64 -> value
  (** From IEEE binary64 bits. *)

  val demote : value -> int64
  (** To IEEE binary64 bits (rounding as needed). *)

  (* --- arithmetic (23) --- *)

  val add : value -> value -> value
  val sub : value -> value -> value
  val mul : value -> value -> value
  val div : value -> value -> value
  val sqrt : value -> value
  val fma : value -> value -> value -> value
  val neg : value -> value
  val abs : value -> value
  val min_v : value -> value -> value
  val max_v : value -> value -> value
  val sin : value -> value
  val cos : value -> value
  val tan : value -> value
  val asin : value -> value
  val acos : value -> value
  val atan : value -> value
  val atan2 : value -> value -> value
  val exp : value -> value
  val log : value -> value
  val log10 : value -> value
  val pow : value -> value -> value
  val fmod : value -> value -> value
  val hypot : value -> value -> value

  (* --- conversions (10) --- *)

  val of_i64 : int64 -> value
  val of_i32 : int32 -> value
  val to_i64 : Ieee754.Softfp.rounding -> value -> int64
  val to_i32 : Ieee754.Softfp.rounding -> value -> int32
  val of_f32_bits : int64 -> value
  val to_f32_bits : value -> int64
  val round_int : Ieee754.Softfp.rounding -> value -> value
  val floor_v : value -> value
  val ceil_v : value -> value
  val to_string : value -> string
  (** Used by the hijacked printf. *)

  (* --- comparisons (4) --- *)

  val cmp_quiet : value -> value -> Ieee754.Softfp.cmp
  val cmp_signaling : value -> value -> Ieee754.Softfp.cmp
  val is_nan_v : value -> bool
  val is_zero_v : value -> bool

  (* --- serialization (checkpoint/restore, lib/replay) --- *)

  val encode_value : Buffer.t -> value -> unit
  (** Append a self-delimiting, exact binary encoding of the value
      (the {!Wire} codec). Exactness matters: a checkpointed run must
      resume bit-identically, so no rounding is allowed here. *)

  val decode_value : string -> int ref -> value
  (** Read one value back, advancing the position; raises
      {!Wire.Corrupt} on malformed input. *)

  (* --- modeled cost (cycles) of one scalar operation, for Figure 9 --- *)

  val op_cycles : op_class -> int
end

let class_of_fp_op (op : Machine.Isa.fp_op) =
  match op with
  | Machine.Isa.FADD -> C_add
  | Machine.Isa.FSUB -> C_sub
  | Machine.Isa.FMUL -> C_mul
  | Machine.Isa.FDIV -> C_div
  | Machine.Isa.FSQRT -> C_sqrt
  | Machine.Isa.FMIN | Machine.Isa.FMAX -> C_cmp

(* The libm entry points a guest can call, in port [A]: the port's own
   functions, plus cbrt, sinh, cosh and tanh composed from its pow and
   exp (the interface has no such functions). The engine's math wrapper
   and numprof's shadow both apply it, so they compose alike. *)
module Libm (A : S) = struct
  let math_ext (fn : Machine.Isa.ext_fn) :
      [ `Unary of A.value -> A.value
      | `Binary of A.value -> A.value -> A.value
      | `Other ] =
    match fn with
    | Machine.Isa.Sin -> `Unary A.sin
    | Machine.Isa.Cos -> `Unary A.cos
    | Machine.Isa.Tan -> `Unary A.tan
    | Machine.Isa.Asin -> `Unary A.asin
    | Machine.Isa.Acos -> `Unary A.acos
    | Machine.Isa.Atan -> `Unary A.atan
    | Machine.Isa.Exp -> `Unary A.exp
    | Machine.Isa.Log -> `Unary A.log
    | Machine.Isa.Log10 -> `Unary A.log10
    | Machine.Isa.Floor -> `Unary A.floor_v
    | Machine.Isa.Ceil -> `Unary A.ceil_v
    | Machine.Isa.Fabs -> `Unary A.abs
    | Machine.Isa.Cbrt ->
        (* pow(v, 1/3) is NaN for v < 0; transfer the sign instead:
           cbrt(-x) = -cbrt(x). *)
        `Unary
          (fun v ->
            let third = A.promote (Int64.bits_of_float (1.0 /. 3.0)) in
            match A.cmp_quiet v (A.promote 0L) with
            | Ieee754.Softfp.Cmp_lt -> A.neg (A.pow (A.neg v) third)
            | _ -> A.pow v third)
    | Machine.Isa.Sinh | Machine.Isa.Cosh | Machine.Isa.Tanh ->
        let f v =
          let e = A.exp v and en = A.exp (A.neg v) in
          let two = A.promote (Int64.bits_of_float 2.0) in
          match fn with
          | Machine.Isa.Sinh -> A.div (A.sub e en) two
          | Machine.Isa.Cosh -> A.div (A.add e en) two
          | _ -> A.div (A.sub e en) (A.add e en)
        in
        `Unary f
    | Machine.Isa.Atan2 -> `Binary A.atan2
    | Machine.Isa.Pow -> `Binary A.pow
    | Machine.Isa.Fmod -> `Binary A.fmod
    | Machine.Isa.Hypot -> `Binary A.hypot
    | Machine.Isa.Print_f64 | Machine.Isa.Print_i64 | Machine.Isa.Print_str _
    | Machine.Isa.Write_f64 | Machine.Isa.Alloc | Machine.Isa.Exit ->
        `Other
end

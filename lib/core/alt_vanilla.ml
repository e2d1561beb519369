(* The Vanilla arithmetic system: IEEE binary64. Its entire purpose
   (paper section 4.3) is validation — a run under FPVM+Vanilla must
   produce bit-identical results to a native run, proving the
   virtualization machinery itself is transparent.

   add, sub, mul, div, sqrt and fma run on the host's binary64 unit.
   Every non-NaN result is unique under round-to-nearest-even, so the
   host and the machine's soft core ({!Ieee754.Soft64}, which native
   steps run) agree on it bit for bit. A NaN result (any NaN operand or
   invalid operation) is recomputed by the soft core: its payload, sign
   and default NaN may depend on the platform and on the operand order
   the compiler picks, and the soft core's are the native machine's.
   Every other operation stays on the soft core. *)

module S64 = Ieee754.Soft64

type value = int64 (* raw binary64 bits *)

let name = "vanilla"

let rne = Ieee754.Softfp.Nearest_even

let promote bits = bits
let demote v = v

let fl = Int64.float_of_bits

let add a b =
  let r = fl a +. fl b in
  if Float.is_nan r then fst (S64.add rne a b) else Int64.bits_of_float r

let sub a b =
  let r = fl a -. fl b in
  if Float.is_nan r then fst (S64.sub rne a b) else Int64.bits_of_float r

let mul a b =
  let r = fl a *. fl b in
  if Float.is_nan r then fst (S64.mul rne a b) else Int64.bits_of_float r

let div a b =
  let r = fl a /. fl b in
  if Float.is_nan r then fst (S64.div rne a b) else Int64.bits_of_float r

let sqrt a =
  let r = Float.sqrt (fl a) in
  if Float.is_nan r then fst (S64.sqrt rne a) else Int64.bits_of_float r

let fma a b c =
  let r = Float.fma (fl a) (fl b) (fl c) in
  if Float.is_nan r then fst (S64.fma rne a b c) else Int64.bits_of_float r

let neg = S64.neg
let abs = S64.abs
let min_v a b = fst (S64.min_op a b)
let max_v a b = fst (S64.max_op a b)

(* libm functions: Vanilla must match what the native machine's libm
   does, which in this simulator is the host libm. *)
let lib1 f v = Int64.bits_of_float (f (Int64.float_of_bits v))
let lib2 f a b =
  Int64.bits_of_float (f (Int64.float_of_bits a) (Int64.float_of_bits b))

let sin = lib1 Stdlib.sin
let cos = lib1 Stdlib.cos
let tan = lib1 Stdlib.tan
let asin = lib1 Stdlib.asin
let acos = lib1 Stdlib.acos
let atan = lib1 Stdlib.atan
let atan2 = lib2 Stdlib.atan2
let exp = lib1 Stdlib.exp
let log = lib1 Stdlib.log
let log10 = lib1 Stdlib.log10
let pow = lib2 ( ** )
let fmod = lib2 Float.rem
let hypot = lib2 Float.hypot

let of_i64 v = fst (S64.of_int64 rne v)
let of_i32 v = fst (S64.of_int32 rne v)
let to_i64 mode v = fst (S64.to_int64 mode v)
let to_i32 mode v = fst (S64.to_int32 mode v)
let of_f32_bits b = fst (Ieee754.Convert.f32_to_f64 rne b)
let to_f32_bits v = fst (Ieee754.Convert.f64_to_f32 rne v)
let round_int mode v = fst (S64.round_to_integral mode v)
let floor_v v = round_int Ieee754.Softfp.Toward_neg v
let ceil_v v = round_int Ieee754.Softfp.Toward_pos v
let to_string v = Printf.sprintf "%.17g" (Int64.float_of_bits v)

let cmp_quiet a b = fst (S64.compare_quiet a b)
let cmp_signaling a b = fst (S64.compare_signaling a b)
let is_nan_v = S64.is_nan
let is_zero_v = S64.is_zero

(* Software IEEE emulation cost (softfloat-in-C ballpark). *)
let op_cycles = function
  | Arith.C_add | Arith.C_sub -> 45
  | Arith.C_mul -> 55
  | Arith.C_div -> 120
  | Arith.C_sqrt -> 150
  | Arith.C_fma -> 90
  | Arith.C_cmp -> 30
  | Arith.C_cvt -> 35
  | Arith.C_libm -> 400

(* ---- serialization (lib/replay) ------------------------------------- *)

let encode_value b (v : value) = Wire.i64 b v
let decode_value s pos : value = Wire.r_i64 s pos

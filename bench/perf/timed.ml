(* An arithmetic port that times every call into the port it wraps.

   Arith calls are too frequent for one span each, so they are summed
   per op class as a call count and total host nanoseconds. The wrapper
   returns the wrapped port's results unchanged, so a run under
   [Make (A)] is bit- and fingerprint-identical to a run under [A]; only
   host time grows, by two clock reads per call. *)

let classes = [| "basic"; "sqrt_fma"; "libm"; "convert"; "compare" |]

let basic = 0
let sqrt_fma = 1
let libm = 2
let convert = 3
let comparison = 4

type counters = { calls : int array; ns : int array }

let total a = Array.fold_left ( + ) 0 a

let now () = Int64.to_int (Monotonic_clock.now ())

module Make (A : Fpvm.Arith.S) : sig
  include Fpvm.Arith.S with type value = A.value

  val counters : counters
end = struct
  include A

  let counters =
    { calls = Array.make (Array.length classes) 0;
      ns = Array.make (Array.length classes) 0 }

  let[@inline] charge k t0 =
    counters.calls.(k) <- counters.calls.(k) + 1;
    counters.ns.(k) <- counters.ns.(k) + (now () - t0)

  let t1 k f a =
    let t0 = now () in
    let r = f a in
    charge k t0;
    r

  let t2 k f a b =
    let t0 = now () in
    let r = f a b in
    charge k t0;
    r

  let promote = t1 convert A.promote
  let demote = t1 convert A.demote
  let add = t2 basic A.add
  let sub = t2 basic A.sub
  let mul = t2 basic A.mul
  let div = t2 basic A.div
  let neg = t1 basic A.neg
  let abs = t1 basic A.abs
  let min_v = t2 basic A.min_v
  let max_v = t2 basic A.max_v
  let sqrt = t1 sqrt_fma A.sqrt

  let fma a b c =
    let t0 = now () in
    let r = A.fma a b c in
    charge sqrt_fma t0;
    r

  let sin = t1 libm A.sin
  let cos = t1 libm A.cos
  let tan = t1 libm A.tan
  let asin = t1 libm A.asin
  let acos = t1 libm A.acos
  let atan = t1 libm A.atan
  let atan2 = t2 libm A.atan2
  let exp = t1 libm A.exp
  let log = t1 libm A.log
  let log10 = t1 libm A.log10
  let pow = t2 libm A.pow
  let fmod = t2 libm A.fmod
  let hypot = t2 libm A.hypot
  let of_i64 = t1 convert A.of_i64
  let of_i32 = t1 convert A.of_i32
  let to_i64 = t2 convert A.to_i64
  let to_i32 = t2 convert A.to_i32
  let of_f32_bits = t1 convert A.of_f32_bits
  let to_f32_bits = t1 convert A.to_f32_bits
  let round_int = t2 convert A.round_int
  let floor_v = t1 convert A.floor_v
  let ceil_v = t1 convert A.ceil_v
  let to_string = t1 convert A.to_string
  let cmp_quiet = t2 comparison A.cmp_quiet
  let cmp_signaling = t2 comparison A.cmp_signaling
  let is_nan_v = t1 comparison A.is_nan_v
  let is_zero_v = t1 comparison A.is_zero_v
end

(* Model of the x64 %mxcsr control/status register.

   Bit layout (matching the real register):
     0..5   sticky exception flags (IE DE ZE OE UE PE)
     6      DAZ (denormals-are-zero) - modeled but unused by default
     7..12  exception masks (a SET mask bit suppresses the fault)
     13..14 rounding control (00 RNE, 01 RDN, 10 RUP, 11 RTZ)
     15     FTZ (flush-to-zero) - modeled but unused by default *)

type t = { mutable bits : int }

let default_bits = 0x1F80 (* all exceptions masked, RNE *)

let create () = { bits = default_bits }
let to_bits t = t.bits

let flags t : Flags.t = t.bits land 0x3F
let set_flags t (f : Flags.t) = t.bits <- t.bits lor (f land 0x3F)
let clear_flags t = t.bits <- t.bits land lnot 0x3F

let masks t : Flags.t = (t.bits lsr 7) land 0x3F

let set_masks t (m : Flags.t) =
  t.bits <- (t.bits land lnot (0x3F lsl 7)) lor ((m land 0x3F) lsl 7)

let unmask_all t = set_masks t Flags.none
let mask_all t = set_masks t Flags.all

let rounding t : Softfp.rounding =
  match (t.bits lsr 13) land 3 with
  | 0 -> Softfp.Nearest_even
  | 1 -> Softfp.Toward_neg
  | 2 -> Softfp.Toward_pos
  | _ -> Softfp.Toward_zero

let set_rounding t (r : Softfp.rounding) =
  let rc =
    match r with
    | Softfp.Nearest_even -> 0
    | Softfp.Toward_neg -> 1
    | Softfp.Toward_pos -> 2
    | Softfp.Toward_zero -> 3
  in
  t.bits <- (t.bits land lnot (3 lsl 13)) lor (rc lsl 13)

(* Events in [f] whose mask bit is clear: these raise a fault. *)
let unmasked_events t (f : Flags.t) : Flags.t =
  Flags.inter f (lnot (masks t) land 0x3F)

let copy t = { bits = t.bits }

let pp fmt t =
  Format.fprintf fmt "mxcsr{flags=%a masks=%a rc=%a}" Flags.pp (flags t)
    Flags.pp (masks t) Softfp.pp_rounding (rounding t)

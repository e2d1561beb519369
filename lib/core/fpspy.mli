(** FPSpy mode: profile a binary's floating point events without
    emulating anything (the authors' HPDC'20 tool whose machinery the
    FPVM trap-and-emulate core builds on, paper section 4.1).

    The program's results are untouched; the product is an event profile
    — which instructions round/overflow/underflow and how often — the
    reconnaissance an analyst runs before deciding to virtualize. *)

type site = {
  index : int;  (** instruction index *)
  mnemonic : string;
  mutable hits : int;
  mutable events : Ieee754.Flags.t;  (** union of events seen here *)
}

type profile = {
  mutable total_traps : int;
  mutable rounded : int;
  mutable overflowed : int;
  mutable underflowed : int;
  mutable denormal : int;
  mutable invalid : int;
  mutable div_by_zero : int;
  sites : (int, site) Hashtbl.t;
}

type result = { run : Engine.result; profile : profile }

val run : Machine.Program.t -> result
(** Run to completion under FPSpy, on {!Engine.default_config}'s machine
    and delivery path. The program output is bit-identical to a native
    run (tested); only the profile is new. *)

val top_sites : ?n:int -> profile -> site list
(** Hottest event sites, most-hit first. *)

val pp_profile : Format.formatter -> profile -> unit

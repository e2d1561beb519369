(** The FPVM engine (paper section 4).

    Functorized over the alternative arithmetic system ({!Arith.S}).
    The trap-and-emulate core installs itself as the simulated kernel's
    SIGFPE handler, unmasks every %mxcsr exception, and services each
    fault through decode (cached) -> bind -> emulate, NaN-boxing results
    into the shadow arena. Correctness traps inserted by the static
    analysis demote boxed operands and single-step the original
    instruction. Two alternative strategies reuse the same machinery:
    trap-and-patch (faulting sites are rewritten with inline-check
    patches after their first trap) and the static binary transformation
    (every FP instruction runs behind an inline software check; the
    hardware never traps). *)

type approach =
  | Trap_and_emulate  (** the hybrid default (paper section 4) *)
  | Trap_and_patch  (** patch sites after their first fault (3.2) *)
  | Static_transform  (** software checks everywhere, no traps (3.3) *)

type config = {
  approach : approach;
  deployment : Trapkern.deployment;
      (** trap delivery path: user signal / kernel module / user->user *)
  use_fpa : bool;
      (** consume the FP special-value tier ([Analysis.Fpa]): fuse
          scalar JIT steps at proven-subnormal-free sites without the
          runtime raw input scan, and keep proven sites inside
          superblocks on clean inputs instead of side-exiting. Facts are
          proofs, so outputs are bit-identical with this on or off (the
          [--no-fpa] escape hatch). *)
  oracle : bool;
      (** soundness oracle: observe every dispatched instruction and
          count unpatched integer loads that read a live NaN-boxed word
          ([Stats.oracle_boxed_loads]; any hit is an analysis soundness
          violation). Observation only — never perturbs execution or
          the deterministic counters. *)
  gc_interval : int;  (** emulated instructions between GC passes *)
  incremental_gc : bool;
      (** write-barrier dirty-card GC: mark from registers plus only
          the 64-byte cards dirtied since the last pass, sweeping only
          cells allocated since then — O(recent stores) per pass
          instead of O(writable memory) *)
  full_scan_every : int;
      (** every Nth GC pass is a full conservative scan (safety net and
          old-garbage reclamation); [<= 0] disables periodic full scans
          (the final pass is always full) *)
  always_emulate : bool;
      (** the paper's footnote-2 variant: never execute FP on the
          hardware; every FP instruction goes to the alternative system
          (meaningful under [Static_transform]) *)
  max_trace_len : int;
      (** sequence (trace) emulation: after servicing a trap, stay
          resident and execute up to this many instructions (the
          faulting one included) before resuming native execution.
          [1] reproduces the classic single-step engine exactly. *)
  use_plans : bool;
      (** site specialization: compile each emulated site's decoded form
          into a cached binding plan ("superop") — operand accessors,
          lane count, box/elide strategy and the arithmetic entry point
          pre-resolved — so revisits pay one [plan_hit] charge instead
          of bind + op_map dispatch. Also enables in-trace shadow-temp
          elision (dataflow-local scalar results live in a per-trace
          scratch buffer instead of the arena). [false] reproduces the
          unspecialized engine bit- and cycle-exactly (the [--no-plans]
          escape hatch). *)
  use_jit : bool;
      (** trace JIT: promote traces whose head has delivered at least
          [jit_threshold] times into compiled superblocks — guarded
          closures fusing the whole window's per-step classify/dispatch
          ([jit_step] per instruction instead of [trace_step] +
          plan-table traffic), linked compiled-to-compiled across loop
          back-edges so steady-state loops never pay another delivery.
          Shape, rip and taint guards side-exit to the interpretive
          trace loop, which is bit-identical by construction. [false]
          reproduces the plans-only engine exactly (the [--no-jit]
          escape hatch). *)
  jit_threshold : int;
      (** deliveries at one head before its next window is recorded and
          compiled *)
  cost : Machine.Cost_model.t;
  max_insns : int;  (** runaway-execution guard *)
}

val default_config : config
(** Trap-and-emulate, user-signal delivery, GC every 20k emulations
    (incremental, full scan every 8th pass), traces up to 64
    instructions, R815 cost model. *)

val jit_max_trace_len : int
(** Cap (64) on a recorded superblock path: a longer recording, under a
    [max_trace_len] above it, is truncated before compiling. *)

(** {2 The config table}

    Each field but [max_insns] is declared once, as a row of
    {!config_table}; the config line, the session key, fpvm_run's flags,
    manifest keys ({!set}) and {!Make.prepare}'s check derive from it. *)

(** What a front end may write: an integer within inclusive bounds, or
    one of the names. *)
type accepts = Ints of int * int | Names of string list

type front = {
  key : string;  (** manifest key; fpvm_run's flag unless [switch] *)
  switch : (string * string) option;
      (** fpvm_run's switch and the spelling it sets: [--no-plans] is
          [plans=off] *)
  accepts : accepts;
  spell : config -> string;  (** the value as a front end spells it *)
  parse : config -> string -> (config, string) result;
  doc : string;  (** fpvm_run's help text *)
}

type row = {
  line : string;  (** the key in the config line *)
  show : config -> string;  (** the value as the config line prints it *)
  session : bool;  (** part of the artifact session key *)
  front : front option;  (** [None]: no front end sets the field *)
}

val config_table : row list
(** In config-line order. [vsa], [cache] and [jmtl] are constants. *)

val config_fronts : front list

val front : string -> front
(** Raises [Not_found] for an unknown key. *)

val config_line : config -> string
(** A replay log's config line, [line=show] for each row, [;]-separated.
    Replay compares it byte for byte, so it is a format. *)

val config_flags : config -> string
(** The session-key rows of the line, the [~flags] of
    {!Artifact.session_key}: what shapes a recorded path. *)

val set : config -> string -> string -> (config, string) result
(** [set c key value]: [c] with front-end [key] set from [value] (any
    case), or why not. The one validator of config flags and manifest
    keys. *)

type result = {
  output : string;  (** the program's printed output *)
  serialized : string;  (** bytes written through the Write_f64 channel *)
  stats : Stats.t;
  cycles : int;  (** total machine cycles including FPVM overheads *)
  insns : int;  (** dynamic instructions executed *)
  fp_insns : int;  (** dynamic floating point instructions *)
  st : Machine.State.t;  (** final machine state, for inspection *)
}

module Make (A : Arith.S) : sig
  type t
  (** The engine instance: stats, shadow arena, decode cache, binding
      plans, compiled superblocks and the trace machinery's state. Only
      this module reads or writes it; {!capture} and {!restore} carry
      it across a checkpoint. *)

  (** A prepared machine: engine, machine state, simulated kernel, and
      the engine's working copy of the binary. All handlers are
      installed; {!resume} drives it to completion. lib/replay installs
      probe callbacks (and overwrites the state from a checkpoint)
      between {!prepare} and {!resume}. *)
  type session = {
    eng : t;
    st : Machine.State.t;
    kern : Trapkern.t;
    prog : Machine.Program.t;
  }

  val prepare :
    ?config:config ->
    ?facts:Vsa.analysis ->
    ?artifacts:Artifact.t ->
    Machine.Program.t ->
    session
  (** Copy the binary, run the static analysis, create the machine and
      kernel, install all handlers — everything up to (but excluding)
      the first instruction. Deterministic for a given program and
      config. Raises [Invalid_argument], before allocating anything,
      when an integer field is outside the bounds {!set} enforces.

      [?facts] supplies a precomputed {!Vsa.analysis} of the (pristine)
      binary instead of re-running the analysis — the fleet's shared
      read-only fact store. The analysis is pure and index-based, so a
      prepared session is bit-identical whether the facts were computed
      here or shared; only the one-time analysis work is saved.

      [?artifacts] attaches a compilation-artifact store
      ({!Artifact.t}). The session key is derived from the pristine
      binary's content digest, the port name, the analysis tier version
      and the codegen-relevant config flags before any patching. The
      engine then publishes its jit recordings into the store as it
      compiles them, and claims matching recordings published by
      earlier identical sessions (moving the compile charge into the
      fingerprint-excluded [Stats.cyc_compile_shared] bucket).
      Execution, output and the architectural fingerprint are
      bit-identical with or without a store. *)

  val resume : session -> result
  (** Execute until halt, run the final full GC pass, and fold the
      kernel's delivery accounting into the stats. Call at most once
      per session. *)

  val run :
    ?config:config -> ?artifacts:Artifact.t -> Machine.Program.t -> result
  (** [resume (prepare ~config prog)]. The input program is copied;
      analysis patches and trap-and-patch rewrites never mutate the
      caller's binary. *)

  val capture : session -> Buffer.t -> unit
  (** Append the engine's section of a checkpoint (format v4): GC
      epoch, trap-and-patch site count, stats, decode cache, the sites
      holding a binding plan, the JIT's hot counters and each compiled
      block's recorded path, the trap-and-patch rewrites, the shadow
      arena, and the kernel's accounting. Take it at a quiesce point
      ({!Probe.add_quiesce}). *)

  val restore : session -> string -> int ref -> unit
  (** Read a section {!capture} wrote, starting at the position, over a
      freshly prepared session of the same program and config. Then
      re-apply the rewrites, the no-escape facts over the rewritten
      program, the plans and the JIT blocks, in that order, all
      silently: a resumed run replays the original's plan and JIT
      traffic, and hence its cycles, exactly. Raises {!Wire.Corrupt} on
      a cached decode index that is out of range or not an FP
      instruction, a rewritten site or JIT path index out of range, a
      count beyond the bytes left, or an arena {!Arena.restore}
      rejects. *)

  val probe : t -> Probe.sink
  (** The observation points; inert until callbacks are installed (see
      {!Probe}). *)

  val arena : t -> A.value Arena.t
  (** The shadow arena, for lib/replay's value digests. *)

  val temp_value : t -> int64 -> A.value option
  (** The live scratch value behind an in-trace temp box, if any — so a
      mid-trace digest of a register holding a temp matches the same
      register holding the equivalent real box. [None] for anything
      that is not a live temp box. *)
end

val run_native :
  ?cost:Machine.Cost_model.t -> ?max_insns:int -> Machine.Program.t -> result
(** Run the binary with no FPVM attached (all exceptions masked): the
    baseline for validation and slowdown measurements. *)

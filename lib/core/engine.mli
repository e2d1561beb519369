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
      (** consume the FP special-value tier ([Analysis.Fpa]): fuse JIT
          steps at proven-subnormal-free sites without the runtime raw
          input scan (packed steps become fusable there too), and keep
          proven sites inside superblocks on clean inputs instead of
          side-exiting. Facts are proofs, so outputs are bit-identical
          with this on or off (the [--no-fpa] escape hatch). *)
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
    [max_trace_len] above it, is truncated before lowering. *)

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
  (** A compiled binding plan for one site (a "superop"): everything
      the per-visit bind/dispatch machinery would recompute, resolved
      once at compile time. [dispatch] is the residual op_map charge
      per emulated op — [cost.emu_dispatch] on the interpretive paths,
      [0] on a plan-table hit. *)
  type plan = { p_exec : dispatch:int -> Machine.State.t -> unit }

  (** One compiled superblock step's outcome: continue, side-exit to
      the interpretive trace loop (guard failure), or stop the window
      (the program halted). *)
  type step_res = S_ok | S_exit | S_stop

  (** A compiled superblock: the recorded window's steps closed over
      the engine and the arithmetic port, plus the entry-taint
      predicate consulted before another block links into this one. *)
  type jit_block = {
    jb_sb : Fpvm_ir.Superblock.t;
    jb_steps : (Machine.State.t -> step_res) array;
    jb_link_check : Machine.State.t -> bool;
  }

  (** The engine instance. Concrete so lib/replay can serialize and
      restore every component; treat as read-only elsewhere. *)
  type t = {
    config : config;
    stats : Stats.t;
    arena : A.value Arena.t;
    cache : Decoder.cache;
    plans : plan Plan.table;
        (** site -> compiled binding plan, keyed by the instruction
            value compiled from; stale after trap-and-patch rewrites
            (the engine invalidates), reseeded across checkpoint
            restore ({!seed_plan}) *)
    probe : Probe.sink;
        (** record/replay observation points; inert until callbacks are
            installed (see {!Probe}) *)
    mutable since_gc : int;
    mutable gc_count : int;
    mutable patch_sites : int;
    mutable trace_hints : int array;
        (** per-index distance to the next trace terminator, precomputed
            by the static pipeline ([Analysis.Traceability.run_lengths])
            over the patched program; consulted by the trace loop in
            place of the dynamic classifier *)
    mutable elide : bool array;
        (** per-index no-escape facts ({!Analysis.Escape}): a scalar
            binary64 result at this site may live in the trace scratch
            buffer instead of the arena *)
    mutable scratch : A.value option array;
        (** the per-trace shadow-temp buffer; slot [k] backs the temp
            box [Plan.box_temp k]; emptied at every trace exit *)
    mutable scratch_n : int;
    mutable in_trace : bool;
    mutable spill_addr : int array;
    mutable spill_slot : int array;
    mutable spill_n : int;
        (** spill records, oldest first: the byte address and scratch
            slot of every in-trace binary64 store that spilled a live
            temp pattern to memory; swept newest first at trace exit. A
            record whose slot was re-boxed reads slot [-1]. *)
    jit : Jit.t;
        (** hot-trace accounting: per-head delivery counters and the
            recorded paths blocks were compiled from (the
            checkpointable view of the block table) *)
    jit_blocks : jit_block Plan.table;
        (** head index -> compiled superblock, keyed by the head's raw
            instruction object; invalidated when trap-and-patch
            rewrites any touched site, reseeded across restore
            ({!set_jit_state}) *)
    mutable jit_rec : (int * bool) list option;
        (** Some steps (reversed) while the current interpretive window
            is being recorded for compilation *)
    mutable fpa_sub_free : bool array;
        (** per-index FP-tier proofs ([Analysis.Fpa]): no raw input
            lane at this site can hold a subnormal, so the JIT's fused
            path skips the runtime subnormal scan; [[||]] when
            [use_fpa] is off *)
    mutable fpa_born_free : bool array;
        (** per-index proof that no NaN/Inf can be born at this site *)
    mutable artifacts : (Artifact.t * string) option;
        (** the shared compilation-artifact store and this session's key
            in it ({!Artifact.session_key}); [None] runs the engine
            storeless (bit- and cycle-identical — the store only moves
            the jit compile charge between accounting buckets) *)
  }

  val create : config -> t

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

  val refresh_trace_hints : session -> unit
  (** Recompute the trace-extension hints and no-escape facts from the
      session's (possibly patched) instruction array. Checkpoint restore
      installs [Patched] wrappers directly into the program; lib/replay
      calls this after overwriting a prepared session's state. *)

  val seed_plan : session -> int -> unit
  (** Silently recompile the binding plan for one site (no cycle
      charges, no counter movement): checkpoint restore reseeds the
      plan table from the recorded key set so a resumed run replays the
      original's plan hit/miss — and hence cycle — stream exactly.
      No-op on out-of-range or non-FP sites. *)

  val plan_sites : session -> int list
  (** Sites currently holding a compiled plan, ascending — the
      checkpointable view of the plan table (plans themselves are
      closures; restore recompiles via {!seed_plan}). *)

  val jit_counters : session -> (int * int) list
  (** Per-head delivery counters, ascending by head — checkpointable
      JIT hotness state. *)

  val jit_paths : session -> (int * (int * bool) array) list
  (** Recorded (index, absorbed) windows per compiled head, ascending —
      the checkpointable view of the superblock table. *)

  val set_jit_state :
    session ->
    counters:(int * int) list ->
    paths:(int * (int * bool) array) list ->
    unit
  (** Restore the JIT's architectural state and silently rebuild the
      compiled-block table from the paths (no cycle charges, no counter
      movement), so a resumed run replays the original's jit
      hit/link/exit — and hence cycle — stream exactly. Call after the
      plan table has been reseeded: block compilation pre-resolves each
      fast-emulate step's binding plan. *)

  val resume : session -> result
  (** Execute until halt, run the final full GC pass, and fold the
      kernel's delivery accounting into the stats. Call at most once
      per session. *)

  val run :
    ?config:config -> ?artifacts:Artifact.t -> Machine.Program.t -> result
  (** [resume (prepare ~config prog)]. The input program is copied;
      analysis patches and trap-and-patch rewrites never mutate the
      caller's binary. *)

  val unbox : t -> int64 -> A.value
  (** The engine's NaN-box dereference (dangling boxes decay to a quiet
      NaN), exposed for lib/replay's architectural-state digests.
      Resolves in-trace shadow temps through the scratch buffer. *)

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

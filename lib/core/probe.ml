(* Probe: the engine's observation points.

   Three independent channels share one sink record:

   - [on_event] / [on_quiesce] — the record/replay channel (lib/replay).
     One event per architectural occurrence: a delivered FP trap, an
     in-trace fault absorbed without delivery, a correctness trap, a GC
     pass, an interposed external call. [on_quiesce] fires at the end
     of each trap handler, the only points where the machine is between
     instructions with no handler frame on the (conceptual) stack: a
     checkpoint taken there can be restored and resumed without
     replaying any in-flight delivery.

   - [on_tel] — the structural telemetry channel (lib/telemetry):
     deliveries, trace windows, plan cache traffic, per-emulation cycle
     deltas, GC passes, correctness traps, demotions, checkpoints. Each
     event carries the exact modeled-cycle charges attributed to it, so
     a per-site profile reconciles against Stats.total_fpvm_cycles with
     GC as the only untracked (run-global) bucket.

   - [on_num] — the numerical telemetry channel (lib/telemetry's
     numprof): per-op operand/result images in binary64 (the arith
     port's [demote] view) plus demotion-boundary sinks, for NaN/Inf
     flow tracking and shadow-value divergence checking.

   With no sink installed the cost of any channel is one option match
   per would-be event — event payloads are constructed inside the
   [Some] branch only, so uninstrumented runs allocate nothing and run
   the seed engine exactly. Keeping replay's [on_event] separate from
   [on_tel]/[on_num] keeps recorded logs config-invariant: installing
   telemetry never changes what the recorder sees, and both can be
   installed at once. *)

type event =
  | Fp_trap of { index : int; events : Ieee754.Flags.t }
      (* a fault delivered through the kernel (one per sigfpe) *)
  | Absorbed of { index : int; events : Ieee754.Flags.t }
      (* an in-trace fault emulated in place, no delivery *)
  | Correctness of { index : int }
  | Gc of { full : bool; freed : int; words : int }
  | Ext_call of { fn : Machine.Isa.ext_fn; handled : bool }

(* Structural telemetry. Cycle fields are the exact modeled charges the
   engine applied for that occurrence (timestamps come from
   State.cycles at emission, never wall clock). *)
type tel =
  | T_trap of { index : int; events : Ieee754.Flags.t; delivery : int }
      (* delivery = the deployment's hw+kernel+user round-trip charge *)
  | T_absorbed of { index : int; events : Ieee754.Flags.t }
  | T_trace_enter of { index : int }
  | T_trace_exit of {
      index : int; (* the trace head (delivering site) *)
      insns : int; (* instructions resident, incl. the delivered one *)
      step_cycles : int; (* per-insn residency charges, whole window *)
      exit_cycles : int; (* the context-restore charge at exit *)
    }
  | T_plan_hit of { index : int }
  | T_plan_miss of { index : int }
  | T_plan_invalidate of { index : int }
  | T_emulate of {
      index : int;
      cycles : int; (* decode + bind + plan + emulate charges, this visit *)
      elided : int; (* temps parked in scratch instead of the arena *)
    }
  | T_patch_check of { index : int; cycles : int }
  | T_jit_compile of { index : int; steps : int; cycles : int }
      (* a hot trace headed at [index] was compiled into a block of
         [steps] instructions; [cycles] is the one-time compile charge *)
  | T_jit_exec of { index : int; steps : int; cycles : int }
      (* one execution of the superblock headed at [index]: [steps]
         instructions ran compiled; [cycles] is the entry-or-link charge
         plus the per-step charges of this execution (the emulation work
         inside the block is reported separately through T_emulate, as
         on the interpretive path) *)
  | T_jit_invalidate of { index : int }
      (* the superblock headed at [index] was dropped (site rewritten
         by trap-and-patch, or a mid-trace shape guard found it stale) *)
  | T_gc of { full : bool; freed : int; words : int; cycles : int }
  | T_correctness of { index : int; delivery : int; handler : int }
  | T_demote of { index : int; count : int }
  | T_checkpoint of { seq : int; bytes : int }

(* Where a shadow value met a demotion/observation boundary. *)
type sink_kind =
  | S_compare (* comparison consumed the value (branches depend on it) *)
  | S_print (* printf hijack *)
  | S_serialize (* binary serialization boundary *)
  | S_demote (* correctness-trap demotion, f2i, f64->f32 narrowing *)

(* Numerical telemetry: every field is a binary64 bit pattern. [a]/[b]/
   [r] are the arith port's demoted images of the operand and result
   values ([b] is the src operand; unary ops carry it in [b] with [a]
   duplicated); [*_bits] are the raw machine words (box patterns or raw
   floats) for shadow-table keying. *)
type num =
  | N_op of {
      index : int;
      op : Machine.Isa.fp_op;
      a_bits : int64;
      b_bits : int64;
      r_bits : int64;
      a : int64;
      b : int64;
      r : int64;
    }
  | N_ext of {
      index : int;
      fn : Machine.Isa.ext_fn;
      unary : bool; (* one argument: [a] and [b] are both it *)
      a_bits : int64;
      b_bits : int64;
      r_bits : int64;
      a : int64;
      b : int64;
      r : int64;
    }
  | N_sink of { index : int; kind : sink_kind; bits : int64; f64 : int64 }
  | N_rebox of { index : int; old_bits : int64; new_bits : int64 }
      (* a value's box pattern changed without an arithmetic op:
         in-trace scratch temp promoted to a durable arena box at
         materialization. Shadow tables keyed by box bits must move
         the entry from [old_bits] to [new_bits]. *)

type sink = {
  mutable on_event : (Machine.State.t -> event -> unit) option;
  mutable on_quiesce : (Machine.State.t -> unit) option;
  mutable on_tel : (Machine.State.t -> tel -> unit) option;
  mutable on_num : (Machine.State.t -> num -> unit) option;
}

let sink () =
  { on_event = None; on_quiesce = None; on_tel = None; on_num = None }

let emit sink st ev =
  match sink.on_event with None -> () | Some f -> f st ev

let quiesce sink st =
  match sink.on_quiesce with None -> () | Some f -> f st

(* Chain a callback after whatever is already installed on a channel.
   The channels are deliberately single-slot records (the uninstalled
   fast path is one option match), but independent observers now share
   them — the fleet scheduler yields on [on_quiesce] while the recorder
   checkpoints there — so installers must compose rather than overwrite.
   Existing callbacks run first: an earlier observer never sees state
   a later-installed one (e.g. a scheduler that switches guests) has
   moved past. [chain both slot f] appends [f] to [slot], where
   [both g f] is the callback that runs [g], then [f]. *)
let chain both slot f =
  match slot with None -> Some f | Some g -> Some (both g f)

let both g f st x =
  g st x;
  f st x

let add_event sink f = sink.on_event <- chain both sink.on_event f
let add_quiesce sink f = sink.on_quiesce <- chain (fun g f st -> g st; f st) sink.on_quiesce f
let add_tel sink f = sink.on_tel <- chain both sink.on_tel f
let add_num sink f = sink.on_num <- chain both sink.on_num f

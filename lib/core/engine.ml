(* The FPVM engine (paper section 4): trap-and-emulate core with the two
   alternative execution strategies (trap-and-patch, static binary
   transformation) layered on the same decode/bind/emulate machinery.

   Functorized over the alternative arithmetic system. *)

module Isa = Machine.Isa
module State = Machine.State
module Cpu = Machine.Cpu
module Program = Machine.Program
module CM = Machine.Cost_model
module Mx = Ieee754.Mxcsr
module F = Ieee754.Flags

type approach = Trap_and_emulate | Trap_and_patch | Static_transform

type config = {
  approach : approach;
  deployment : Trapkern.deployment;
  use_fpa : bool;
      (* consume the FP special-value tier (Analysis.Fpa): fuse scalar
         JIT steps at proven-subnormal-free sites without the runtime
         raw input scan, keep proven sites inside superblocks on clean
         inputs instead of side-exiting. Facts are proofs, so outputs
         are bit-identical with this on or off (the --no-fpa escape
         hatch). *)
  oracle : bool;
      (* soundness oracle: observe every dispatched instruction and
         count unpatched integer loads that read a live NaN-boxed word.
         Any hit is a static-analysis soundness violation. Observation
         only — never perturbs execution or the deterministic stats. *)
  gc_interval : int; (* emulated instructions between GC passes *)
  incremental_gc : bool;
      (* write-barrier dirty-card GC: mark from registers plus only the
         64-byte cards dirtied since the last pass, sweeping only cells
         allocated since then — O(recent stores) instead of O(writable
         memory) *)
  full_scan_every : int;
      (* every Nth GC pass is a full conservative scan (the incremental
         scheme's safety net; also reclaims old garbage); <= 0 never *)
  always_emulate : bool;
      (* the paper's footnote-2 variant: never run FP on the hardware,
         emulate every FP instruction with the alternative system (only
         meaningful under Static_transform, where every FP instruction
         carries a check stub) *)
  max_trace_len : int;
      (* sequence (trace) emulation: after servicing a trap, stay
         resident and execute up to this many instructions before
         returning to native execution; 1 = emulate only the faulting
         instruction (the classic single-step engine) *)
  use_plans : bool;
      (* site specialization: compile each emulated site's decoded form
         into a cached binding plan ("superop") with operand accessors
         and the arithmetic entry point pre-resolved, so revisits skip
         bind + op_map dispatch; also enables in-trace shadow-temp
         elision. Off = the PR 3 engine exactly (the --no-plans
         escape hatch). *)
  use_jit : bool;
      (* trace JIT: promote hot traces (heads delivered at least
         [jit_threshold] times) into compiled superblocks — guarded
         closures that fuse the per-step classify/dispatch of the whole
         window and link trace-to-trace on loop back-edges. Any guard
         failure side-exits to the interpretive trace loop, which is
         bit-identical by construction. Requires plans for the fused
         emulation fast path and max_trace_len > 1 for windows to
         exist; off = the PR 5 engine exactly (--no-jit). *)
  jit_threshold : int;
      (* deliveries at one head before its next window is recorded and
         compiled *)
  cost : CM.t;
  max_insns : int;
}

let default_config =
  { approach = Trap_and_emulate;
    deployment = Trapkern.User_signal;
    use_fpa = true;
    oracle = false;
    gc_interval = 20_000;
    incremental_gc = true;
    full_scan_every = 8;
    always_emulate = false;
    max_trace_len = 64;
    use_plans = true;
    use_jit = true;
    jit_threshold = 8;
    cost = CM.r815;
    max_insns = 400_000_000 }

(* Cap on a recorded superblock path: a longer recording is truncated
   before compiling. Every cap below 64 regresses the linking workloads
   and every cap above behaves like 64 (EXPERIMENTS, the cap sweep). *)
let jit_max_trace_len = 64

(* ---- the config table ---------------------------------------------- *)

(* One row per segment of the config line, in line order; every place
   that spells a field derives from the rows (engine.mli). *)

type accepts = Ints of int * int | Names of string list

type front = {
  key : string;
  switch : (string * string) option;
  accepts : accepts;
  spell : config -> string;
  parse : config -> string -> (config, string) result;
  doc : string;
}

type row = {
  line : string;
  show : config -> string;
  session : bool;
  front : front option;
}

let describe = function
  | Ints (lo, hi) when hi = max_int -> Printf.sprintf ">= %d" lo
  | Ints (lo, hi) -> Printf.sprintf "between %d and %d" lo hi
  | Names l -> String.concat " or " l

(* A row; [of_string] reads a lowercased front-end spelling, [to_string]
   spells a value back, and the line prints [print] of it. *)
let field line ?(session = false) ?key ?switch ~accepts ~of_string ~to_string
    ?(print = to_string) get set doc =
  let front key =
    { key; switch; accepts;
      spell = (fun c -> to_string (get c));
      parse =
        (fun c v ->
          match of_string (String.lowercase_ascii v) with
          | Some x -> Ok (set c x)
          | None ->
              Error
                (Printf.sprintf "%s must be %s (got %S)" key (describe accepts) v));
      doc =
        (if switch = None then Printf.sprintf "%s (%s)." doc (describe accepts)
         else doc) }
  in
  { line; session; show = (fun c -> print (get c));
    front = Option.map front key }

let named line ?session ?key ?switch ?print names =
  field line ?session ?key ?switch ?print
    ~accepts:(Names (List.map fst names))
    ~of_string:(fun v -> List.assoc_opt v names)
    ~to_string:(fun v -> fst (List.find (fun (_, x) -> x = v) names))

(* A two-valued field: the line prints %b, and fpvm_run's [switch]
   selects the spelling it names. *)
let flag line ?session ?(names = [ ("on", true); ("off", false) ]) ~key
    ~switch =
  named line ?session ~key ~switch ~print:string_of_bool names

(* An integer field in [1, hi]; the line prints %d. *)
let ints line ?session ~key ?(hi = max_int) =
  field line ?session ~key ~accepts:(Ints (1, hi)) ~to_string:string_of_int
    ~of_string:(fun v ->
      Option.bind (int_of_string_opt v) (fun n ->
          if n < 1 || n > hi then None else Some n))

(* A segment no front end sets. *)
let shown line ?(session = false) show = { line; session; show; front = None }

let config_table =
  [ named "approach" ~session:true ~key:"approach"
      [ ("emulate", Trap_and_emulate); ("patch", Trap_and_patch);
        ("static", Static_transform) ]
      (fun c -> c.approach) (fun c approach -> { c with approach })
      "FPVM approach";
    named "deploy" ~key:"deployment"
      ~print:(fun d -> string_of_int (Trapkern.deployment_id d))
      [ ("user", Trapkern.User_signal); ("kernel", Trapkern.Kernel_module);
        ("uu", Trapkern.User_to_user) ]
      (fun c -> c.deployment) (fun c deployment -> { c with deployment })
      "Trap delivery";
    (* the analysis and the decode cache can no longer be turned off *)
    shown "vsa" (fun _ -> "true");
    flag "fpa" ~session:true ~key:"fpa" ~switch:("no-fpa", "off")
      (fun c -> c.use_fpa) (fun c use_fpa -> { c with use_fpa })
      "Disable the FP special-value analysis tier (escape hatch): the JIT \
       falls back to runtime subnormal guards and no shadow checks are \
       elided. Outputs are bit-identical with the tier on or off.";
    flag "orc" ~key:"oracle" ~switch:("oracle", "on")
      (fun c -> c.oracle) (fun c oracle -> { c with oracle })
      "Soundness oracle: watch every dispatched instruction for an \
       unpatched integer load observing a live NaN-boxed value, and every \
       statically-proven-clean site for a dynamic NaN/Inf birth or \
       subnormal raw input; exit 5 if any is seen (a static-analysis false \
       negative).";
    ints "gc" ~key:"gc-interval"
      (fun c -> c.gc_interval) (fun c gc_interval -> { c with gc_interval })
      "Emulated instructions between GC passes";
    flag "inc" ~key:"gc" ~switch:("full-gc", "full")
      ~names:[ ("inc", true); ("incremental", true); ("full", false) ]
      (fun c -> c.incremental_gc)
      (fun c incremental_gc -> { c with incremental_gc })
      "Disable the incremental (dirty-card) GC; full scan every pass.";
    shown "full" (fun c -> string_of_int c.full_scan_every);
    shown "cache" (fun _ -> "true");
    shown "alw" ~session:true (fun c -> string_of_bool c.always_emulate);
    (* [prepare] allocates a scratch slot per traced instruction, and a
       slot's box must stay below [Plan.temp_base] *)
    ints "trace" ~session:true ~key:"trace-len" ~hi:4096
      (fun c -> c.max_trace_len)
      (fun c max_trace_len -> { c with max_trace_len })
      "Max instructions emulated per trap delivery; 1 is the classic \
       single-step engine";
    flag "plans" ~session:true ~key:"plans" ~switch:("no-plans", "off")
      (fun c -> c.use_plans) (fun c use_plans -> { c with use_plans })
      "Disable site-specialized emulation (the binding-plan cache and \
       in-trace shadow-temp elision); reproduces the unspecialized engine \
       bit- and cycle-exactly.";
    flag "jit" ~session:true ~key:"jit" ~switch:("no-jit", "off")
      (fun c -> c.use_jit) (fun c use_jit -> { c with use_jit })
      "Disable the trace JIT (compiled guarded superblocks with \
       trace-to-trace linking); reproduces the plans-only engine \
       bit-exactly.";
    ints "jthr" ~session:true ~key:"jit-threshold"
      (fun c -> c.jit_threshold)
      (fun c jit_threshold -> { c with jit_threshold })
      "Trap deliveries at one trace head before its next window is \
       recorded and compiled into a superblock";
    shown "jmtl" ~session:true (fun _ -> string_of_int jit_max_trace_len);
    named "mach" ~session:true ~key:"machine"
      ~print:(fun m -> String.lowercase_ascii m.CM.name)
      (List.map (fun m -> (String.lowercase_ascii m.CM.name, m)) CM.profiles)
      (fun c -> c.cost) (fun c cost -> { c with cost })
      "Cost model" ]

let config_fronts = List.filter_map (fun r -> r.front) config_table

let front key = List.find (fun f -> f.key = key) config_fronts

let segments rows c =
  String.concat ";" (List.map (fun r -> r.line ^ "=" ^ r.show c) rows)

let config_line = segments config_table
let config_flags = segments (List.filter (fun r -> r.session) config_table)

let set c key v =
  match front key with
  | f -> f.parse c v
  | exception Not_found -> Error (Printf.sprintf "unknown key %S" key)

(* The whole-record check [prepare] runs: each integer field within its
   front ends' bounds, through the same validator. *)
let check c =
  List.iter
    (function
      | { accepts = Ints _; parse; spell; _ } ->
          Result.iter_error
            (fun m -> invalid_arg ("Engine.prepare: " ^ m))
            (parse c (spell c))
      | _ -> ())
    config_fronts

type result = {
  output : string;
  serialized : string;
  stats : Stats.t;
  cycles : int; (* total machine cycles including FPVM *)
  insns : int;
  fp_insns : int;
  st : State.t;
}

module Make (A : Arith.S) = struct
  (* A compiled binding plan ("superop") for one site: operand
     accessors, lane count, box/elide strategy and the arithmetic entry
     point all resolved at compile time. [dispatch] is the residual
     op_map-dispatch charge per emulated op: [cost.emu_dispatch] on the
     interpretive paths (plan miss / plans disabled, reproducing the
     unspecialized engine's accounting exactly), 0 on a plan hit. *)
  type plan = { p_exec : dispatch:int -> State.t -> unit }

  (* One compiled step's outcome: continue the block, side-exit to the
     interpretive trace loop (guard failure), or stop the window
     entirely (the program halted). *)
  type step_res = S_ok | S_exit | S_stop

  (* A compiled block: the recorded window's steps closed over the
     engine and the arithmetic port, plus the entry-taint predicate
     other blocks consult before linking into this one. Stored in a
     [Plan.table] keyed by the head's instruction object, so a
     trap-and-patch rewrite of the head makes the block unfindable
     exactly like a plan drop. *)
  type jit_block = {
    jb_path : (int * bool) array;
        (* the recorded (index, absorbed) window the steps were compiled
           from, kept for checkpoints: closures cannot be serialized,
           and the path plus the restored program recompile the block
           exactly *)
    jb_touches : int array;
        (* the distinct indices the block executes, head included,
           ascending: a trap-and-patch rewrite of any of them stales
           the block *)
    jb_steps : (State.t -> step_res) array;
    jb_link_check : State.t -> bool;
        (* would this block's head instruction fault natively right now
           (a boxed/foreign-sNaN input)? Only then may a completed
           predecessor absorb the head and transfer compiled-to-compiled
           instead of returning to native execution. *)
  }

  type t = {
    config : config;
    stats : Stats.t;
    arena : A.value Arena.t;
    cache : Decoder.cache;
    plans : plan Plan.table;
        (* site -> compiled plan, keyed by the instruction value it was
           compiled from; invalidated when trap-and-patch rewrites a
           site, reseeded by checkpoint restore *)
    probe : Probe.sink;
        (* observation points; no-ops until a recorder or a collector
           installs callbacks *)
    mutable since_gc : int;
    mutable gc_count : int;
    mutable patch_sites : int;
    mutable elide : bool array;
        (* per-index no-escape facts (Analysis.Escape): a scalar f64
           result at this site may live in the trace scratch buffer
           instead of the arena; all-false when plans are disabled *)
    mutable scratch : A.value option array;
        (* per-trace shadow-temp buffer; slot k backs the temp box
           [Plan.box_temp k]. Emptied at every trace exit. *)
    mutable scratch_n : int;
    mutable in_trace : bool;
        (* inside a trap delivery's emulate+trace window: the only time
           temp elision may fire (trace exit materializes leftovers) *)
    mutable spill_addr : int array;
    mutable spill_slot : int array;
    mutable spill_next : int array;
    mutable spill_n : int;
        (* spill records, oldest first: the byte address and scratch
           slot of every in-trace binary64 store that spilled a live
           temp pattern to memory; swept (re-boxed where the pattern
           survives) at trace exit. [spill_next] chains each slot's
           records newest first, from [spill_head]. *)
    mutable spill_head : int array;
        (* per scratch slot: its newest spill record, or -1 *)
    mutable reboxed : int64 array;
        (* per scratch slot: the box the exit sweep gave it, 0L before
           the sweep reaches it; cleared at every trace exit *)
    jit : Jit.t;
        (* hot-trace accounting: per-head delivery counters *)
    jit_blocks : jit_block Plan.table;
        (* head index -> compiled block, keyed by the head's raw
           instruction object; invalidated when trap-and-patch rewrites
           any site a block touches, rebuilt from the blocks' recorded
           paths by checkpoint restore *)
    mutable jit_rec : (int * bool) list option;
        (* Some steps (reversed) while the current interpretive window
           is being recorded for compilation *)
    mutable fpa_sub_free : bool array;
        (* per-index FP-tier proofs (Analysis.Fpa): no raw input lane at
           this site can hold a subnormal — the JIT may fuse without the
           runtime subnormal scan; [||] when use_fpa is off *)
    mutable artifacts : (Artifact.t * string) option;
        (* shared compilation-artifact store and this session's key in
           it; None runs storeless (bit- and cycle-identical — the
           store only moves the jit compile charge between buckets) *)
  }

  let create config =
    { config;
      stats = Stats.create ();
      arena = Arena.create (A.promote Ieee754.Soft64.default_qnan);
      cache = Decoder.create_cache ();
      plans = Plan.create ();
      probe = Probe.sink ();
      since_gc = 0;
      gc_count = 0;
      patch_sites = 0;
      elide = [||];
      scratch = [||];
      scratch_n = 0;
      in_trace = false;
      spill_addr = [||];
      spill_slot = [||];
      spill_next = [||];
      spill_n = 0;
      spill_head = [||];
      reboxed = [||];
      jit = Jit.create ();
      jit_blocks = Plan.create ();
      jit_rec = None;
      fpa_sub_free = [||];
      artifacts = None }

  (* ---- boxing ----------------------------------------------------- *)

  let unbox t bits : A.value =
    if Nanbox.is_boxed bits then begin
      let idx = Nanbox.unbox bits in
      if idx >= Plan.temp_base then begin
        (* In-trace scratch temp (see Plan): still a signaling-NaN box
           to any native consumer, but backed by the per-trace scratch
           buffer rather than an arena cell. A stale temp pattern (slot
           recycled since) decays like a dangling box. *)
        let k = idx - Plan.temp_base in
        if k < t.scratch_n then
          match t.scratch.(k) with
          | Some v -> v
          | None -> A.promote Ieee754.Soft64.default_qnan
        else A.promote Ieee754.Soft64.default_qnan
      end
      else
        (* A dangling box (freed by GC while still reachable would be a
           bug; a stale pattern read from never-initialized memory is
           not) reads as the arena's dummy: a universal NaN. *)
        Arena.value t.arena idx
    end
    else A.promote bits

  (* The scratch value behind a temp box, if live — lib/replay's
     architectural digests unbox through this so a mid-trace digest of
     a register holding a temp matches the same register holding the
     equivalent real box. *)
  let temp_value t bits : A.value option =
    if Plan.is_temp_box bits then begin
      let k = Plan.temp_slot bits in
      if k < t.scratch_n then t.scratch.(k) else None
    end
    else None

  let box t (v : A.value) : int64 =
    let idx = Arena.alloc t.arena v in
    t.stats.Stats.boxes_allocated <- t.stats.Stats.boxes_allocated + 1;
    Nanbox.box idx

  (* ---- garbage collection (paper 4.1) --------------------------------- *)

  (* Full pass: conservative scan of every writable word (the seed
     behavior). Incremental pass: mark from registers plus only the
     64-byte cards dirtied since the last pass, and sweep only cells
     allocated since then. Sound because a young cell reachable from
     memory was necessarily stored since the last pass (its card is
     dirty); old garbage waits for the periodic full scan. *)
  let gc ?(full = true) t (st : State.t) =
    let t0 = Unix.gettimeofday () in
    Arena.clear_marks t.arena;
    let words = ref 0 in
    let scan_word a =
      incr words;
      let v = State.load64 st a in
      if Nanbox.is_boxed v then Arena.mark t.arena (Nanbox.unbox v)
    in
    (* Roots: xmm registers and gprs, always. *)
    for i = 0 to 31 do
      let v = st.State.xmm.(i) in
      if Nanbox.is_boxed v then Arena.mark t.arena (Nanbox.unbox v)
    done;
    for i = 0 to 15 do
      let v = st.State.gpr.(i) in
      if Nanbox.is_boxed v then Arena.mark t.arena (Nanbox.unbox v)
    done;
    let ranges = State.scannable_ranges st in
    let young = Arena.young_count t.arena in
    let freed =
      if full then begin
        List.iter
          (fun (lo, hi) ->
            let a = ref (lo land lnot 7) in
            while !a + 8 <= hi do
              scan_word !a;
              a := !a + 8
            done)
          ranges;
        (* A full scan supersedes the dirty set. *)
        State.clear_dirty st;
        Arena.sweep t.arena
      end
      else begin
        let in_range a =
          List.exists (fun (lo, hi) -> a >= lo && a + 8 <= hi) ranges
        in
        List.iter
          (fun card ->
            let base = card * State.card_size in
            let a = ref base in
            while !a < base + State.card_size do
              if in_range !a then scan_word !a;
              a := !a + 8
            done)
          (State.dirty_cards st);
        State.clear_dirty st;
        Arena.sweep_young t.arena
      end
    in
    let dt = Unix.gettimeofday () -. t0 in
    let cost = t.config.cost in
    let cells = if full then Arena.next_fresh t.arena else young in
    let cyc =
      (!words * cost.CM.gc_per_word) + (cells * cost.CM.gc_per_cell)
    in
    State.add_cycles st cyc;
    let s = t.stats in
    s.Stats.gc_passes <- s.Stats.gc_passes + 1;
    if full then s.Stats.gc_full_passes <- s.Stats.gc_full_passes + 1;
    s.Stats.gc_freed <- s.Stats.gc_freed + freed;
    s.Stats.gc_alive_last <- Arena.live_count t.arena;
    s.Stats.gc_words_scanned <- s.Stats.gc_words_scanned + !words;
    s.Stats.gc_latency_s <- s.Stats.gc_latency_s +. dt;
    s.Stats.cyc_gc <- s.Stats.cyc_gc + cyc;
    Probe.emit t.probe st (Probe.Gc { full; freed; words = !words });
    match t.probe.Probe.on_tel with
    | None -> ()
    | Some f -> f st (Probe.T_gc { full; freed; words = !words; cycles = cyc })

  let maybe_gc t st =
    if t.since_gc >= t.config.gc_interval then begin
      t.since_gc <- 0;
      t.gc_count <- t.gc_count + 1;
      let full =
        (not t.config.incremental_gc)
        || (t.config.full_scan_every > 0
           && t.gc_count mod t.config.full_scan_every = 0)
      in
      gc ~full t st
    end

  (* ---- emulation ------------------------------------------------------- *)

  (* Per-op charge with an explicit dispatch component: the alternative
     system's op cost always applies; [dispatch] is the op_map lookup +
     box/unbox bookkeeping that site specialization eliminates (tracked
     separately in [cyc_emu_dispatch], a subset of [cyc_emulate]). *)
  let charge_op t st ~dispatch cls =
    let c = dispatch + A.op_cycles cls in
    State.add_cycles st c;
    t.stats.Stats.cyc_emulate <- t.stats.Stats.cyc_emulate + c;
    if dispatch > 0 then
      t.stats.Stats.cyc_emu_dispatch <-
        t.stats.Stats.cyc_emu_dispatch + dispatch;
    t.stats.Stats.emulated_ops <- t.stats.Stats.emulated_ops + 1

  (* Math-wrapper calls and other non-site work always pay full
     dispatch (there is no site to specialize). *)
  let charge_emu t st cls =
    charge_op t st ~dispatch:t.config.cost.CM.emu_dispatch cls

  (* ---- shadow-temp elision -------------------------------------------- *)

  (* Box a result, or — when the site's no-escape fact holds and we are
     inside a trace with scratch room — park it in the next scratch
     slot and hand back a temp box instead of paying Arena.alloc. *)
  let box_or_temp t (v : A.value) : int64 =
    if t.scratch_n < Array.length t.scratch then begin
      let k = t.scratch_n in
      t.scratch.(k) <- Some v;
      t.spill_head.(k) <- -1;
      t.scratch_n <- k + 1;
      t.stats.Stats.temps_elided <- t.stats.Stats.temps_elided + 1;
      Plan.box_temp k
    end
    else box t v

  (* [temp_pat k] is [Plan.box_temp k], computed in place: no call and
     no boxed result *)
  let temp_tag = Plan.box_temp 0
  let[@inline] temp_pat k = Int64.logor temp_tag (Int64.of_int k)

  (* Promote slot [k], holding [v], to a real arena box, and store it
     over each spill word recorded for [k] that still holds the
     pattern; the caller rewrites the registers. Copies of a temp
     pattern exist only in those places (guard_native below intercepts
     every other flow), so the machine state is then what the
     unspecialized engine would hold — one box, shared by all its
     aliases — and the slot is dead. The chain gives [k]'s records
     newest first, the order a scan of all records visits them in:
     [State.store64] lists a card as dirty at its first write, and a
     checkpoint keeps that order, so it is part of the bytes. *)
  let rebox_slot t (st : State.t) k v =
    let pat = temp_pat k in
    let bits = box t v in
    (match t.probe.Probe.on_num with
    | None -> ()
    | Some f ->
        f st
          (Probe.N_rebox
             { index = st.State.rip; old_bits = pat; new_bits = bits }));
    let j = ref t.spill_head.(k) in
    while !j >= 0 do
      let a = t.spill_addr.(!j) in
      if State.equal64 st a pat then State.store64 st a bits;
      j := t.spill_next.(!j)
    done;
    t.scratch.(k) <- None;
    t.stats.Stats.temps_materialized <- t.stats.Stats.temps_materialized + 1;
    bits

  (* [Plan.temp_mask] and [temp_tag] as ints: neither has the sign bit,
     so on a word's low 63 bits ([Int64.to_int] of a register lane,
     [State.load63] of a memory word) they answer as on all 64. *)
  let temp_mask_w = Int64.to_int Plan.temp_mask
  let temp_tag_w = Int64.to_int temp_tag

  (* The scratch slot below [scratch_n] that the temp pattern in the
     word [w] (its low 63 bits) names, live or re-boxed, or -1. A slot
     is below [max_trace_len], so one masked compare tests the box bits
     and the index's top bits at once. *)
  let temp_slot t w =
    if w land temp_mask_w = temp_tag_w then begin
      let k = w land (Plan.temp_base - 1) in
      if k < t.scratch_n then k else -1
    end
    else -1

  (* The scratch slot of the live temp the word [w] boxes, or -1. *)
  let live_slot t w =
    let k = temp_slot t w in
    if k >= 0 && Option.is_some t.scratch.(k) then k else -1

  (* Mid-trace: re-box the live temp the word [w] boxes, if any, and
     rewrite every register that holds its pattern. *)
  let mat_bits t (st : State.t) w =
    let k = temp_slot t w in
    if k >= 0 then
      match t.scratch.(k) with
      | None -> ()
      | Some v ->
          let pat = temp_pat k in
          let b = rebox_slot t st k v in
          for i = 0 to 31 do
            if Int64.equal st.State.xmm.(i) pat then st.State.xmm.(i) <- b
          done

  let add_spill t a k =
    let n = t.spill_n in
    if n = Array.length t.spill_addr then begin
      let grow b =
        let c = Array.make (max 16 (2 * n)) 0 in
        Array.blit b 0 c 0 n;
        c
      in
      t.spill_addr <- grow t.spill_addr;
      t.spill_slot <- grow t.spill_slot;
      t.spill_next <- grow t.spill_next
    end;
    t.spill_addr.(n) <- a;
    t.spill_slot.(n) <- k;
    t.spill_next.(n) <- t.spill_head.(k);
    t.spill_head.(k) <- n;
    t.spill_n <- n + 1

  let mat_reg t st x =
    mat_bits t st (Int64.to_int (State.get_xmm st x 0));
    mat_bits t st (Int64.to_int (State.get_xmm st x 1))

  let mat_word t st a = mat_bits t st (State.load63 st a)

  (* A raw [n]-byte access at [a] observes the containing word(s). *)
  let mat_bytes t st a n =
    let w0 = a land lnot 7 in
    mat_word t st w0;
    let w1 = (a + n - 1) land lnot 7 in
    if w1 <> w0 then mat_word t st w1

  let mat_op ?(n = 8) t st (o : Isa.operand) =
    match o with
    | Isa.Xmm x -> mat_reg t st x
    | Isa.Mem m -> mat_bytes t st (State.ea st m) n
    | Isa.Reg _ | Isa.Imm _ -> ()

  (* In-trace native dispatch guard. Binary64 moves are transparent to
     a temp: the bit pattern lands in a swept register, or — for a
     store — in a spill word we record and re-box at trace exit. Every
     other way an instruction could observe or clobber the raw pattern
     (integer loads/stores, movq/bit ops, any 32-bit-partial FP access,
     a shadow-death hint) first promotes the temp in place, so native
     execution sees exactly the box bits the unspecialized engine would
     have produced. Emulated binary64 FP reads need nothing: unbox is
     temp-aware. *)
  let guard_native t (st : State.t) (insn : Isa.insn) =
    if t.scratch_n > 0 then
      match insn with
      | Isa.Mov_f { w = Isa.F64; dst = Isa.Mem m; src = Isa.Xmm x } ->
          let k = live_slot t (Int64.to_int (State.get_xmm st x 0)) in
          if k >= 0 then add_spill t (State.ea st m) k
      | Isa.Mov_f { w = Isa.F64; _ } -> ()
      | Isa.Mov_f { w = Isa.F32; dst; src } ->
          mat_op ~n:4 t st dst;
          mat_op ~n:4 t st src
      | Isa.Mov_x { dst = Isa.Mem m; src = Isa.Xmm x } ->
          let a = State.ea st m in
          let k0 = live_slot t (Int64.to_int (State.get_xmm st x 0)) in
          if k0 >= 0 then add_spill t a k0;
          let k1 = live_slot t (Int64.to_int (State.get_xmm st x 1)) in
          if k1 >= 0 then add_spill t (a + 8) k1
      | Isa.Mov_x _ -> ()
      (* emulated binary64 FP: operands resolve through unbox *)
      | Isa.Fp_arith { w = Isa.F64; _ }
      | Isa.Fp_cmp { w = Isa.F64; _ }
      | Isa.Fp_cmppred { w = Isa.F64; _ }
      | Isa.Fp_round { w = Isa.F64; _ }
      | Isa.Cvt_f2i { w = Isa.F64; _ } ->
          ()
      | Isa.Cvt_f2f { from_w = Isa.F64; dst; _ } ->
          (* narrowing: 32-bit partial write into dst *)
          mat_op ~n:4 t st dst
      | Isa.Cvt_f2f { from_w = Isa.F32; dst; src } ->
          mat_op ~n:4 t st src;
          mat_op ~n:4 t st dst
      | Isa.Cvt_i2f { w = Isa.F64; size; src; _ } -> mat_op ~n:size t st src
      | Isa.Fp_arith { w = Isa.F32; dst; src; _ }
      | Isa.Fp_cmppred { w = Isa.F32; dst; src; _ }
      | Isa.Fp_round { w = Isa.F32; dst; src } ->
          mat_op ~n:4 t st dst;
          mat_op ~n:4 t st src
      | Isa.Fp_cmp { w = Isa.F32; a; b; _ } ->
          mat_op ~n:4 t st a;
          mat_op ~n:4 t st b
      | Isa.Cvt_f2i { w = Isa.F32; src; _ } -> mat_op ~n:4 t st src
      | Isa.Cvt_i2f { w = Isa.F32; size; dst; src } ->
          mat_op ~n:size t st src;
          mat_op ~n:4 t st dst
      | Isa.Fp_bit { dst; src; _ } ->
          mat_op ~n:16 t st dst;
          mat_op ~n:16 t st src
      | Isa.Movq_xr { src; _ } -> mat_reg t st src
      | Isa.Movq_rx _ -> ()
      | Isa.Mov { size; dst; src } ->
          mat_op ~n:size t st src;
          if size < 8 then mat_op ~n:size t st dst
          else (match dst with Isa.Xmm x -> mat_reg t st x | _ -> ())
      | Isa.Int_arith { dst; src; _ } ->
          mat_op t st dst;
          mat_op t st src
      | Isa.Cmp { a; b } | Isa.Test { a; b } ->
          mat_op t st a;
          mat_op t st b
      | Isa.Inc o | Isa.Dec o | Isa.Neg o | Isa.Push o ->
          mat_op t st o
      | Isa.Free_hint o ->
          (* plans-off eager-frees a real box here: give it one *)
          mat_op t st o
      | Isa.Pop _ ->
          (* an 8-byte integer load of [rsp] into a register the exit
             sweep never reaches *)
          mat_word t st (Int64.to_int (State.get_gpr st Isa.RSP))
      | Isa.Lea _ | Isa.Nop
      | Isa.Jmp _ | Isa.Jcc _ | Isa.Call _ | Isa.Ret | Isa.Call_ext _
      | Isa.Halt
      | Isa.Correctness_trap _ | Isa.Checked _ | Isa.Patched _ ->
          ()

  (* Is [insn] a shape on which [guard_native] does nothing in any
     state? A compiled step of such a shape skips the guard. Every
     constructor is classified, as in [ends_trace], so a new one must
     be too; an operand is inspected by the guard unless it is a GPR or
     an immediate. *)
  let guard_inert (insn : Isa.insn) =
    let plain (o : Isa.operand) =
      match o with
      | Isa.Reg _ | Isa.Imm _ -> true
      | Isa.Xmm _ | Isa.Mem _ -> false
    in
    match insn with
    | Isa.Mov_f { w = Isa.F64; dst = Isa.Mem _; src = Isa.Xmm _ }
    | Isa.Mov_x { dst = Isa.Mem _; src = Isa.Xmm _ } ->
        false
    | Isa.Mov_f { w = Isa.F64; _ } | Isa.Mov_x _ -> true
    | Isa.Fp_arith { w = Isa.F64; _ }
    | Isa.Fp_cmp { w = Isa.F64; _ }
    | Isa.Fp_cmppred { w = Isa.F64; _ }
    | Isa.Fp_round { w = Isa.F64; _ }
    | Isa.Cvt_f2i { w = Isa.F64; _ }
    | Isa.Movq_rx _ ->
        true
    | Isa.Cvt_i2f { w = Isa.F64; src; _ } -> plain src
    | Isa.Mov { size; dst; src } -> (
        (* an 8-byte store's memory destination is not inspected *)
        plain src
        &&
        match dst with
        | Isa.Xmm _ -> false
        | Isa.Mem _ -> size >= 8
        | Isa.Reg _ | Isa.Imm _ -> true)
    | Isa.Int_arith { dst = a; src = b; _ }
    | Isa.Cmp { a; b }
    | Isa.Test { a; b } ->
        plain a && plain b
    | Isa.Inc o | Isa.Dec o | Isa.Neg o | Isa.Push o | Isa.Free_hint o ->
        plain o
    | Isa.Lea _ | Isa.Nop
    | Isa.Jmp _ | Isa.Jcc _ | Isa.Call _ | Isa.Ret | Isa.Call_ext _
    | Isa.Halt
    | Isa.Correctness_trap _ | Isa.Checked _ | Isa.Patched _ ->
        true
    | Isa.Mov_f { w = Isa.F32; _ }
    | Isa.Fp_arith { w = Isa.F32; _ }
    | Isa.Fp_cmp { w = Isa.F32; _ }
    | Isa.Fp_cmppred { w = Isa.F32; _ }
    | Isa.Fp_round { w = Isa.F32; _ }
    | Isa.Cvt_f2i { w = Isa.F32; _ }
    | Isa.Cvt_i2f { w = Isa.F32; _ }
    | Isa.Cvt_f2f _ | Isa.Fp_bit _ | Isa.Movq_xr _ | Isa.Pop _ ->
        false

  (* Trace exit: promote every scratch temp still referenced — by an
     xmm register or a recorded spill word — to a durable box, so
     native execution and the next trace (whose scratch slots these
     were) see plans-off state. Unreferenced temps die here without
     ever paying Arena.alloc: that is the elision win.

     One pass over the registers: the first copy of a live slot's
     pattern re-boxes it, and every copy takes the box from [reboxed].
     No register holds a live pattern after the pass, so the spill
     records, newest first, then re-box the slots left only in memory. *)
  let materialize_temps t (st : State.t) =
    if t.scratch_n > 0 then begin
      let xmm = st.State.xmm in
      for i = 0 to 31 do
        let k = temp_slot t (Int64.to_int xmm.(i)) in
        if k >= 0 then begin
          (match t.scratch.(k) with
          | Some v -> t.reboxed.(k) <- rebox_slot t st k v
          | None -> ());
          let b = t.reboxed.(k) in
          if (not (Int64.equal b 0L)) && Int64.equal xmm.(i) (temp_pat k) then
            xmm.(i) <- b
        end
      done;
      for j = t.spill_n - 1 downto 0 do
        let k = t.spill_slot.(j) in
        match t.scratch.(k) with
        | Some v
          when State.equal64 st t.spill_addr.(j) (temp_pat k) ->
            ignore (rebox_slot t st k v : int64)
        | Some _ | None -> ()
      done;
      t.spill_n <- 0;
      Array.fill t.scratch 0 t.scratch_n None;
      Array.fill t.reboxed 0 t.scratch_n 0L;
      t.scratch_n <- 0
    end
    else t.spill_n <- 0

  (* ---- plan compilation (site specialization) -------------------------- *)

  (* An operand's value from its bits: binary64 bits may hold a box,
     binary32 bits promote. *)
  let value t (w : Isa.fp_width) bits =
    match w with Isa.F64 -> unbox t bits | Isa.F32 -> A.of_f32_bits bits

  (* The bits that stand for a result of width [w]: a fresh box, or for
     binary32, whose 23 payload bits cannot hold one ("the float
     problem"), the demoted value. *)
  let result t (w : Isa.fp_width) v =
    match w with Isa.F64 -> box t v | Isa.F32 -> A.to_f32_bits v

  let sink t st idx kind bits v =
    match t.probe.Probe.on_num with
    | None -> ()
    | Some f ->
        f st (Probe.N_sink { index = idx; kind; bits; f64 = A.demote v })

  (* Compile the decoded instruction at [idx] into a superop closure.
     Each arm keeps the unspecialized interpreter's operand access
     order, charge points and write strategy, so a run with plans
     disabled (which executes transient plans at full dispatch) is bit-
     and cycle-identical to the pre-plan engine, and a run with plans on
     differs only in the modeled charges and the arena traffic the
     elision avoids. Operands are read, and results placed, by
     lib/machine at the instruction's own widths. *)
  let compile t idx (d : Decoder.decoded) : plan =
    let { Decoder.insn; w; lanes; dst; src; _ } = d in
    match d.Decoder.aop with
    | Decoder.A_arith op ->
        let cls = Arith.class_of_fp_op op in
        let binop =
          match op with
          | Isa.FSQRT -> None
          | Isa.FADD -> Some A.add
          | Isa.FSUB -> Some A.sub
          | Isa.FMUL -> Some A.mul
          | Isa.FDIV -> Some A.div
          | Isa.FMIN -> Some A.min_v
          | Isa.FMAX -> Some A.max_v
        in
        let f64 = w = Isa.F64 in
        (* elision candidate: scalar binary64 result into an xmm register *)
        let elidable =
          f64 && lanes = 1
          && match dst with Isa.Xmm _ -> true | _ -> false
        in
        { p_exec =
            (fun ~dispatch st ->
              for lane = 0 to lanes - 1 do
                let b_bits = Cpu.read_fp st w src lane in
                let b = value t w b_bits in
                let a_bits, a, r =
                  match binop with
                  | None -> (b_bits, b, A.sqrt b)
                  | Some f ->
                      let a_bits = Cpu.read_fp st w dst lane in
                      let a = value t w a_bits in
                      (a_bits, a, f a b)
                in
                charge_op t st ~dispatch cls;
                let bits =
                  if elidable && t.in_trace && t.elide.(idx) then
                    box_or_temp t r
                  else result t w r
                in
                (if f64 then
                   match t.probe.Probe.on_num with
                   | None -> ()
                   | Some f ->
                       f st
                         (Probe.N_op
                            { index = idx; op; a_bits; b_bits; r_bits = bits;
                              a = A.demote a; b = A.demote b;
                              r = A.demote r }));
                Cpu.write_result st insn lane bits
              done) }
    | Decoder.A_cmp _ | Decoder.A_cmppred _ ->
        let settle =
          match d.Decoder.aop with
          | Decoder.A_cmppred pred ->
              fun st a b ->
                Cpu.write_result st insn 0
                  (if Cpu.pred_holds pred (A.cmp_quiet a b) then -1L else 0L)
          | Decoder.A_cmp { signaling = true } ->
              fun st a b -> Cpu.set_compare_flags st (A.cmp_signaling a b)
          | _ -> fun st a b -> Cpu.set_compare_flags st (A.cmp_quiet a b)
        in
        { p_exec =
            (fun ~dispatch st ->
              let a_bits = Cpu.read_fp st w dst 0 in
              let a = value t w a_bits in
              let b_bits = Cpu.read_fp st w src 0 in
              let b = value t w b_bits in
              charge_op t st ~dispatch Arith.C_cmp;
              sink t st idx Probe.S_compare a_bits a;
              sink t st idx Probe.S_compare b_bits b;
              settle st a b) }
    | Decoder.A_round imm ->
        let mode = Cpu.round_mode imm in
        { p_exec =
            (fun ~dispatch st ->
              charge_op t st ~dispatch Arith.C_cvt;
              let v = value t w (Cpu.read_fp st w src 0) in
              Cpu.write_result st insn 0 (result t w (A.round_int mode v))) }
    | Decoder.A_f2f ->
        let to_w = match w with Isa.F64 -> Isa.F32 | Isa.F32 -> Isa.F64 in
        { p_exec =
            (fun ~dispatch st ->
              charge_op t st ~dispatch Arith.C_cvt;
              let bits = Cpu.read_fp st w src 0 in
              let v = value t w bits in
              if w = Isa.F64 then sink t st idx Probe.S_demote bits v;
              Cpu.write_result st insn 0 (result t to_w v)) }
    | Decoder.A_f2i { truncate; size } ->
        { p_exec =
            (fun ~dispatch st ->
              let bits = Cpu.read_fp st w src 0 in
              let v = value t w bits in
              let mode =
                if truncate then Ieee754.Softfp.Toward_zero
                else Mx.rounding st.State.mxcsr
              in
              charge_op t st ~dispatch Arith.C_cvt;
              sink t st idx Probe.S_demote bits v;
              Cpu.write_result st insn 0
                (if size = 8 then A.to_i64 mode v
                 else Int64.of_int32 (A.to_i32 mode v))) }
    | Decoder.A_i2f { size } ->
        { p_exec =
            (fun ~dispatch st ->
              let iv = Cpu.read_int st size src in
              let iv =
                if size = 4 then Int64.of_int32 (Int64.to_int32 iv) else iv
              in
              charge_op t st ~dispatch Arith.C_cvt;
              Cpu.write_result st insn 0 (result t w (A.of_i64 iv))) }

  (* The bookkeeping every emulation ends with, begun at cycle count
     [c0] with [e0] temps elided: the telemetry record of its charges
     and the GC cadence. An emulated instruction ([advance]) is also
     counted, and RIP moves past [idx] before a GC pass can observe the
     state; an interposed math call leaves RIP to [Cpu.dispatch]. *)
  let epilogue t st ~advance idx c0 e0 =
    let s = t.stats in
    if advance then s.Stats.emulated_insns <- s.Stats.emulated_insns + 1;
    (match t.probe.Probe.on_tel with
    | None -> ()
    | Some f ->
        f st
          (Probe.T_emulate
             { index = idx; cycles = st.State.cycles - c0;
               elided = s.Stats.temps_elided - e0 }));
    t.since_gc <- t.since_gc + 1;
    if advance then st.State.rip <- idx + 1;
    maybe_gc t st

  (* Emulate the instruction at [idx] with the alternative arithmetic,
     writing NaN-boxed results, and advance RIP. This is the core of
     trap-and-emulate. With plans enabled the fast path is a plan-table
     hit: one charge ([plan_hit], ~decode_hit) replaces the per-visit
     decode + bind + op_map dispatch. A miss pays the full interpretive
     cost plus [plan_compile] and caches the superop. With plans
     disabled a transient plan executes at full dispatch, reproducing
     the unspecialized engine's behavior and accounting exactly. *)
  let emulate t st idx (insn : Isa.insn) =
    let cost = t.config.cost in
    let s = t.stats in
    let c0 = st.State.cycles in
    let e0 = s.Stats.temps_elided in
    let interpret () =
      (* decode (with cache) + bind, as in the classic engine *)
      let d, hit = Decoder.decode t.cache idx insn in
      let dc = if hit then cost.CM.decode_hit else cost.CM.decode_miss in
      State.add_cycles st dc;
      s.Stats.cyc_decode <- s.Stats.cyc_decode + dc;
      State.add_cycles st cost.CM.bind;
      s.Stats.cyc_bind <- s.Stats.cyc_bind + cost.CM.bind;
      d
    in
    (if t.config.use_plans then
       match Plan.find t.plans idx insn with
       | Some p ->
           s.Stats.plan_hits <- s.Stats.plan_hits + 1;
           State.add_cycles st cost.CM.plan_hit;
           s.Stats.cyc_plan <- s.Stats.cyc_plan + cost.CM.plan_hit;
           (match t.probe.Probe.on_tel with
           | None -> ()
           | Some f -> f st (Probe.T_plan_hit { index = idx }));
           p.p_exec ~dispatch:0 st
       | None ->
           let d = interpret () in
           let p = compile t idx d in
           Plan.store t.plans idx insn p;
           s.Stats.plan_misses <- s.Stats.plan_misses + 1;
           State.add_cycles st cost.CM.plan_compile;
           s.Stats.cyc_plan <- s.Stats.cyc_plan + cost.CM.plan_compile;
           (match t.probe.Probe.on_tel with
           | None -> ()
           | Some f -> f st (Probe.T_plan_miss { index = idx }));
           p.p_exec ~dispatch:cost.CM.emu_dispatch st
     else
       let d = interpret () in
       (compile t idx d).p_exec ~dispatch:cost.CM.emu_dispatch st);
    epilogue t st ~advance:true idx c0 e0

  (* The absorb bookkeeping shared by the interpretive trace loop and
     the compiled block paths: one in-window trap-worthy event
     serviced without a fresh delivery. Emitted *before* the emulation
     mutates state, exactly where the interpretive loop emits, so
     record/replay digests of absorbed and delivered servings of the
     same fault coincide. *)
  let absorb_event t st idx events =
    t.stats.Stats.traps_avoided <- t.stats.Stats.traps_avoided + 1;
    Probe.emit t.probe st (Probe.Absorbed { index = idx; events });
    (match t.probe.Probe.on_tel with
    | None -> ()
    | Some f -> f st (Probe.T_absorbed { index = idx; events }));
    Mx.clear_flags st.State.mxcsr

  let absorb_and_emulate t st idx (insn : Isa.insn) events =
    absorb_event t st idx events;
    emulate t st idx insn

  (* The fused fast path: emulate through a plan pre-resolved at
     block-compile time. Identical to [emulate]'s plan-hit arm minus
     the table lookup and its [plan_hit] charge — that lookup is what
     compilation fused away. Machine-state effects (the plan closure,
     GC cadence) are bit-identical to the interpretive path.

     The taint guard proved native dispatch would raise exactly
     [invalid] here (a signaling-NaN input, no subnormal co-operand,
     scalar), so the absorbed event carries those flags without the
     dispatch ever running; the elided dispatch would also have counted
     the FP instruction. *)
  let emulate_fused t st idx (p : plan) =
    let s = t.stats in
    s.Stats.jit_fused_steps <- s.Stats.jit_fused_steps + 1;
    st.State.fp_insn_count <- st.State.fp_insn_count + 1;
    absorb_event t st idx F.invalid;
    let c0 = st.State.cycles in
    let e0 = s.Stats.temps_elided in
    p.p_exec ~dispatch:0 st;
    epilogue t st ~advance:true idx c0 e0

  (* ---- sequence (trace) emulation ------------------------------------- *)

  (* Does this instruction end the resident window (paper 4.1's
     sequence emulation)? Indirect control flow, external calls, halt
     and the FPVM instrumentation sites (Correctness_trap / Checked /
     Patched) do. A trap-capable FP instruction does not: the trace
     runs it natively when it raises no unmasked event and emulates it
     in place when it would have trapped. Nor does glue (moves, stack
     ops, GPR arithmetic, direct branches), which never enters the
     emulator and behaves the same whether the engine is resident or
     not. A trap-and-patch rewrite makes its site a terminator by
     wrapping it. *)
  let ends_trace (insn : Isa.insn) =
    match insn with
    | Isa.Ret | Isa.Call_ext _ | Isa.Halt | Isa.Correctness_trap _
    | Isa.Checked _ | Isa.Patched _ -> true
    | Isa.Fp_arith _ | Isa.Fp_cmp _ | Isa.Fp_cmppred _ | Isa.Fp_round _
    | Isa.Cvt_f2f _ | Isa.Cvt_f2i _ | Isa.Cvt_i2f _ | Isa.Mov_f _
    | Isa.Mov_x _ | Isa.Fp_bit _ | Isa.Movq_xr _ | Isa.Movq_rx _ | Isa.Mov _
    | Isa.Lea _ | Isa.Int_arith _ | Isa.Cmp _ | Isa.Test _ | Isa.Inc _
    | Isa.Dec _ | Isa.Neg _ | Isa.Push _ | Isa.Pop _ | Isa.Jmp _ | Isa.Jcc _
    | Isa.Call _ | Isa.Nop | Isa.Free_hint _ -> false

  (* How every resident step begins, interpreted or compiled: count the
     instruction, charge residency ([trace_step] into [cyc_trace], or
     [jit_step] into [cyc_jit] for a compiled step), run the shadow-temp
     guard when the step is [guarded], so the oracle and native dispatch
     both observe plans-off-equivalent machine state, and fire the
     observation hook (the soundness oracle), which in-window dispatch
     would otherwise bypass with [Cpu.step]. A compiled step is guarded
     unless its shape is [guard_inert]; the trace loop always is. *)
  let enter_step t (st : State.t) ~jit ~guarded idx insn =
    let s = t.stats and cost = t.config.cost in
    st.State.insn_count <- st.State.insn_count + 1;
    s.Stats.trace_insns <- s.Stats.trace_insns + 1;
    let c = if jit then cost.CM.jit_step else cost.CM.trace_step in
    st.State.cycles <- st.State.cycles + c;
    if jit then s.Stats.cyc_jit <- s.Stats.cyc_jit + c
    else s.Stats.cyc_trace <- s.Stats.cyc_trace + c;
    if guarded then guard_native t st insn;
    match st.State.hooks.State.on_step with
    | Some h -> h st idx insn
    | None -> ()

  (* Dispatch a resident instruction natively. One that would have
     trapped is absorbed and emulated in place: the engine is already
     resident, so no fresh delivery is paid. *)
  let dispatch_resident t st idx insn =
    let r = Cpu.dispatch st idx insn in
    (match r with
    | Cpu.Fp_fault { events; _ } -> absorb_and_emulate t st idx insn events
    | Cpu.Running | Cpu.Halted | Cpu.Correctness_fault _ -> ());
    r

  (* After servicing the delivered instruction, stay resident and
     execute forward through the trace until a terminator
     ([ends_trace]), the budget, or halt. FP instructions that would
     have trapped are absorbed and emulated in place — one delivery
     cost per trace instead of per instruction. *)
  let trace t (st : State.t) =
    let insns = st.State.prog.Program.insns in
    let n_insns = Array.length insns in
    let budget = ref (t.config.max_trace_len - 1) in
    let continue_ = ref true in
    while !continue_ && !budget > 0 do
      let idx = st.State.rip in
      if st.State.halted || idx < 0 || idx >= n_insns || ends_trace insns.(idx)
      then continue_ := false
      else begin
        let insn = insns.(idx) in
        decr budget;
        enter_step t st ~jit:false ~guarded:true idx insn;
        let absorbed =
          match dispatch_resident t st idx insn with
          | Cpu.Running | Cpu.Halted -> false (* the loop's test sees a halt *)
          | Cpu.Fp_fault _ -> true
          | Cpu.Correctness_fault _ ->
              (* Correctness_trap is a terminator, filtered above. *)
              assert false
        in
        (* Hot-trace recording: remember the step stream so the window
           can be compiled when it ends. *)
        match t.jit_rec with
        | Some steps -> t.jit_rec <- Some ((idx, absorbed) :: steps)
        | None -> ()
      end
    done

  (* ---- software checks (patch handlers / static-transform stubs) ---- *)

  (* Lane [lane] of an operand as its low 63 bits, a memory word read
     without boxing it. A GPR or an immediate has no binary64 lane and
     reads as +0, which the tests below take for neither a box nor a
     subnormal; none of them reads the sign bit. *)
  let lane_word st (o : Isa.operand) lane =
    match o with
    | Isa.Xmm x -> Int64.to_int st.State.xmm.((2 * x) + lane)
    | Isa.Mem m -> State.load63 st (State.ea st m + (8 * lane))
    | Isa.Reg _ | Isa.Imm _ -> 0

  (* A box or a foreign sNaN: any signaling NaN (nanbox.ml's layout) *)
  let snan_word w =
    w land 0x7FF8_0000_0000_0000 = 0x7FF0_0000_0000_0000
    && w land 0xF_FFFF_FFFF_FFFF <> 0

  (* Does this operand currently hold a NaN-boxed (or foreign-sNaN)
     value in any lane from [lane] up? The predicates here are
     top-level recursions, not closures: the fused step and the link
     check run them on every compiled execution. *)
  let rec lanes_boxed st (o : Isa.operand) lane lanes =
    lane < lanes
    && (snan_word (lane_word st o lane) || lanes_boxed st o (lane + 1) lanes)

  let rec any_boxed st lanes = function
    | [] -> false
    | o :: os -> lanes_boxed st o 0 lanes || any_boxed st lanes os

  (* Does this operand hold a subnormal binary64 in lane 0? The
     softfloat layer raises the denormal-operand flag for these, so a
     fused step — which promises the fault flags are exactly [invalid]
     — must side-exit when one appears. *)
  let operand_subnormal st (o : Isa.operand) =
    let w = lane_word st o 0 in
    w land 0x7FF0_0000_0000_0000 = 0 && w land 0xF_FFFF_FFFF_FFFF <> 0

  let rec any_subnormal st = function
    | [] -> false
    | o :: os -> operand_subnormal st o || any_subnormal st os

  (* The fused-emulation taint predicate: some FP input is a signaling
     NaN (a box or a foreign sNaN — native dispatch is then guaranteed
     to fault) and none is subnormal (so the fault's flag set is
     exactly [invalid], which the absorbed event must reproduce). *)
  let inputs_fusable st inputs =
    any_boxed st 1 inputs && not (any_subnormal st inputs)

  (* Did the static FP tier prove that no raw input lane at this site
     can hold a subnormal? Then the fused path's runtime subnormal scan
     is redundant. *)
  let fpa_sub_free t idx =
    idx < Array.length t.fpa_sub_free && t.fpa_sub_free.(idx)

  (* ---- trace JIT: block compilation and execution --------------------- *)

  (* A compiled step run natively, past its rip and shape guards *)
  let[@inline] native_step t st ~guarded idx insn =
    enter_step t st ~jit:true ~guarded idx insn;
    match dispatch_resident t st idx insn with
    | Cpu.Running | Cpu.Fp_fault _ -> S_ok
    | Cpu.Halted -> S_stop
    | Cpu.Correctness_fault _ ->
        (* a correctness trap can only appear here through a rewrite
           the shape guard should have caught; bail defensively *)
        S_exit

  (* Close the recorded step [idx] over the engine. The returned closure
     checks the step's rip and shape guards and side-exits on either
     failing; on success it performs exactly the machine-state
     transitions the interpretive trace loop would. A step the window
     absorbed as a scalar binary64 fault ([Decoder.fused_inputs]) is
     fused: when the taint guard holds, it emulates through the site's
     binding plan without dispatching, which is bit-identical because
     native dispatch on a boxed input is guaranteed to fault. Every
     other step dispatches natively: an absorbed binary32, packed or
     int-to-float fault simply faults and absorbs again, and the guards
     and the dispatch are one closure. Whether the step runs the
     shadow-temp guard is decided here, once, from its shape. *)
  let compile_step t idx insn ~absorbed : State.t -> step_res =
    let guarded = not (guard_inert insn) in
    (* The recording window emulated an absorbed step, so with plans
       enabled its plan exists. The plan can only go stale through a
       site rewrite, which the shape guard catches first. *)
    match
      if absorbed then (Decoder.fused_inputs insn, Plan.find t.plans idx insn)
      else (None, None)
    with
    | _, None | None, _ ->
        fun st ->
          if st.State.rip <> idx || st.State.prog.Program.insns.(idx) != insn
          then S_exit
          else native_step t st ~guarded idx insn
    | Some inputs, Some p ->
        (* The FP tier's proof discharges the subnormal half of the
           taint guard statically: a boxed input alone then guarantees
           the fault flags are exactly [invalid]. *)
        let proven = fpa_sub_free t idx in
        fun st ->
          if st.State.rip <> idx || st.State.prog.Program.insns.(idx) != insn
          then S_exit
          else if
            any_boxed st 1 inputs && (proven || not (any_subnormal st inputs))
          then begin
            if proven then begin
              t.stats.Stats.fused_unguarded <-
                t.stats.Stats.fused_unguarded + 1;
              (* soundness oracle: run the elided scan anyway, purely
                 to detect a subnormal the analysis declared impossible
                 (observation only) *)
              if t.config.oracle && any_subnormal st inputs then
                t.stats.Stats.fpa_sub_violations <-
                  t.stats.Stats.fpa_sub_violations + 1
            end;
            enter_step t st ~jit:true ~guarded idx insn;
            emulate_fused t st idx p;
            S_ok
          end
          (* clean raw inputs: only the real dispatch knows the fault's
             flag set. The proof lets the step stay in the block;
             without it the interpreter decides. *)
          else if proven then native_step t st ~guarded idx insn
          else S_exit

  (* Compile a recorded window and store the block under its head;
     silent (no charges, no counters) because checkpoint restore
     rebuilds blocks through this too. The charged path wraps it
     below. *)
  let jit_compile_window t st head (path : (int * bool) array) : jit_block =
    let insns = st.State.prog.Program.insns in
    let blk =
      { jb_path = path;
        jb_touches =
          Array.of_list
            (List.sort_uniq compare (head :: List.map fst (Array.to_list path)));
        jb_steps =
          Array.map
            (fun (idx, absorbed) -> compile_step t idx insns.(idx) ~absorbed)
            path;
        jb_link_check =
          (* Linking absorbs the target head without dispatching it, so
             the same exactly-[invalid] taint proof as a fused step is
             required — scalar head, boxed input, no subnormal input. *)
          (match Decoder.fused_inputs insns.(head) with
          | Some inputs -> fun st -> inputs_fusable st inputs
          | None -> fun _ -> false) }
    in
    Plan.store t.jit_blocks head insns.(head) blk;
    blk

  (* Execute a compiled block, then chase back-edges: when the
     window lands on another compiled head whose taint predicate says
     native execution would fault, absorb that head in place and keep
     running compiled-to-compiled — the delivery that trap would have
     cost is never paid. A guard side exit drops into the interpretive
     trace loop, which finishes the window bit-exactly. *)
  let jit_run_chain t st head blk =
    let cost = t.config.cost in
    let insns = st.State.prog.Program.insns in
    let rec go head blk entry_charge links =
      State.add_cycles st entry_charge;
      t.stats.Stats.cyc_jit <- t.stats.Stats.cyc_jit + entry_charge;
      let steps = blk.jb_steps in
      let n = Array.length steps in
      let i = ref 0 in
      let res = ref S_ok in
      while !res = S_ok && !i < n do
        res := steps.(!i) st;
        incr i
      done;
      (* a side-exiting step did not execute; a halting one did *)
      let executed = !i - (match !res with S_exit -> 1 | _ -> 0) in
      (match t.probe.Probe.on_tel with
      | None -> ()
      | Some f ->
          f st
            (Probe.T_jit_exec
               { index = head; steps = executed;
                 cycles = entry_charge + (executed * cost.CM.jit_step) }));
      match !res with
      | S_exit ->
          t.stats.Stats.jit_guard_exits <- t.stats.Stats.jit_guard_exits + 1;
          trace t st
      | S_stop -> ()
      | S_ok ->
          if (not st.State.halted) && links < Jit.max_links then begin
            let rip = st.State.rip in
            if rip >= 0 && rip < Array.length insns then
              match Plan.find t.jit_blocks rip insns.(rip) with
              | Some nb when nb.jb_link_check st ->
                  t.stats.Stats.jit_links <- t.stats.Stats.jit_links + 1;
                  let insn = Program.strip_insn insns.(rip) in
                  (* the linked head would have delivered a fault with
                     exactly [invalid] (the link check just proved the
                     taint); absorb it in place instead and continue
                     compiled. It still executes as one dynamic FP
                     instruction. *)
                  st.State.insn_count <- st.State.insn_count + 1;
                  st.State.fp_insn_count <- st.State.fp_insn_count + 1;
                  absorb_and_emulate t st rip insn F.invalid;
                  go rip nb cost.CM.jit_link (links + 1)
              | _ -> ()
          end
    in
    t.stats.Stats.jit_hits <- t.stats.Stats.jit_hits + 1;
    go head blk cost.CM.jit_enter 0

  (* The JIT-aware window body (replaces the bare [trace] call in the
     trap handler when the JIT is on): run compiled if a valid block
     exists, otherwise count the delivery toward hotness and — at the
     threshold — record this interpretive window and compile it. *)
  let jit_window t st head =
    let insns = st.State.prog.Program.insns in
    match Plan.find t.jit_blocks head insns.(head) with
    | Some blk -> jit_run_chain t st head blk
    | None ->
        let n = Jit.bump t.jit head in
        if n >= t.config.jit_threshold then t.jit_rec <- Some [];
        trace t st;
        (match t.jit_rec with
        | Some steps ->
            t.jit_rec <- None;
            let path = Array.of_list (List.rev steps) in
            let path = Array.sub path 0 (min (Array.length path) jit_max_trace_len) in
            if Array.length path > 0 then begin
              let blk = jit_compile_window t st head path in
              let c = t.config.cost.CM.jit_compile in
              (* artifact store: the first session to compile this
                 (head, digest, path) publishes it and pays the compile
                 charge on-guest as usual; a later identical session's
                 claim comes back [`Shared] and the charge moves into
                 the fingerprint-excluded cyc_compile_shared bucket —
                 compile once, charged once. Everything else (the
                 profiling ramp, the recording, the compilation, the
                 telemetry stream) is identical either way. *)
              let shared =
                match t.artifacts with
                | None -> false
                | Some (store, key) -> (
                    let digest = Artifact.sites_digest insns blk.jb_touches in
                    match
                      Artifact.claim_block store ~key ~head ~digest ~path
                        ~cycles:c
                    with
                    | `Shared ->
                        t.stats.Stats.blocks_shared <-
                          t.stats.Stats.blocks_shared + 1;
                        t.stats.Stats.cyc_compile_shared <-
                          t.stats.Stats.cyc_compile_shared + c;
                        true
                    | `Published -> false)
              in
              if not shared then begin
                State.add_cycles st c;
                t.stats.Stats.cyc_jit <- t.stats.Stats.cyc_jit + c
              end;
              t.stats.Stats.jit_compiles <- t.stats.Stats.jit_compiles + 1;
              match t.probe.Probe.on_tel with
              | None -> ()
              | Some f ->
                  f st
                    (Probe.T_jit_compile
                       { index = head; steps = Array.length blk.jb_steps;
                         cycles = (if shared then 0 else c) })
            end
        | None -> ())

  (* Execute [insn] at [idx] under software pre/postcondition checks.
     Precondition: no input operand is NaN-boxed. Postcondition: the
     native execution raised no FP events. Either failing routes to the
     emulator, exactly like a trap-and-patch custom handler. *)
  let software_execute t st idx (insn : Isa.insn) =
    match Decoder.decode_insn insn with
    | None ->
        (* not an FP instruction: nothing to check *)
        ignore (Cpu.dispatch st idx insn)
    | Some d ->
        let dst = d.Decoder.dst and lanes = d.Decoder.lanes in
        (* a box in a destination the instruction only writes is
           overwritten, as emulation would overwrite it *)
        let pre_fail =
          t.config.always_emulate || any_boxed st lanes (Decoder.inputs d)
        in
        if pre_fail then begin
          (* emulated without a dispatch, which would have counted it *)
          st.State.fp_insn_count <- st.State.fp_insn_count + 1;
          emulate t st idx insn
        end
        else begin
          (* Save the destination so a postcondition failure can rerun:
             native execution writes nothing else an emulation reads,
             and no register a memory destination's address uses. *)
          let saved =
            match dst with
            | Isa.Xmm _ | Isa.Mem _ ->
                Array.init lanes (fun lane -> Cpu.read_f64 st dst lane)
            | Isa.Reg _ | Isa.Imm _ -> [||]
          in
          let saved_flags = Mx.flags st.State.mxcsr in
          Mx.clear_flags st.State.mxcsr;
          let failed =
            match Cpu.dispatch st idx insn with
            | Cpu.Running | Cpu.Halted ->
                if Mx.flags st.State.mxcsr = F.none then false
                else begin
                  (* restore the destination; emulate advances RIP *)
                  Array.iteri (fun lane v -> Cpu.write_f64 st dst lane v) saved;
                  st.State.rip <- idx;
                  true
                end
            | Cpu.Fp_fault _ | Cpu.Correctness_fault _ ->
                (* Under trap-and-patch exceptions are unmasked, so a
                   raised event faults: the postcondition failed, with
                   the destination unwritten and RIP still at [idx]. *)
                true
          in
          Mx.clear_flags st.State.mxcsr;
          Mx.set_flags st.State.mxcsr saved_flags;
          if failed then emulate t st idx insn
        end

  (* ---- correctness traps (paper 4.2) ---------------------------------- *)

  let demote_bits t st (o : Isa.operand) lane =
    let bits = Cpu.read_f64 st o lane in
    if Nanbox.is_boxed bits then begin
      let v = unbox t bits in
      let d = A.demote v in
      Cpu.write_f64 st o lane d;
      t.stats.Stats.correctness_demotions <-
        t.stats.Stats.correctness_demotions + 1;
      match t.probe.Probe.on_num with
      | None -> ()
      | Some f ->
          f st
            (Probe.N_sink
               { index = st.State.rip; kind = Probe.S_demote; bits; f64 = d })
    end

  (* Demote any NaN-boxed data the wrapped instruction is about to
     reinterpret as raw bits. *)
  let demote_for t st (insn : Isa.insn) =
    match insn with
    | Isa.Mov { size; src = Isa.Mem m; _ } when size >= 4 ->
        (* integer load of possibly-FP memory: demote the containing
           8-byte word(s) *)
        let a = State.ea st m in
        let word a = Isa.Mem (Isa.addr (a land lnot 7)) in
        demote_bits t st (word a) 0;
        if size = 8 && a land 7 <> 0 then demote_bits t st (word (a + 7)) 0
    | Isa.Movq_xr { src; _ } -> demote_bits t st (Isa.Xmm src) 0
    | Isa.Fp_bit { dst; src; _ } -> begin
        (match dst with
        | Isa.Xmm _ ->
            demote_bits t st dst 0;
            demote_bits t st dst 1
        | _ -> ());
        match src with
        | Isa.Xmm _ | Isa.Mem _ ->
            demote_bits t st src 0;
            demote_bits t st src 1
        | _ -> ()
      end
    | Isa.Call_ext (Isa.Print_f64 | Isa.Write_f64) ->
        demote_bits t st (Isa.Xmm 0) 0
    | Isa.Call_ext _ ->
        (* conservative: demote the xmm argument registers *)
        for i = 0 to 7 do
          demote_bits t st (Isa.Xmm i) 0
        done
    | _ -> ()

  (* ---- external call interposition ------------------------------------- *)

  module Libm = Arith.Libm (A)

  let on_ext_call t st (fn : Isa.ext_fn) : bool =
    match Libm.math_ext fn with
    | (`Unary _ | `Binary _) as m ->
        (* The math wrapper: emulate libm in the alternative system so
           boxed arguments work and precision carries through. *)
        let s = t.stats in
        s.Stats.math_calls <- s.Stats.math_calls + 1;
        let c0 = st.State.cycles and e0 = s.Stats.temps_elided in
        charge_emu t st Arith.C_libm;
        let a_bits = State.get_xmm st 0 0 in
        let a = unbox t a_bits in
        let unary, b_bits, b, v =
          match m with
          | `Unary f -> (true, a_bits, a, f a)
          | `Binary f ->
              let b_bits = State.get_xmm st 1 0 in
              let b = unbox t b_bits in
              (false, b_bits, b, f a b)
        in
        let rbits = box t v in
        State.set_xmm st 0 0 rbits;
        State.set_xmm st 0 1 0L;
        (match t.probe.Probe.on_num with
        | None -> ()
        | Some g ->
            let a_img = A.demote a in
            g st
              (Probe.N_ext
                 { index = st.State.rip; fn; unary; a_bits; b_bits;
                   r_bits = rbits; a = a_img;
                   b = (if unary then a_img else A.demote b);
                   r = A.demote v }));
        epilogue t st ~advance:false st.State.rip c0 e0;
        true
    | `Other -> begin
        match fn with
        | Isa.Print_f64 ->
            (* The printing problem: hijack printf and demote/print the
               shadow value. *)
            let bits = State.get_xmm st 0 0 in
            if Nanbox.is_boxed bits then begin
              t.stats.Stats.printf_hijacks <- t.stats.Stats.printf_hijacks + 1;
              let v = unbox t bits in
              let d = A.demote v in
              (match t.probe.Probe.on_num with
              | None -> ()
              | Some g ->
                  g st
                    (Probe.N_sink
                       { index = st.State.rip; kind = Probe.S_print; bits;
                         f64 = d }));
              Buffer.add_string st.State.out
                (Printf.sprintf "%.17g\n" (Int64.float_of_bits d));
              true
            end
            else false
        | Isa.Write_f64 ->
            (* The serialization problem: demote at the boundary. *)
            let bits = State.get_xmm st 0 0 in
            if Nanbox.is_boxed bits then begin
              t.stats.Stats.serialize_demotions <-
                t.stats.Stats.serialize_demotions + 1;
              let d = A.demote (unbox t bits) in
              (match t.probe.Probe.on_num with
              | None -> ()
              | Some g ->
                  g st
                    (Probe.N_sink
                       { index = st.State.rip; kind = Probe.S_serialize; bits;
                         f64 = d }));
              Buffer.add_int64_le st.State.serialized d;
              true
            end
            else false
        | _ -> false
      end

  (* ---- run -------------------------------------------------------------- *)

  (* A prepared machine: the engine, its state, the simulated kernel,
     and the engine's working copy of the binary (analysis patches and
     trap-and-patch rewrites land in this copy). [prepare] builds it
     and installs every handler; [resume] drives it to completion.
     Splitting the two lets lib/replay install probe callbacks between
     them and overwrite the prepared state from a checkpoint. *)
  type session = {
    eng : t;
    st : State.t;
    kern : Trapkern.t;
    prog : Program.t;
  }

  (* No-escape facts over the program as patched: which results may
     live in the trace scratch buffer. *)
  let escape_facts t insns =
    t.elide <-
      (if t.config.use_plans then Analysis.Escape.no_escape insns
       else Array.make (Array.length insns) false)

  let prepare ?(config = default_config) ?facts ?artifacts (prog : Program.t)
      : session =
    check config;
    let t = create config in
    let prog = Program.copy prog in
    (* Session key over the pristine copy (before any patching): port x
       content digest x analysis tier x codegen-relevant flags. *)
    (match artifacts with
    | Some store ->
        let key =
          Artifact.session_key ~port:A.name ~flags:(config_flags config) prog
        in
        t.artifacts <- Some (store, key)
    | None -> ());
    (* Static analysis + patching (the hybrid's correctness traps). The
       analysis is a pure function of the instruction array and its
       results are index-based, so an [?facts] value computed once on
       the pristine binary (the fleet's shared read-only fact store)
       applies to this session's private copy verbatim. *)
    let a = match facts with Some a -> a | None -> Vsa.analyze prog in
    (* Static transform patches every FP instruction and every VSA
       sink with an inline software check; no hardware traps at all. *)
    if config.approach = Static_transform then
      Array.iteri
        (fun i insn ->
          if Isa.is_fp_insn insn then prog.Program.insns.(i) <- Isa.Checked insn)
        prog.Program.insns;
    Vsa.apply_patches prog a;
    t.stats.Stats.patched_sites <- List.length a.Vsa.sinks;
    t.stats.Stats.trap_checks_elided <-
      a.Vsa.pipeline.Analysis.Pipeline.trap_checks_elided;
    if config.use_fpa then begin
      let n = Array.length prog.Program.insns in
      t.fpa_sub_free <- Analysis.Fpa.sub_free_array a.Vsa.fpa n;
      t.stats.Stats.fpa_sites_proven <- a.Vsa.fpa.Analysis.Fpa.proven
    end;
    escape_facts t prog.Program.insns;
    (* the scratch buffer can never need more slots than the trace
       budget (at most one temp per emulated instruction) *)
    t.scratch <- Array.make config.max_trace_len None;
    t.spill_head <- Array.make config.max_trace_len (-1);
    t.reboxed <- Array.make config.max_trace_len 0L;
    let st =
      State.create ~cost:config.cost ~track_writes:config.incremental_gc prog
    in
    let kern = Trapkern.create ~deployment:config.deployment () in
    (* Hooks *)
    st.State.hooks.State.on_ext_call <-
      Some
        (fun st fn ->
          let handled = on_ext_call t st fn in
          Probe.emit t.probe st (Probe.Ext_call { fn; handled });
          handled);
    st.State.hooks.State.on_free_hint <-
      Some
        (fun st o ->
          (* compiler-hinted shadow death (section 3.4): free the cell
             now instead of waiting for a GC pass *)
          match o with
          | Isa.Mem _ | Isa.Xmm _ ->
              let bits = Cpu.read_f64 st o 0 in
              if Nanbox.is_boxed bits then begin
                Arena.free t.arena (Nanbox.unbox bits);
                t.stats.Stats.eager_frees <- t.stats.Stats.eager_frees + 1
              end
          | Isa.Reg _ | Isa.Imm _ -> ());
    st.State.hooks.State.on_checked <-
      Some
        (fun st idx insn ->
          t.stats.Stats.checked_invocations <-
            t.stats.Stats.checked_invocations + 1;
          software_execute t st idx insn;
          true);
    st.State.hooks.State.on_patched <-
      Some
        (fun st idx _site insn ->
          t.stats.Stats.patch_invocations <-
            t.stats.Stats.patch_invocations + 1;
          let c = config.cost.CM.patch_check in
          t.stats.Stats.cyc_patch_checks <- t.stats.Stats.cyc_patch_checks + c;
          (match t.probe.Probe.on_tel with
          | None -> ()
          | Some f -> f st (Probe.T_patch_check { index = idx; cycles = c }));
          software_execute t st idx insn;
          true);
    (* The soundness oracle (observation only): before every dispatch of
       a bare integer load — one the analysis chose NOT to patch — check
       whether the containing word(s) hold a live NaN-boxed value. A hit
       means an unprotected load is about to observe box bits the
       program will misinterpret: a false negative of the static
       analysis. Wrapped sites (Correctness_trap/Checked/Patched) carry
       their own demotion handlers and do not match the bare pattern. *)
    if config.oracle then
      st.State.hooks.State.on_step <-
        Some
          (fun st _idx insn ->
            match insn with
            | Isa.Mov { size; src = Isa.Mem m; _ } when size >= 4 ->
                let s = t.stats in
                s.Stats.oracle_loads_checked <- s.Stats.oracle_loads_checked + 1;
                (* Same containing-word arithmetic as demote_for: boxes
                   are 8-byte-aligned 64-bit patterns. Require the arena
                   cell to be live so a stale bit pattern read from
                   never-initialized or recycled memory doesn't count. *)
                let a = State.ea st m in
                let boxed_word a =
                  let bits = State.load64 st a in
                  (* A temp pattern here — live or dangling — means the
                     elision guard missed a raw flow: always a soundness
                     event. Real boxes must additionally be live. *)
                  Plan.is_temp_box bits
                  || (Nanbox.is_boxed bits
                     && Arena.is_live t.arena (Nanbox.unbox bits))
                in
                if
                  boxed_word (a land lnot 7)
                  || (size = 8 && a land 7 <> 0
                     && boxed_word ((a + 7) land lnot 7))
                then s.Stats.oracle_boxed_loads <- s.Stats.oracle_boxed_loads + 1
            | Isa.Pop _ ->
                (* an 8-byte load of [rsp] that moves a real box without
                   observing it; only a temp pattern, live or dangling,
                   counts *)
                let s = t.stats in
                s.Stats.oracle_loads_checked <- s.Stats.oracle_loads_checked + 1;
                let rsp = Int64.to_int (State.get_gpr st Isa.RSP) in
                if Plan.is_temp_box (State.load64 st rsp) then
                  s.Stats.oracle_boxed_loads <- s.Stats.oracle_boxed_loads + 1
            | _ -> ());
    (* Hardware exceptions: unmask unless purely static. *)
    if config.approach <> Static_transform then
      Mx.unmask_all st.State.mxcsr;
    Trapkern.install_sigfpe kern (fun st frame ->
        t.stats.Stats.fp_traps <- t.stats.Stats.fp_traps + 1;
        let idx = frame.Trapkern.fault_index in
        Probe.emit t.probe st
          (Probe.Fp_trap { index = idx; events = frame.Trapkern.events });
        (match t.probe.Probe.on_tel with
        | None -> ()
        | Some f ->
            f st
              (Probe.T_trap
                 { index = idx; events = frame.Trapkern.events;
                   delivery = CM.delivery_cost config.cost config.deployment }));
        Mx.clear_flags st.State.mxcsr;
        (match config.approach with
        | Trap_and_patch ->
            (* Rewrite the site so subsequent executions skip the kernel. *)
            let original = prog.Program.insns.(idx) in
            (match original with
            | Isa.Patched _ -> ()
            | _ ->
                t.patch_sites <- t.patch_sites + 1;
                prog.Program.insns.(idx) <-
                  Isa.Patched { site_id = t.patch_sites; original };
                (* The site is now a trace terminator. The rewrite also
                   stales any cached plan (its shape key no longer
                   matches) and shifts the no-escape facts: a Patched
                   wrapper is an escape-scan failure, so recompute them
                   over the rewritten program. *)
                if Plan.invalidate t.plans idx then begin
                  t.stats.Stats.plan_invalidations <-
                    t.stats.Stats.plan_invalidations + 1;
                  match t.probe.Probe.on_tel with
                  | None -> ()
                  | Some f -> f st (Probe.T_plan_invalidate { index = idx })
                end;
                (* ... and any compiled block that executes the
                   rewritten site anywhere in its window — dropped
                   exactly like the plan above, counters reset so the
                   head re-records against the patched program. *)
                if config.use_jit then begin
                  let stale = ref [] in
                  Plan.iter t.jit_blocks (fun h b ->
                      if Array.mem idx b.jb_touches then
                        stale := h :: !stale);
                  List.iter
                    (fun h ->
                      if Plan.invalidate t.jit_blocks h then begin
                        Jit.forget t.jit h;
                        t.stats.Stats.jit_invalidations <-
                          t.stats.Stats.jit_invalidations + 1;
                        match t.probe.Probe.on_tel with
                        | None -> ()
                        | Some f -> f st (Probe.T_jit_invalidate { index = h })
                      end)
                    !stale
                end;
                (* propagate to the shared artifact store: recordings
                   that touch the rewritten site can never be claimed
                   again (the rewrite changed their site digest), so
                   drop them eagerly rather than letting them sit
                   inert. *)
                (match t.artifacts with
                | None -> ()
                | Some (store, key) ->
                    ignore (Artifact.invalidate_site store ~key ~site:idx));
                if config.use_plans then
                  t.elide <- Analysis.Escape.no_escape prog.Program.insns)
        | Trap_and_emulate | Static_transform -> ());
        let insn = Program.strip_insn prog.Program.insns.(idx) in
        (* The delivered instruction plus the trace that follows form
           one resident window: the only region where shadow-temp
           elision may fire (the exit sweep below re-boxes leftovers). *)
        if config.max_trace_len > 1 then t.in_trace <- true;
        emulate t st idx insn;
        (* Sequence emulation: amortize the delivery just paid over the
           instructions that follow. *)
        if config.max_trace_len > 1 then begin
          t.stats.Stats.traces <- t.stats.Stats.traces + 1;
          t.stats.Stats.trace_insns <- t.stats.Stats.trace_insns + 1;
          (match t.probe.Probe.on_tel with
          | None -> ()
          | Some f -> f st (Probe.T_trace_enter { index = idx }));
          let ti0 = t.stats.Stats.trace_insns in
          let ct0 = t.stats.Stats.cyc_trace in
          if config.use_jit then jit_window t st idx else trace t st;
          t.in_trace <- false;
          materialize_temps t st;
          Trapkern.charge_trace_exit kern st;
          match t.probe.Probe.on_tel with
          | None -> ()
          | Some f ->
              let stepped = t.stats.Stats.trace_insns - ti0 in
              (* interpreter-stepped residency charges only: compiled
                 steps charge [jit_step] into [cyc_jit] and report
                 through T_jit_exec *)
              f st
                (Probe.T_trace_exit
                   { index = idx; insns = stepped + 1;
                     step_cycles = t.stats.Stats.cyc_trace - ct0;
                     exit_cycles = config.cost.CM.trace_exit })
        end;
        (* handler done, no frame in flight: a checkpointable moment *)
        Probe.quiesce t.probe st);
    (* Distinct patched sites that ever demoted a boxed operand; a
       diagnostic gauge only (like the oracle counters it is excluded
       from fingerprints and checkpoints, so it restarts from empty on
       a checkpoint resume). *)
    let boxed_sites : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    Trapkern.install_sigtrap kern (fun st frame ->
        t.stats.Stats.correctness_traps <- t.stats.Stats.correctness_traps + 1;
        let idx = frame.Trapkern.trap_index in
        Probe.emit t.probe st (Probe.Correctness { index = idx });
        let original = frame.Trapkern.original in
        let c = config.cost.CM.single_step in
        State.add_cycles st c;
        t.stats.Stats.cyc_correctness_handler <-
          t.stats.Stats.cyc_correctness_handler + c;
        (match t.probe.Probe.on_tel with
        | None -> ()
        | Some f ->
            f st
              (Probe.T_correctness
                 { index = idx;
                   delivery = CM.delivery_cost config.cost config.deployment;
                   handler = c }));
        (* Split the delivery by what the demotion found: did the
           conservatively patched site actually hold a boxed operand
           this time, or did the trap fire for nothing? *)
        let demotions_before = t.stats.Stats.correctness_demotions in
        demote_for t st original;
        (match t.probe.Probe.on_tel with
        | None -> ()
        | Some f ->
            let d = t.stats.Stats.correctness_demotions - demotions_before in
            if d > 0 then f st (Probe.T_demote { index = idx; count = d }));
        if t.stats.Stats.correctness_demotions > demotions_before then begin
          t.stats.Stats.corr_demote_boxed <- t.stats.Stats.corr_demote_boxed + 1;
          if not (Hashtbl.mem boxed_sites idx) then begin
            Hashtbl.replace boxed_sites idx ();
            t.stats.Stats.patched_sites_boxed <-
              t.stats.Stats.patched_sites_boxed + 1
          end
        end
        else
          t.stats.Stats.corr_demote_clean <- t.stats.Stats.corr_demote_clean + 1;
        (* Single-step the original instruction. *)
        (match Cpu.dispatch st idx original with
        | Cpu.Running | Cpu.Halted -> ()
        | Cpu.Fp_fault _ ->
            (* The demoted re-execution raised an FP event: emulate. *)
            Mx.clear_flags st.State.mxcsr;
            emulate t st idx original
        | Cpu.Correctness_fault _ -> assert false);
        Probe.quiesce t.probe st);
    { eng = t; st; kern; prog }

  (* ---- checkpoints ----------------------------------------------------- *)

  (* The engine's section of a checkpoint, in format v4's order (the
     order is the format). Plans and blocks are closures, so only their
     sites and recorded paths are written. *)
  let capture (ses : session) b =
    let t = ses.eng and kern = ses.kern in
    Wire.varint b t.since_gc;
    Wire.varint b t.gc_count;
    Wire.varint b t.patch_sites;
    Stats.encode b t.stats;
    Decoder.encode b t.cache;
    let sites = Plan.keys t.plans in
    Wire.varint b (List.length sites);
    List.iter (Wire.varint b) sites;
    let paths = ref [] in
    Plan.iter t.jit_blocks (fun h blk ->
        paths := (h, blk.jb_path) :: !paths);
    Jit.encode b t.jit (List.rev !paths);
    let patched =
      Array.to_seqi ses.prog.Program.insns
      |> Seq.filter_map (function
           | i, Isa.Patched { site_id; _ } -> Some (i, site_id)
           | _ -> None)
      |> List.of_seq
    in
    Wire.varint b (List.length patched);
    List.iter
      (fun (i, site) ->
        Wire.varint b i;
        Wire.varint b site)
      patched;
    Arena.encode A.encode_value b t.arena;
    Wire.varint b kern.Trapkern.fpe_count;
    Wire.varint b kern.Trapkern.trap_count;
    Wire.varint b kern.Trapkern.trace_exit_count;
    Wire.i64 b (Int64.of_int kern.Trapkern.hw_cycles);
    Wire.i64 b (Int64.of_int kern.Trapkern.kernel_cycles);
    Wire.i64 b (Int64.of_int kern.Trapkern.user_cycles)

  (* Read what [capture] wrote over a freshly prepared session, then
     re-apply what depends on the program in the order it needs: the
     rewrites, the no-escape facts over the rewritten program, the
     plans, and last the blocks, whose compilation pre-resolves each
     fused step's plan. Plans and blocks are recompiled silently (no charges,
     no counter movement), so the resumed run replays the original's
     plan and JIT traffic, and hence its cycles, exactly. *)
  let restore (ses : session) s pos =
    let t = ses.eng and kern = ses.kern and insns = ses.prog.Program.insns in
    let n_insns = Array.length insns in
    t.since_gc <- Wire.r_varint s pos;
    t.gc_count <- Wire.r_varint s pos;
    t.patch_sites <- Wire.r_varint s pos;
    Stats.restore s pos t.stats;
    Decoder.restore s pos t.cache insns;
    let sites = List.init (Wire.r_count s pos) (fun _ -> Wire.r_varint s pos) in
    let paths = Jit.restore s pos t.jit ~n_insns in
    let patched =
      List.init (Wire.r_count ~per:2 s pos) (fun _ ->
          let i = Wire.r_varint s pos in
          if i < 0 || i >= n_insns then
            Wire.corrupt "patched site %d out of range" i;
          (i, Wire.r_varint s pos))
    in
    Arena.restore A.decode_value s pos t.arena;
    kern.Trapkern.fpe_count <- Wire.r_varint s pos;
    kern.Trapkern.trap_count <- Wire.r_varint s pos;
    kern.Trapkern.trace_exit_count <- Wire.r_varint s pos;
    kern.Trapkern.hw_cycles <- Int64.to_int (Wire.r_i64 s pos);
    kern.Trapkern.kernel_cycles <- Int64.to_int (Wire.r_i64 s pos);
    kern.Trapkern.user_cycles <- Int64.to_int (Wire.r_i64 s pos);
    List.iter
      (fun (i, site_id) ->
        match insns.(i) with
        | Isa.Patched _ -> ()
        | original -> insns.(i) <- Isa.Patched { site_id; original })
      patched;
    escape_facts t insns;
    (* keyed by the unwrapped instruction, as the runtime paths look
       plans up; sites out of range or not FP are skipped *)
    List.iter
      (fun idx ->
        if idx >= 0 && idx < n_insns then
          let key = Program.strip_insn insns.(idx) in
          Option.iter
            (fun d -> Plan.store t.plans idx key (compile t idx d))
            (Decoder.decode_insn key))
      sites;
    List.iter
      (fun (h, path) -> ignore (jit_compile_window t ses.st h path))
      paths

  let resume (ses : session) : result =
    let t = ses.eng and st = ses.st and kern = ses.kern in
    let config = t.config in
    Trapkern.run ~max_insns:config.max_insns kern st;
    (* final GC pass for the books: always a full scan, so the ending
       live set (and hence total freed) is identical whichever GC
       strategy ran during the run *)
    gc ~full:true t st;
    (* Fold kernel delivery accounting into stats. Every delivery (FP
       fault or correctness trap) costs the same, so apportion the three
       buckets by event counts: the FP-fault share stays in hw/kernel/
       user, the correctness-trap share becomes "correctness overhead"
       (the paper's Fig 9 split). *)
    let fpe = kern.Trapkern.fpe_count and corr = kern.Trapkern.trap_count in
    let events = max 1 (fpe + corr) in
    let fp_share v = v * fpe / events in
    let corr_share v = v - fp_share v in
    t.stats.Stats.cyc_hw <- fp_share kern.Trapkern.hw_cycles;
    t.stats.Stats.cyc_kernel <- fp_share kern.Trapkern.kernel_cycles;
    t.stats.Stats.cyc_delivery <- fp_share kern.Trapkern.user_cycles;
    t.stats.Stats.cyc_correctness <-
      corr_share kern.Trapkern.hw_cycles
      + corr_share kern.Trapkern.kernel_cycles
      + corr_share kern.Trapkern.user_cycles;
    t.stats.Stats.decode_hits <- t.cache.Decoder.hits;
    t.stats.Stats.decode_misses <- t.cache.Decoder.misses;
    { output = State.output st;
      serialized = State.serialized_output st;
      stats = t.stats;
      cycles = st.State.cycles;
      insns = st.State.insn_count;
      fp_insns = st.State.fp_insn_count;
      st }

  let run ?(config = default_config) ?artifacts (prog : Program.t) : result =
    resume (prepare ~config ?artifacts prog)

  let probe t = t.probe
  let arena t = t.arena
end

(* Run the same program natively (no FPVM), for baselines and
   validation. *)
let run_native ?(cost = default_config.cost)
    ?(max_insns = default_config.max_insns) (prog : Program.t) : result =
  let st = State.create ~cost prog in
  Cpu.run_native ~max_insns st;
  { output = State.output st;
    serialized = State.serialized_output st;
    stats = Stats.create ();
    cycles = st.State.cycles;
    insns = st.State.insn_count;
    fp_insns = st.State.fp_insn_count;
    st }

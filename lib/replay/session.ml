(* Record / replay / restore drivers, functorized over the arithmetic.

   [Make (A)] owns its engine instantiation ([module E]): separate
   applications of [Engine.Make (A)] produce incompatible types, so
   callers must run programs through the session's [E].

   The architectural digest hashed into every event is *config
   invariant*: NaN-boxed register values are unboxed and the encoded
   shadow value is hashed, never the raw box bits — arena indices are
   allocation-order artifacts and differ between GC configs even when
   the computation is identical. Cycle counts and %mxcsr are excluded
   for the same reason (delivery accounting differs across trace
   lengths and deployments without the architecture diverging).
   Registers are GC roots, so whether a register-held shadow value is
   live is also config-invariant. Memory is not hashed per event
   (that would be O(|mem|) per trap); memory divergence surfaces at
   the next event that consumes the differing word, and bit-exact
   whole-state comparison happens at checkpoints and run end. *)

module State = Machine.State
module Isa = Machine.Isa

type recording = {
  result : Fpvm.Engine.result;
  log : Log.t;
  log_bytes : string;
  checkpoints : (int * string) list; (* (event seq, blob), ascending *)
}

type divergence = {
  at : int; (* event sequence number *)
  expected : Event.t option; (* None: log exhausted, run kept going *)
  got : Event.t option; (* None: run ended, log expects more *)
}

type outcome = Match of Fpvm.Engine.result | Diverged of divergence

let pp_divergence ?prog fmt (d : divergence) =
  let side name = function
    | None -> Format.fprintf fmt "  %s: <stream ended>@." name
    | Some e -> Format.fprintf fmt "  %s: %s@." name (Event.describe ?prog e)
  in
  Format.fprintf fmt "replay diverged at event %d:@." d.at;
  side "expected (log)" d.expected;
  side "got (run)" d.got

module Make (A : Fpvm.Arith.S) = struct
  module E = Fpvm.Engine.Make (A)
  module P = Fpvm.Probe

  (* ---- architectural digest ------------------------------------------ *)

  let dangling_digest = Codec.fnv64 Codec.fnv_basis "dangling-box"

  (* The digest of one shadow value's encoding. [scratch] is a
     per-recording buffer, so it saves one allocation per digested
     register without coupling interleaved recordings or domains. *)
  let encoded_digest scratch v =
    Buffer.clear scratch;
    A.encode_value scratch v;
    Codec.fnv64 Codec.fnv_basis (Buffer.contents scratch)

  (* Raw bits for unboxed values; the digest of the *encoded shadow
     value* for boxes. *)
  let value_digest scratch (eng : E.t) (bits : int64) : int64 =
    if Fpvm.Nanbox.is_boxed bits then begin
      let idx = Fpvm.Nanbox.unbox bits in
      if idx >= Fpvm.Plan.temp_base then
        (* In-trace shadow temp: digest the scratch value behind it, so
           a mid-trace digest of a register holding a temp matches the
           same register holding the equivalent real box (temps are an
           allocation-strategy artifact, like arena indices). *)
        match E.temp_value eng bits with
        | Some v -> encoded_digest scratch v
        | None -> dangling_digest
      else if Fpvm.Arena.is_live (E.arena eng) idx then
        encoded_digest scratch (Fpvm.Arena.value (E.arena eng) idx)
      else dangling_digest
    end
    else bits

  (* The per-event digest runs once per event over 48 registers, so it
     mixes with untagged native-int arithmetic (one xor-multiply round
     per word; multiplication by an odd constant is bijective, so no
     difference is ever erased) into a local accumulator, allocating
     nothing. Only NaN-boxed registers need [value_digest]; any other
     register digests as its own bits. *)
  let[@inline] mixi h v = (h lxor v) * 0x100000001B3

  (* to_int keeps bits 0-62; the second round covers the top bits *)
  let[@inline] mix h v =
    mixi (mixi h (Int64.to_int v)) (Int64.to_int (Int64.shift_right_logical v 48))

  let[@inline] mix_reg scratch eng h bits =
    if Fpvm.Nanbox.is_boxed bits then mix h (value_digest scratch eng bits)
    else mix h bits

  let arch_digest scratch (eng : E.t) (st : State.t) : int64 =
    let h = mixi 0x4BF29CE484222325 st.State.rip in
    let h = mixi h st.State.insn_count in
    let h = mixi h st.State.fp_insn_count in
    let h = mixi h st.State.heap_ptr in
    let h =
      mixi h
        ((if st.State.zf then 1 else 0)
        lor (if st.State.sf then 2 else 0)
        lor (if st.State.cf then 4 else 0)
        lor (if st.State.of_ then 8 else 0)
        lor if st.State.pf then 16 else 0)
    in
    let h = mixi h (Buffer.length st.State.out) in
    let h = ref (mixi h (Buffer.length st.State.serialized)) in
    for i = 0 to 15 do
      h := mix_reg scratch eng !h st.State.gpr.(i)
    done;
    for i = 0 to 31 do
      h := mix_reg scratch eng !h st.State.xmm.(i)
    done;
    Int64.of_int !h

  (* ---- event construction -------------------------------------------- *)

  let operand_lane0 (st : State.t) (o : Isa.operand) : int64 =
    match o with
    | Isa.Xmm i -> State.get_xmm st i 0
    | Isa.Reg r -> State.get_gpr st r
    | Isa.Imm v -> v
    | Isa.Mem m -> ( try State.load64 st (State.ea st m) with _ -> 0L)

  (* The faulting site's lane-0 operands. [Decoder.decode_insn] is pure
     and unwraps instrumentation, so a site patched since it first
     faulted decodes as before; bypassing the engine's decode cache
     keeps its hit/miss counters, part of the deterministic stats,
     untouched by recording. *)
  let fault_operands scratch (eng : E.t) (st : State.t)
      (prog : Machine.Program.t) index =
    if index < 0 || index >= Array.length prog.Machine.Program.insns then
      (0, 0L, 0L)
    else
      match Fpvm.Decoder.decode_insn prog.Machine.Program.insns.(index) with
      | None -> (0, 0L, 0L)
      | Some d ->
          let dstb = operand_lane0 st d.Fpvm.Decoder.dst in
          let srcb = operand_lane0 st d.Fpvm.Decoder.src in
          let boxed =
            (if Fpvm.Nanbox.is_boxed dstb then 1 else 0)
            lor if Fpvm.Nanbox.is_boxed srcb then 2 else 0
          in
          (boxed, value_digest scratch eng dstb, value_digest scratch eng srcb)

  let event_of_probe scratch (ses : E.session) seq (pev : P.event) : Event.t =
    let st = ses.E.st in
    let chk = arch_digest scratch ses.E.eng st in
    let kind =
      match pev with
      | P.Fp_trap { index; events } ->
          let boxed, dst, src =
            fault_operands scratch ses.E.eng st ses.E.prog index
          in
          Event.Fp_trap { index; events; boxed; dst; src }
      | P.Absorbed { index; events } ->
          let boxed, dst, src =
            fault_operands scratch ses.E.eng st ses.E.prog index
          in
          Event.Absorbed { index; events; boxed; dst; src }
      | P.Correctness { index } -> Event.Correctness { index }
      | P.Gc { full; freed; words } -> Event.Gc { full; freed; words }
      | P.Ext_call { fn; handled } ->
          Event.Ext_call
            { fn = Event.ext_fn_id fn; arg = Event.ext_fn_arg fn; handled }
    in
    { Event.seq; insns = st.State.insn_count; chk; kind }

  (* ---- facts: one analysis per binary ---------------------------------- *)

  (* The last binary this instance analysed, a snapshot of its
     instructions, and its facts. [Vsa.analyze] reads only [insns],
     [entry], [mem_size], [data_size] and [data_init], and of these only
     [insns] is mutable: the same physical program whose instructions
     are each still physically the snapshot's has the same facts.
     Atomic, as one instance may serve several domains; a lost update
     costs an analysis, never wrong facts. *)
  type known = {
    k_prog : Machine.Program.t;
    k_insns : Isa.insn array;
    k_facts : Fpvm.Vsa.analysis;
  }

  let known : known option Atomic.t = Atomic.make None

  let remember (prog : Machine.Program.t) a =
    Atomic.set known
      (Some
         { k_prog = prog;
           k_insns = Array.copy prog.Machine.Program.insns;
           k_facts = a });
    a

  let same_insns (snap : Isa.insn array) (insns : Isa.insn array) =
    Array.length snap = Array.length insns
    && Array.for_all2 (fun a b -> a == b) snap insns

  (* The facts a session of [prog] runs on: [?facts] if given, else the
     remembered ones if [prog] is the binary they were computed for,
     else a fresh analysis. Whatever is returned is remembered. *)
  let facts ?facts (prog : Machine.Program.t) : Fpvm.Vsa.analysis =
    match facts with
    | Some a -> remember prog a
    | None -> (
        match Atomic.get known with
        | Some k
          when k.k_prog == prog
               && same_insns k.k_insns prog.Machine.Program.insns ->
            k.k_facts
        | _ -> remember prog (Fpvm.Vsa.analyze prog))

  (* [E.prepare] with its facts from the remembered entry. *)
  let prepare ?facts:given ?artifacts ~config prog : E.session =
    E.prepare ~config ~facts:(facts ?facts:given prog) ?artifacts prog

  (* ---- checkpointing -------------------------------------------------- *)

  let capture ~(meta : Log.meta) ~seq (ses : E.session) : string =
    Snapshot.capture ~meta ~seq ~st:ses.E.st ~prog:ses.E.prog (E.capture ses)

  (* Prepare a fresh session and overwrite its mutable state from the
     blob. Returns the session and the event sequence number at which
     the checkpoint was taken. *)
  let restore ?facts ?artifacts ~config (prog : Machine.Program.t)
      (blob : string) : E.session * Log.meta * int =
    let ses = prepare ?facts ?artifacts ~config prog in
    let meta, seq =
      Snapshot.restore ~st:ses.E.st ~prog:ses.E.prog (E.restore ses) blob
    in
    (ses, meta, seq)

  (* ---- record ---------------------------------------------------------- *)

  let record ?(checkpoint_every = 0) ?facts ?instrument ?artifacts
      ~(meta : Log.meta) ~config (prog : Machine.Program.t) : recording =
    let ses = prepare ?facts ?artifacts ~config prog in
    let probe = E.probe ses.E.eng in
    (* Telemetry (lib/telemetry) installs on the on_tel/on_num channels,
       which the recorder does not use; installing it never changes
       what the recorder observes. *)
    Option.iter (fun f -> f probe) instrument;
    let scratch = Buffer.create 64 in
    let w = Log.writer meta in
    let seq = ref 0 in
    let pending = ref 0 in
    let cps = ref [] in
    let cp_bytes = ref 0 in
    (* Chained, not overwritten: a fleet scheduler may already be
       yielding on these channels; recording a guest mid-fleet must
       leave that hook in place. *)
    P.add_event probe (fun _st pev ->
        Log.add w (event_of_probe scratch ses !seq pev);
        incr seq;
        incr pending);
    if checkpoint_every > 0 then
      P.add_quiesce probe (fun _st ->
          if !pending >= checkpoint_every then begin
            pending := 0;
            let blob = capture ~meta ~seq:!seq ses in
            cp_bytes := !cp_bytes + String.length blob;
            cps := (!seq, blob) :: !cps;
            match probe.P.on_tel with
            | None -> ()
            | Some f ->
                f ses.E.st
                  (P.T_checkpoint { seq = !seq; bytes = String.length blob })
          end);
    let result = E.resume ses in
    let log_bytes = Log.contents w in
    let s = result.Fpvm.Engine.stats in
    s.Fpvm.Stats.replay_events <- !seq;
    s.Fpvm.Stats.replay_checkpoints <- List.length !cps;
    s.Fpvm.Stats.replay_checkpoint_bytes <- !cp_bytes;
    s.Fpvm.Stats.replay_log_bytes <- String.length log_bytes;
    { result; log = Log.of_writer w; log_bytes; checkpoints = List.rev !cps }

  (* ---- replay ----------------------------------------------------------- *)

  exception Divergence_stop of divergence

  (* Re-execute, validating every emitted event against the log. With
     [?checkpoint], execution starts from the restored state and
     validation from the checkpoint's sequence number. *)
  let replay ?checkpoint ?instrument ?facts ?artifacts ~config (log : Log.t)
      (prog : Machine.Program.t) : outcome =
    let ses, start_seq =
      match checkpoint with
      | None -> (prepare ?facts ?artifacts ~config prog, 0)
      | Some blob ->
          let ses, _meta, seq = restore ?facts ?artifacts ~config prog blob in
          (ses, seq)
    in
    (* After prepare/restore, so telemetry survives checkpoint restore
       (restore builds a fresh session whose sink starts empty). *)
    let probe = E.probe ses.E.eng in
    Option.iter (fun f -> f probe) instrument;
    let scratch = Buffer.create 64 in
    let seq = ref start_seq in
    let evs = log.Log.events in
    P.add_event probe (fun _st pev ->
        let got = event_of_probe scratch ses !seq pev in
        (if !seq >= Array.length evs then
           raise
             (Divergence_stop { at = !seq; expected = None; got = Some got })
         else
           let exp = evs.(!seq) in
           if not (Event.equal exp got) then
             raise
               (Divergence_stop
                  { at = !seq; expected = Some exp; got = Some got }));
        incr seq);
    match E.resume ses with
    | result ->
        if !seq < Array.length evs then
          Diverged { at = !seq; expected = Some evs.(!seq); got = None }
        else Match result
    | exception Divergence_stop d -> Diverged d

  (* Restore a checkpoint and run to completion with no validation. *)
  let resume_from ?instrument ?facts ?artifacts ~config
      (prog : Machine.Program.t) (blob : string) : Fpvm.Engine.result =
    let ses, _meta, _seq = restore ?facts ?artifacts ~config prog blob in
    Option.iter (fun f -> f (E.probe ses.E.eng)) instrument;
    E.resume ses
end

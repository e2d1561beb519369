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

  let memo_sentinel = Obj.repr "digest-memo-empty"

  (* Per-recording digest state. This used to live at functor level,
     which silently coupled every session built from one [Make (A)]
     application: two interleaved recordings thrashed each other's
     memo tables (a correctness hazard with the [==] check, since
     arena indices are per-engine), and two domains raced outright.
     [scratch] avoids one Buffer allocation per digested register;
     [memo_*] memoizes shadow-value digests per arena cell (registers
     barely change between consecutive events). Shadow values are
     immutable once allocated; the [==] check makes a reused cell
     (freed, then re-allocated) miss, and a stale hit is impossible —
     a physically identical value digests identically by construction.
     [dec_*] memoizes per-site decodes separately from the engine's
     decode cache, keeping the engine's hit/miss counters — part of
     the deterministic stats — untouched by recording. *)
  type dctx = {
    scratch : Buffer.t;
    mutable memo_obj : Obj.t array;
    mutable memo_dig : int64 array;
    mutable dec_seen : Bytes.t;
    mutable dec_tab : Fpvm.Decoder.decoded option array;
  }

  let dctx () =
    { scratch = Buffer.create 64;
      memo_obj = [||];
      memo_dig = [||];
      dec_seen = Bytes.empty;
      dec_tab = [||] }

  let memo_ensure ctx idx =
    if idx >= Array.length ctx.memo_obj then begin
      let n = max 1024 (2 * (idx + 1)) in
      let o = Array.make n memo_sentinel and d = Array.make n 0L in
      Array.blit ctx.memo_obj 0 o 0 (Array.length ctx.memo_obj);
      Array.blit ctx.memo_dig 0 d 0 (Array.length ctx.memo_dig);
      ctx.memo_obj <- o;
      ctx.memo_dig <- d
    end

  (* Raw bits for unboxed values; the digest of the *encoded shadow
     value* for boxes. *)
  let value_digest ctx (eng : E.t) (bits : int64) : int64 =
    if Fpvm.Nanbox.is_boxed bits then begin
      let idx = Fpvm.Nanbox.unbox bits in
      if idx >= Fpvm.Plan.temp_base then
        (* In-trace shadow temp: digest the scratch value behind it, so
           a mid-trace digest of a register holding a temp matches the
           same register holding the equivalent real box (temps are an
           allocation-strategy artifact, like arena indices). No memo:
           scratch slots recycle every trace. *)
        match E.temp_value eng bits with
        | Some v ->
            Buffer.clear ctx.scratch;
            A.encode_value ctx.scratch v;
            Codec.fnv64 Codec.fnv_basis (Buffer.contents ctx.scratch)
        | None -> dangling_digest
      else if Fpvm.Arena.is_live (E.arena eng) idx then begin
        let v = Fpvm.Arena.value (E.arena eng) idx in
        let o = Obj.repr v in
        memo_ensure ctx idx;
        if ctx.memo_obj.(idx) == o then ctx.memo_dig.(idx)
        else begin
          Buffer.clear ctx.scratch;
          A.encode_value ctx.scratch v;
          let d = Codec.fnv64 Codec.fnv_basis (Buffer.contents ctx.scratch) in
          ctx.memo_obj.(idx) <- o;
          ctx.memo_dig.(idx) <- d;
          d
        end
      end
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

  let[@inline] mix_reg ctx eng h bits =
    if Fpvm.Nanbox.is_boxed bits then mix h (value_digest ctx eng bits)
    else mix h bits

  let arch_digest ctx (eng : E.t) (st : State.t) : int64 =
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
      h := mix_reg ctx eng !h st.State.gpr.(i)
    done;
    for i = 0 to 31 do
      h := mix_reg ctx eng !h st.State.xmm.(i)
    done;
    Int64.of_int !h

  (* ---- event construction -------------------------------------------- *)

  let operand_lane0 (st : State.t) (o : Isa.operand) : int64 =
    match o with
    | Isa.Xmm i -> State.get_xmm st i 0
    | Isa.Reg r -> State.get_gpr st r
    | Isa.Imm v -> v
    | Isa.Mem m -> ( try State.load64 st (State.ea st m) with _ -> 0L)

  (* Faults cluster on a handful of static sites, so decode each site
     once per program (the context is per-session, so the table is
     always for this session's program copy). Decoding is
     wrapper-transparent, so sites patched after first decode still
     memo correctly. *)
  let decode_memo ctx (prog : Machine.Program.t) idx =
    (if Bytes.length ctx.dec_seen = 0 then begin
       let n = Array.length prog.Machine.Program.insns in
       ctx.dec_seen <- Bytes.make n '\000';
       ctx.dec_tab <- Array.make n None
     end);
    if Bytes.get ctx.dec_seen idx = '\001' then ctx.dec_tab.(idx)
    else begin
      let d = Fpvm.Decoder.decode_insn prog.Machine.Program.insns.(idx) in
      Bytes.set ctx.dec_seen idx '\001';
      ctx.dec_tab.(idx) <- d;
      d
    end

  let fault_operands ctx (eng : E.t) (st : State.t) (prog : Machine.Program.t)
      index =
    if index < 0 || index >= Array.length prog.Machine.Program.insns then
      (0, 0L, 0L)
    else
      match decode_memo ctx prog index with
      | None -> (0, 0L, 0L)
      | Some d ->
          let dstb = operand_lane0 st d.Fpvm.Decoder.dst in
          let srcb = operand_lane0 st d.Fpvm.Decoder.src in
          let boxed =
            (if Fpvm.Nanbox.is_boxed dstb then 1 else 0)
            lor if Fpvm.Nanbox.is_boxed srcb then 2 else 0
          in
          (boxed, value_digest ctx eng dstb, value_digest ctx eng srcb)

  let event_of_probe ctx (ses : E.session) seq (pev : P.event) : Event.t =
    let st = ses.E.st in
    let chk = arch_digest ctx ses.E.eng st in
    let kind =
      match pev with
      | P.Fp_trap { index; events } ->
          let boxed, dst, src =
            fault_operands ctx ses.E.eng st ses.E.prog index
          in
          Event.Fp_trap { index; events; boxed; dst; src }
      | P.Absorbed { index; events } ->
          let boxed, dst, src =
            fault_operands ctx ses.E.eng st ses.E.prog index
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
    let ctx = dctx () in
    let w = Log.writer meta in
    let seq = ref 0 in
    let pending = ref 0 in
    let cps = ref [] in
    let cp_bytes = ref 0 in
    (* Chained, not overwritten: a fleet scheduler may already be
       yielding on these channels; recording a guest mid-fleet must
       leave that hook in place. *)
    P.add_event probe (fun _st pev ->
        Log.add w (event_of_probe ctx ses !seq pev);
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
    let ctx = dctx () in
    let seq = ref start_seq in
    let evs = log.Log.events in
    P.add_event probe (fun _st pev ->
        let got = event_of_probe ctx ses !seq pev in
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

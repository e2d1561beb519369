(* Checkpoint capture and restore: the envelope.

   A checkpoint is the complete mutable state of a prepared session at
   a quiesce point. Restoring overwrites a *freshly prepared* session
   for the same program and config — [Engine.Make(A).prepare] is
   deterministic, so everything not serialized here (hooks, analysis
   patches, code layout) is reproduced by construction and only the
   mutable run state needs the bytes.

   Layout: "FPVMCKP1", u32 version, meta + sequence number, program
   sanity header, machine state (registers, memory, flags, %mxcsr,
   counters, output channels, dirty-card set), the engine's section,
   then an FNV-1a checksum of everything before it (verified before any
   field is applied). The engine's section (stats, GC epoch, decode
   cache, plans, JIT, trap-and-patch rewrites, shadow arena, kernel
   accounting) is written and read by [Engine.Make(A).capture] and
   [restore], passed in here as one function each, so this module
   knows nothing of the engine or of the arithmetic port. *)

module State = Machine.State
module Mx = Ieee754.Mxcsr

let magic = "FPVMCKP1"

(* v2: arena free/young sets are int stacks (array + depth) rather than
   lists; the engine stats tail gained the site-specialization counters;
   a plan-sites section records which sites held a compiled binding
   plan (restore reseeds them so the resumed run replays the original's
   plan hit/miss — and cycle — stream exactly).

   v3: the trace JIT. The stats tail gains the jit counters, and a jit
   section records the per-head hot counters plus the recorded
   (index, absorbed) windows every compiled superblock was built from —
   restore recompiles the blocks silently so a resumed run replays the
   original's jit hit/link/guard-exit — and hence cycle — stream
   exactly.

   v4: checkpoints hold state only. The stats tail loses the host-clock
   [gc_latency_s], which made two recordings of one run differ, and the
   decode-cache section its always-true flag byte. *)
let version = 4

(* ---- machine state --------------------------------------------------- *)

let encode_state b (st : State.t) =
  Codec.varint b st.State.rip;
  Codec.bool_ b st.State.halted;
  Codec.bool_ b st.State.track_writes;
  Codec.u8 b
    ((if st.State.zf then 1 else 0)
    lor (if st.State.sf then 2 else 0)
    lor (if st.State.cf then 4 else 0)
    lor (if st.State.of_ then 8 else 0)
    lor if st.State.pf then 16 else 0);
  Codec.u32 b (Mx.to_bits st.State.mxcsr);
  Codec.i64 b (Int64.of_int st.State.cycles);
  Codec.varint b st.State.insn_count;
  Codec.varint b st.State.fp_insn_count;
  Codec.varint b st.State.heap_ptr;
  for i = 0 to 15 do
    Codec.i64 b st.State.gpr.(i)
  done;
  for i = 0 to 31 do
    Codec.i64 b st.State.xmm.(i)
  done;
  Codec.bytes_rle b st;
  Codec.varint b st.State.dirty_count;
  List.iter (fun c -> Codec.varint b c) st.State.dirty_cards;
  Codec.str b (Buffer.contents st.State.out);
  Codec.str b (Buffer.contents st.State.serialized)

let restore_state s pos (st : State.t) =
  st.State.rip <- Codec.r_varint s pos;
  st.State.halted <- Codec.r_bool s pos;
  st.State.track_writes <- Codec.r_bool s pos;
  let fl = Codec.r_u8 s pos in
  st.State.zf <- fl land 1 <> 0;
  st.State.sf <- fl land 2 <> 0;
  st.State.cf <- fl land 4 <> 0;
  st.State.of_ <- fl land 8 <> 0;
  st.State.pf <- fl land 16 <> 0;
  st.State.mxcsr.Mx.bits <- Codec.r_u32 s pos;
  st.State.cycles <- Int64.to_int (Codec.r_i64 s pos);
  st.State.insn_count <- Codec.r_varint s pos;
  st.State.fp_insn_count <- Codec.r_varint s pos;
  st.State.heap_ptr <- Codec.r_varint s pos;
  for i = 0 to 15 do
    st.State.gpr.(i) <- Codec.r_i64 s pos
  done;
  for i = 0 to 31 do
    st.State.xmm.(i) <- Codec.r_i64 s pos
  done;
  (* straight into the fresh machine's pages; the image must claim its
     memory size *)
  Codec.r_bytes_rle_into s pos st;
  let ncards = Codec.r_count s pos in
  let cards = List.init ncards (fun _ -> Codec.r_varint s pos) in
  Bytes.fill st.State.dirty_map 0 (Bytes.length st.State.dirty_map) '\000';
  List.iter
    (fun c ->
      if c < 0 || c >= Bytes.length st.State.dirty_map then
        Codec.corrupt "dirty card %d out of range" c;
      (* a card is listed once, at its first write; a repeat would be
         scanned twice by the next incremental GC pass *)
      if Bytes.get st.State.dirty_map c <> '\000' then
        Codec.corrupt "dirty card %d repeats" c;
      Bytes.set st.State.dirty_map c '\001')
    cards;
  st.State.dirty_cards <- cards;
  st.State.dirty_count <- ncards;
  Buffer.clear st.State.out;
  Buffer.add_string st.State.out (Codec.r_str s pos);
  Buffer.clear st.State.serialized;
  Buffer.add_string st.State.serialized (Codec.r_str s pos)

(* ---- capture / restore ----------------------------------------------- *)

let capture ~(meta : Log.meta) ~seq ~(st : State.t) ~(prog : Machine.Program.t)
    (engine : Buffer.t -> unit) : string =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b magic;
  Codec.u32 b version;
  Log.encode_meta b meta;
  Codec.varint b seq;
  (* program sanity header *)
  Codec.str b prog.Machine.Program.name;
  Codec.varint b (Array.length prog.Machine.Program.insns);
  encode_state b st;
  engine b;
  (* trailer checksum over everything above *)
  Codec.with_fnv_trailer b

(* Integrity first: nothing is read from a damaged checkpoint. The
   position of the meta, past the magic and the version. *)
let verified blob =
  if String.length blob < String.length magic + 8 then
    Codec.corrupt "checkpoint too short";
  if String.sub blob 0 (String.length magic) <> magic then
    Codec.corrupt "not an FPVM checkpoint (bad magic)";
  let body_len = String.length blob - 8 in
  let sum = String.get_int64_le blob body_len in
  if not (Int64.equal sum (Codec.fnv64_sub Codec.fnv_basis blob 0 body_len))
  then Codec.corrupt "checkpoint checksum mismatch (corrupted file)";
  let pos = ref (String.length magic) in
  let v = Codec.r_u32 blob pos in
  if v <> version then Codec.corrupt "unsupported checkpoint version %d" v;
  pos

(* The meta the checkpoint was recorded under, read after the integrity
   checks [restore] runs. *)
let meta blob = Log.decode_meta blob (verified blob)

(* The meta and event sequence number the checkpoint was taken at. *)
let restore ~(st : State.t) ~(prog : Machine.Program.t)
    (engine : string -> int ref -> unit) (blob : string) : Log.meta * int =
  let pos = verified blob in
  let body_len = String.length blob - 8 in
  let meta = Log.decode_meta blob pos in
  let seq = Codec.r_varint blob pos in
  let pname = Codec.r_str blob pos in
  let ninsns = Codec.r_varint blob pos in
  if
    pname <> prog.Machine.Program.name
    || ninsns <> Array.length prog.Machine.Program.insns
  then
    Codec.corrupt "checkpoint is for %S (%d insns), session runs %S (%d)"
      pname ninsns prog.Machine.Program.name
      (Array.length prog.Machine.Program.insns);
  restore_state blob pos st;
  engine blob pos;
  if !pos <> body_len then Codec.corrupt "trailing bytes in checkpoint";
  (meta, seq)

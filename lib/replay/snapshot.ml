(* Checkpoint capture and restore.

   A checkpoint is the complete mutable state of a prepared session at
   a quiesce point: machine state (registers, memory, flags, %mxcsr,
   counters, output channels, dirty-card set), the shadow arena with
   every live value exactly encoded, engine bookkeeping (stats, GC
   epoch, decode cache, trap-and-patch rewrites), and the simulated
   kernel's accounting. Restoring overwrites a *freshly prepared*
   session for the same program and config — [Engine.Make(A).prepare]
   is deterministic, so everything not serialized here (hooks, analysis
   patches, code layout) is reproduced by construction and only the
   mutable run state needs the bytes.

   Layout: "FPVMCKP1", u32 version, meta + sequence number, program
   sanity header, machine / engine / arena / kernel sections, then an
   FNV-1a checksum of everything before it (verified before any field
   is applied).

   The value codec is passed in ([enc]/[dec]) so this module stays
   independent of which arithmetic port the engine was built with. *)

module State = Machine.State
module Isa = Machine.Isa
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
   restore recompiles the blocks silently (Engine.set_jit_state) so a
   resumed run replays the original's jit hit/link/guard-exit — and
   hence cycle — stream exactly. *)
let version = 3

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

(* ---- engine statistics ----------------------------------------------- *)

(* Every checkpointed metric as an i64, in Stats table order (the order
   is the format), then the host-clock gc_latency_s. *)
let checkpointed = List.filter Fpvm.Stats.in_checkpoint Fpvm.Stats.metrics

let encode_stats b (s : Fpvm.Stats.t) =
  List.iter
    (fun (m : Fpvm.Stats.metric) -> Codec.i64 b (Int64.of_int (m.get s)))
    checkpointed;
  Codec.i64 b (Int64.bits_of_float s.Fpvm.Stats.gc_latency_s)

let restore_stats s pos (t : Fpvm.Stats.t) =
  List.iter
    (fun (m : Fpvm.Stats.metric) -> m.set t (Int64.to_int (Codec.r_i64 s pos)))
    checkpointed;
  t.Fpvm.Stats.gc_latency_s <- Int64.float_of_bits (Codec.r_i64 s pos)

(* ---- capture / restore ----------------------------------------------- *)

let capture ~(meta : Log.meta) ~seq ~enc ~(st : State.t)
    ~(arena : 'v Fpvm.Arena.t) ~(stats : Fpvm.Stats.t)
    ~(cache : Fpvm.Decoder.cache) ~(plan_sites : int list)
    ~(jit_counters : (int * int) list)
    ~(jit_paths : (int * (int * bool) array) list)
    ~(kern : Trapkern.t) ~(prog : Machine.Program.t) ~since_gc ~gc_count
    ~patch_sites : string =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b magic;
  Codec.u32 b version;
  Log.encode_meta b meta;
  Codec.varint b seq;
  (* program sanity header *)
  Codec.str b prog.Machine.Program.name;
  Codec.varint b (Array.length prog.Machine.Program.insns);
  encode_state b st;
  (* engine *)
  Codec.varint b since_gc;
  Codec.varint b gc_count;
  Codec.varint b patch_sites;
  encode_stats b stats;
  (* decode cache: a flag byte (the cache can no longer be disabled, so
     it is always true), counters, cached instruction indices (the
     decoded entries are reproduced by re-decoding on restore) *)
  Codec.bool_ b true;
  Codec.varint b cache.Fpvm.Decoder.hits;
  Codec.varint b cache.Fpvm.Decoder.misses;
  let cached =
    List.sort compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) cache.Fpvm.Decoder.table [])
  in
  Codec.varint b (List.length cached);
  List.iter (fun i -> Codec.varint b i) cached;
  (* binding-plan table: like the decode cache, only the key set is
     recorded (plans are closures; restore recompiles them) *)
  Codec.varint b (List.length plan_sites);
  List.iter (fun i -> Codec.varint b i) plan_sites;
  (* v3 trace JIT: per-head hot counters, then each compiled head's
     recorded (index, absorbed) window (blocks are closures; restore
     recompiles them from these paths) *)
  Codec.varint b (List.length jit_counters);
  List.iter
    (fun (h, n) ->
      Codec.varint b h;
      Codec.varint b n)
    jit_counters;
  Codec.varint b (List.length jit_paths);
  List.iter
    (fun (h, path) ->
      Codec.varint b h;
      Codec.varint b (Array.length path);
      Array.iter
        (fun (i, absorbed) ->
          Codec.varint b i;
          Codec.bool_ b absorbed)
        path)
    jit_paths;
  (* trap-and-patch rewrites in the working binary *)
  let patched = ref [] in
  Array.iteri
    (fun i insn ->
      match insn with
      | Isa.Patched { site_id; _ } -> patched := (i, site_id) :: !patched
      | _ -> ())
    prog.Machine.Program.insns;
  let patched = List.rev !patched in
  Codec.varint b (List.length patched);
  List.iter
    (fun (i, site) ->
      Codec.varint b i;
      Codec.varint b site)
    patched;
  Fpvm.Arena.encode enc b arena;
  (* simulated kernel accounting *)
  Codec.varint b kern.Trapkern.fpe_count;
  Codec.varint b kern.Trapkern.trap_count;
  Codec.varint b kern.Trapkern.trace_exit_count;
  Codec.i64 b (Int64.of_int kern.Trapkern.hw_cycles);
  Codec.i64 b (Int64.of_int kern.Trapkern.kernel_cycles);
  Codec.i64 b (Int64.of_int kern.Trapkern.user_cycles);
  (* trailer checksum over everything above *)
  Codec.with_fnv_trailer b

type restored = { r_meta : Log.meta; r_seq : int; r_since_gc : int;
                  r_gc_count : int; r_patch_sites : int;
                  r_plan_sites : int list;
                      (* sites whose binding plans the caller must
                         reseed (Engine.seed_plan), after the patched
                         rewrites above have been re-applied *)
                  r_jit_counters : (int * int) list;
                  r_jit_paths : (int * (int * bool) array) list
                      (* hot-counter and recorded-window state the
                         caller must hand to Engine.set_jit_state —
                         after plan reseeding, which block compilation
                         depends on *) }

let restore ~dec ~(st : State.t) ~(arena : 'v Fpvm.Arena.t)
    ~(stats : Fpvm.Stats.t) ~(cache : Fpvm.Decoder.cache)
    ~(kern : Trapkern.t) ~(prog : Machine.Program.t) (blob : string) :
    restored =
  (* integrity first: nothing is applied from a damaged checkpoint *)
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
  let r_meta = Log.decode_meta blob pos in
  let r_seq = Codec.r_varint blob pos in
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
  let r_since_gc = Codec.r_varint blob pos in
  let r_gc_count = Codec.r_varint blob pos in
  let r_patch_sites = Codec.r_varint blob pos in
  restore_stats blob pos stats;
  if not (Codec.r_bool blob pos) then
    Codec.corrupt "checkpoint has the decode cache disabled";
  let hits = Codec.r_varint blob pos in
  let misses = Codec.r_varint blob pos in
  let ncached = Codec.r_count blob pos in
  let cached = List.init ncached (fun _ -> Codec.r_varint blob pos) in
  let nplans = Codec.r_count blob pos in
  let r_plan_sites = List.init nplans (fun _ -> Codec.r_varint blob pos) in
  let ncounters = Codec.r_count ~per:2 blob pos in
  let r_jit_counters =
    List.init ncounters (fun _ ->
        let h = Codec.r_varint blob pos in
        let n = Codec.r_varint blob pos in
        (h, n))
  in
  let njit = Codec.r_count ~per:2 blob pos in
  let r_jit_paths =
    List.init njit (fun _ ->
        let h = Codec.r_varint blob pos in
        (* a varint index and a bool per step *)
        let len = Codec.r_count ~per:2 blob pos in
        let path =
          Array.init len (fun _ ->
              let i = Codec.r_varint blob pos in
              let absorbed = Codec.r_bool blob pos in
              (i, absorbed))
        in
        (h, path))
  in
  let npatched = Codec.r_count ~per:2 blob pos in
  let patched =
    List.init npatched (fun _ ->
        let i = Codec.r_varint blob pos in
        let site = Codec.r_varint blob pos in
        (i, site))
  in
  (* re-apply trap-and-patch rewrites to the fresh working binary
     before repopulating the decode cache (decode unwraps them) *)
  List.iter
    (fun (i, site_id) ->
      if i < 0 || i >= Array.length prog.Machine.Program.insns then
        Codec.corrupt "patched site %d out of range" i;
      match prog.Machine.Program.insns.(i) with
      | Isa.Patched _ -> ()
      | original ->
          prog.Machine.Program.insns.(i) <- Isa.Patched { site_id; original })
    patched;
  Hashtbl.reset cache.Fpvm.Decoder.table;
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length prog.Machine.Program.insns then
        Codec.corrupt "cached decode index %d out of range" i;
      ignore
        (Fpvm.Decoder.decode cache i prog.Machine.Program.insns.(i)))
    cached;
  cache.Fpvm.Decoder.hits <- hits;
  cache.Fpvm.Decoder.misses <- misses;
  Fpvm.Arena.restore dec blob pos arena;
  kern.Trapkern.fpe_count <- Codec.r_varint blob pos;
  kern.Trapkern.trap_count <- Codec.r_varint blob pos;
  kern.Trapkern.trace_exit_count <- Codec.r_varint blob pos;
  kern.Trapkern.hw_cycles <- Int64.to_int (Codec.r_i64 blob pos);
  kern.Trapkern.kernel_cycles <- Int64.to_int (Codec.r_i64 blob pos);
  kern.Trapkern.user_cycles <- Int64.to_int (Codec.r_i64 blob pos);
  if !pos <> body_len then Codec.corrupt "trailing bytes in checkpoint";
  { r_meta; r_seq; r_since_gc; r_gc_count; r_patch_sites; r_plan_sites;
    r_jit_counters; r_jit_paths }

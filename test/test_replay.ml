(* lib/replay tests.

   Three layers: the wire codec (property roundtrips + corruption
   rejection), the event/log format, and whole-engine determinism —
   record -> replay must Match on every port and GC mode, a mid-run
   checkpoint must restore and resume to the uninterrupted run's exact
   result, and the bisector must pin an injected divergence to the
   exact event. *)

module W = Workloads
module Wire = Fpvm.Wire

let q name ?(count = 500) arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED10 |])
    (QCheck.Test.make ~count ~name arb law)

(* ---- codec roundtrips ------------------------------------------------- *)

let roundtrip enc dec v =
  let b = Buffer.create 32 in
  enc b v;
  let s = Buffer.contents b in
  let pos = ref 0 in
  let v' = dec s pos in
  v' = v && !pos = String.length s

let arb_nat =
  QCheck.make
    ~print:(fun n -> Bignum.Nat.to_string n)
    QCheck.Gen.(
      map
        (fun (a, b, c) ->
          Bignum.Nat.of_string
            (Printf.sprintf "%u%u%u" (abs a) (abs b) (abs c)))
        (triple int int int))

(* byte strings with long zero runs, the case bytes_rle exists for *)
let arb_sparse_bytes =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%d bytes" (Bytes.length s))
    QCheck.Gen.(
      map
        (fun segs ->
          let b = Buffer.create 256 in
          List.iter
            (fun (zeros, lit) ->
              Buffer.add_string b (String.make (zeros mod 200) '\000');
              Buffer.add_string b lit)
            segs;
          Buffer.to_bytes b)
        (small_list (pair small_nat (small_string ~gen:char))))

module State = Machine.State

let encoded enc v =
  let b = Buffer.create 64 in
  enc b v;
  Buffer.contents b

(* A machine whose memory is [by]: a program of that memory size with no
   data segment, every nonzero byte stored, and a zero stored at the
   start of each page in [zero_pages] (written pages that hold only
   zeros). *)
let machine_of ?(zero_pages = []) by =
  let b = Machine.Program.create ~name:"image" ~mem_size:(Bytes.length by) () in
  Machine.Program.emit b Machine.Isa.Halt;
  let st = State.create (Machine.Program.finish b) in
  Bytes.iteri
    (fun a c -> if c <> '\000' then State.store8 st a (Int64.of_int (Char.code c)))
    by;
  List.iter (fun p -> State.store8 st (p * State.page_size) 0L) zero_pages;
  st

(* The machine's memory read back byte by byte. *)
let memory_of st =
  Bytes.init st.State.mem_size (fun a -> Char.chr (Int64.to_int (State.load8 st a)))

let codec_tests =
  [ q "varint roundtrip" QCheck.(map abs int) (fun n ->
        roundtrip Wire.varint Wire.r_varint n);
    q "zint roundtrip" QCheck.int (fun n ->
        roundtrip Wire.zint Wire.r_zint n);
    q "i64 roundtrip"
      QCheck.(map Int64.of_int int)
      (fun v -> roundtrip Wire.i64 Wire.r_i64 v);
    q "str roundtrip" QCheck.string (fun s ->
        roundtrip Wire.str Wire.r_str s);
    q "nat roundtrip" arb_nat (fun n ->
        let b = Buffer.create 32 in
        Wire.nat b n;
        let s = Buffer.contents b in
        let pos = ref 0 in
        Bignum.Nat.equal (Wire.r_nat s pos) n && !pos = String.length s);
    q "bytes_rle roundtrip" arb_sparse_bytes (fun by ->
        let st = machine_of by in
        let s = encoded Wire.bytes_rle st in
        let pos = ref 0 in
        (* over a dirty destination: zero runs must be written too *)
        let dst = State.create st.State.prog in
        for a = 0 to Bytes.length by - 1 do
          State.store8 dst a 0xA5L
        done;
        Wire.r_bytes_rle_into s pos dst;
        memory_of dst = by && !pos = String.length s);
    q "varint rejects truncation" QCheck.(map abs int) (fun n ->
        let b = Buffer.create 16 in
        Wire.varint b n;
        let s = Buffer.contents b in
        String.length s = 1
        ||
        let cut = String.sub s 0 (String.length s - 1) in
        match Wire.r_varint cut (ref 0) with
        | _ -> false
        | exception Wire.Corrupt _ -> true);
    Alcotest.test_case "a string length that is negative or overflows is rejected"
      `Quick (fun () ->
        (* nine varint bytes carry 63 bits: -1, and max_int, which
           overflows the position it is added to *)
        List.iter
          (fun len ->
            let s = len ^ "payload" in
            match Wire.r_str s (ref 0) with
            | _ -> Alcotest.failf "length %S accepted" len
            | exception Wire.Corrupt _ -> ())
          [ String.make 8 '\xff' ^ "\x7f"; String.make 8 '\xff' ^ "\x3f" ]) ]

(* ---- same bytes as the reference encoders ------------------------------

   The codec's writers were rewritten for speed under a same-bytes
   contract. The encoders they replaced are kept here verbatim as
   oracles; [bytes_rle_ref] encodes a flat image, as checkpoints did
   before memory was paged. *)

let bytes_rle_ref b (src : Bytes.t) =
  let n = Bytes.length src in
  Wire.varint b n;
  let zeros_at i =
    let j = ref i in
    while !j < n && Bytes.get src !j = '\000' do
      incr j
    done;
    !j - i
  in
  let i = ref 0 in
  while !i < n do
    let z = zeros_at !i in
    let lit_start = !i + z in
    (* extend the literal until a zero span worth encoding *)
    let j = ref lit_start in
    let stop = ref false in
    while (not !stop) && !j < n do
      if Bytes.get src !j = '\000' then begin
        let z' = zeros_at !j in
        if z' >= 16 || !j + z' = n then stop := true else j := !j + z'
      end
      else incr j
    done;
    Wire.varint b z;
    Wire.varint b (!j - lit_start);
    Buffer.add_subbytes b src lit_start (!j - lit_start);
    i := !j
  done

let nat_ref b (n : Bignum.Nat.t) =
  let bits = Bignum.Nat.num_bits n in
  Wire.varint b bits;
  let i = ref 0 in
  while !i < bits do
    Wire.u32 b (Bignum.Nat.to_int (Bignum.Nat.extract_bits n ~lo:!i ~len:32));
    i := !i + 32
  done

let fnv_ref h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

(* The encoder checkpoints use, over [st]'s pages, against the byte loop
   over its memory read back; and the image decoded into a fresh
   machine of the same program gives back every byte. *)
let encodes_as_flat st =
  let flat = memory_of st in
  let s = encoded Wire.bytes_rle st in
  let fresh = State.create st.State.prog in
  let pos = ref 0 in
  Wire.r_bytes_rle_into s pos fresh;
  s = encoded bytes_rle_ref flat && !pos = String.length s && memory_of fresh = flat

let same_rle ?zero_pages by = encodes_as_flat (machine_of ?zero_pages by)

(* Zero runs at and around the word scan's thresholds (7/8/9 bytes: one
   word; 15/16/17: the literal cut-off; 31/32/33: one 4-word step),
   between non-zero literals, at a random misalignment. *)
let boundary_run = QCheck.Gen.oneofl [ 0; 1; 7; 8; 9; 15; 16; 17; 31; 32; 33; 64; 65 ]

let arb_rle_bytes =
  QCheck.make
    ~print:(fun s -> String.escaped (Bytes.to_string s))
    QCheck.Gen.(
      let lit = string_size ~gen:(map Char.chr (int_range 1 255)) (int_bound 12) in
      map
        (fun (pad, segs, tail) ->
          let b = Buffer.create 256 in
          Buffer.add_string b (String.make pad '\001');
          List.iter
            (fun (zeros, l) ->
              Buffer.add_string b (String.make zeros '\000');
              Buffer.add_string b l)
            segs;
          Buffer.add_string b (String.make tail '\000');
          Buffer.to_bytes b)
        (triple (int_bound 7)
           (list_size (int_bound 8) (pair boundary_run lit))
           (oneof [ return 0; boundary_run; int_bound 100 ])))

(* Images of a few pages (the last one maybe partial), each all zeros or
   holding an [arb_rle_bytes] run at its start, its end or in between,
   so zero and literal runs cross page edges; with some pages written
   but holding only zeros. *)
let arb_paged_image =
  let ps = State.page_size in
  QCheck.make
    ~print:(fun (by, zero_pages) ->
      Printf.sprintf "%d bytes, zero pages written [%s]" (Bytes.length by)
        (String.concat "; " (List.map string_of_int zero_pages)))
    QCheck.Gen.(
      let page =
        pair bool
          (opt (pair (QCheck.gen arb_rle_bytes) (oneofl [ `Start; `End; `At ]))
          )
      in
      map
        (fun (pages, last, at) ->
          let n = List.length pages in
          let size = ((n - 1) * ps) + max 1 last in
          let by = Bytes.make size '\000' in
          List.iteri
            (fun k (_, content) ->
              match content with
              | None -> ()
              | Some (c, where) ->
                  let lim = min ps (size - (k * ps)) in
                  let len = min (Bytes.length c) lim in
                  let off =
                    match where with
                    | `Start -> 0
                    | `End -> lim - len
                    | `At -> at mod (lim - len + 1)
                  in
                  Bytes.blit c 0 by ((k * ps) + off) len)
            pages;
          let zero_pages =
            List.concat
              (List.mapi (fun k (extra, _) -> if extra then [ k ] else []) pages)
          in
          (by, zero_pages))
        (triple (list_size (int_range 1 5) page) (int_bound ps) nat))

let same_bytes_tests =
  [ q "bytes_rle = bytewise encoder" ~count:2000 arb_rle_bytes (fun by -> same_rle by);
    q "bytes_rle = bytewise encoder (sparse)" arb_sparse_bytes (fun by -> same_rle by);
    q "bytes_rle = bytewise encoder (written pages)" arb_paged_image
      (fun (by, zero_pages) -> same_rle ~zero_pages by);
    Alcotest.test_case "bytes_rle = bytewise encoder (every offset)" `Quick
      (fun () ->
        List.iter
          (fun run ->
            for off = 0 to 15 do
              for tail = 0 to 9 do
                (* literal, zero run at [off], then [tail] literal bytes;
                   tail 0 makes the run trailing *)
                let by = Bytes.make (off + run + tail) '\007' in
                Bytes.fill by off run '\000';
                if not (same_rle by) then
                  Alcotest.failf "run %d at offset %d, tail %d" run off tail
              done
            done)
          [ 1; 2; 7; 8; 9; 15; 16; 17; 24; 31; 32; 33; 40; 63; 64; 65 ];
        for n = 0 to 80 do
          if not (same_rle (Bytes.make n '\000')) then
            Alcotest.failf "all-zero, %d bytes" n;
          if not (same_rle (Bytes.make n '\255')) then
            Alcotest.failf "all-nonzero, %d bytes" n
        done);
    Alcotest.test_case "FNV-1a-64 vectors" `Quick (fun () ->
        List.iter
          (fun (s, h) ->
            Alcotest.(check int64) s h (Wire.fnv64 Wire.fnv_basis s);
            Alcotest.(check int64) s h (fnv_ref Wire.fnv_basis s))
          [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL);
            ("foobar", 0x85944171f73967e8L) ];
        Alcotest.check_raises "slice out of range"
          (Invalid_argument "Wire.fnv64_sub") (fun () ->
            ignore (Wire.fnv64_sub Wire.fnv_basis "abc" 2 2)));
    q "fnv64 / fnv64_sub = byte loop"
      QCheck.(triple string small_nat small_nat)
      (fun (s, off, len) ->
        let off = min off (String.length s) in
        let len = min len (String.length s - off) in
        Wire.fnv64 Wire.fnv_basis s = fnv_ref Wire.fnv_basis s
        && Wire.fnv64_sub Wire.fnv_basis s off len
           = fnv_ref Wire.fnv_basis (String.sub s off len));
    q "fnv64_i64 = byte loop over its little-endian bytes"
      QCheck.(pair (map Int64.of_int int) (map Int64.of_int int))
      (fun (h, v) ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 v;
        Wire.fnv64_i64 h v = fnv_ref h (Bytes.to_string b));
    q "nat = limb-extracting encoder"
      QCheck.(pair arb_nat (int_bound 300))
      (fun (n, k) ->
        let n = Bignum.Nat.shift_left n k in
        let s = encoded Wire.nat n in
        s = encoded nat_ref n
        && Bignum.Nat.equal (Wire.r_nat s (ref 0)) n) ]

(* ---- shadow-value codecs ---------------------------------------------- *)

(* decode must invert encode exactly: the decoded value re-encodes to
   the same bytes and demotes to the same binary64 *)
let value_roundtrip (module A : Fpvm.Arith.S) bits =
  let v = A.promote bits in
  let b = Buffer.create 32 in
  A.encode_value b v;
  let s = Buffer.contents b in
  let pos = ref 0 in
  let v' = A.decode_value s pos in
  let b' = Buffer.create 32 in
  A.encode_value b' v';
  !pos = String.length s
  && Buffer.contents b' = s
  && Int64.equal (A.demote v') (A.demote v)

let arb_f64_bits =
  QCheck.make
    ~print:(fun v -> Printf.sprintf "%h (%Lx)" (Int64.float_of_bits v) v)
    QCheck.Gen.(
      map
        (fun (i, j) ->
          Int64.logor
            (Int64.shift_left (Int64.of_int i) 32)
            (Int64.of_int (j land 0xFFFFFFFF)))
        (pair int int))

let value_tests =
  [ q "vanilla value codec" arb_f64_bits
      (value_roundtrip (module Fpvm.Alt_vanilla));
    q "mpfr value codec" arb_f64_bits
      (value_roundtrip (module Fpvm.Alt_mpfr));
    q "posit value codec" arb_f64_bits
      (value_roundtrip (module Fpvm.Alt_posit));
    q "interval value codec" arb_f64_bits
      (value_roundtrip (module Fpvm.Alt_interval));
    q "slash value codec" arb_f64_bits
      (value_roundtrip (module Fpvm.Alt_slash)) ]

(* ---- event + log codec ------------------------------------------------ *)

let arb_event =
  let open QCheck.Gen in
  let kind =
    frequency
      [ (3,
         map
           (fun (index, events, boxed) ->
             Replay.Event.Fp_trap
               { index; events = events land 0x3F; boxed = boxed land 3;
                 dst = Int64.of_int index; src = Int64.of_int events })
           (triple small_nat small_nat small_nat));
        (3,
         map
           (fun (index, events) ->
             Replay.Event.Absorbed
               { index; events = events land 0x3F; boxed = 2;
                 dst = 1L; src = Int64.of_int events })
           (pair small_nat small_nat));
        (1, map (fun index -> Replay.Event.Correctness { index }) small_nat);
        (1,
         map
           (fun (freed, words) ->
             Replay.Event.Gc { full = freed mod 2 = 0; freed; words })
           (pair small_nat small_nat));
        (1,
         map
           (fun (fn, handled) ->
             Replay.Event.Ext_call
               { fn = fn mod 26; arg = 0L; handled })
           (pair small_nat bool)) ]
  in
  QCheck.make
    ~print:(fun e -> Replay.Event.describe e)
    (map
       (fun (seq, insns, chk, kind) -> { Replay.Event.seq; insns; chk; kind })
       (quad small_nat small_nat (map Int64.of_int int) kind))

let meta =
  { Replay.Log.workload = "synthetic"; scale = "test"; arith = "vanilla";
    config = "cfg" }

let log_of_events evs =
  let w = Replay.Log.writer meta in
  List.iter (Replay.Log.add w) evs;
  Replay.Log.contents w

let event_log_tests =
  [ q "event codec roundtrip" arb_event (fun e ->
        let b = Buffer.create 48 in
        Replay.Event.encode b e;
        let s = Buffer.contents b in
        let pos = ref 0 in
        Replay.Event.equal (Replay.Event.decode s pos) e
        && !pos = String.length s);
    q "log roundtrip" ~count:200 (QCheck.small_list arb_event) (fun evs ->
        let l = Replay.Log.of_string (log_of_events evs) in
        Replay.Log.meta_equal l.Replay.Log.meta meta
        && Array.to_list l.Replay.Log.events = evs);
    q "corrupted log rejected" ~count:200
      QCheck.(pair (small_list arb_event) (pair small_nat small_nat))
      (fun (evs, (at, delta)) ->
        let s = log_of_events evs in
        let at = at mod String.length s in
        let delta = 1 + (delta mod 255) in
        let by = Bytes.of_string s in
        Bytes.set by at
          (Char.chr (Char.code (Bytes.get by at) lxor delta));
        match Replay.Log.of_string (Bytes.to_string by) with
        | _ ->
            (* the flip must land in a spot the format doesn't cover:
               impossible — magic, version, meta, counts and the event
               region are all validated *)
            false
        | exception Wire.Corrupt _ -> true) ]

(* ---- whole-engine determinism ----------------------------------------- *)

let incr_cfg =
  { Fpvm.Engine.default_config with Fpvm.Engine.gc_interval = 2000 }

let full_cfg =
  { incr_cfg with Fpvm.Engine.incremental_gc = false }

let fingerprint (r : Fpvm.Engine.result) =
  ( r.Fpvm.Engine.output,
    r.Fpvm.Engine.serialized,
    r.Fpvm.Engine.cycles,
    r.Fpvm.Engine.insns,
    Fpvm.Stats.fingerprint r.Fpvm.Engine.stats )

(* record -> replay Match, and mid-run checkpoint restore+resume
   bit-identity, for one port under one GC mode *)
let port_case (module A : Fpvm.Arith.S) name config gc_name =
  Alcotest.test_case
    (Printf.sprintf "%s/%s: record->replay->restore" name gc_name)
    `Quick
    (fun () ->
      let module S = Replay.Session.Make (A) in
      let prog = (Option.get (W.find "lorenz")).W.program W.Test in
      let meta =
        { Replay.Log.workload = "lorenz"; scale = "test"; arith = name;
          config = gc_name }
      in
      let rec_ = S.record ~checkpoint_every:64 ~meta ~config prog in
      let base = fingerprint rec_.Replay.Session.result in
      (* a fresh plain run is indistinguishable from the recorded one *)
      let plain = S.E.run ~config prog in
      Alcotest.(check bool) "record perturbs nothing" true
        (fingerprint plain = base);
      (* full replay from the beginning validates every event *)
      (match S.replay ~config rec_.Replay.Session.log prog with
      | Replay.Session.Match r ->
          Alcotest.(check bool) "replay result identical" true
            (fingerprint r = base)
      | Replay.Session.Diverged d ->
          Alcotest.failf "unexpected divergence at %d" d.Replay.Session.at);
      (* every checkpoint restores and resumes to the identical end state *)
      Alcotest.(check bool) "checkpoints taken" true
        (rec_.Replay.Session.checkpoints <> []);
      List.iter
        (fun (seq, blob) ->
          let r = S.resume_from ~config prog blob in
          if fingerprint r <> base then
            Alcotest.failf "resume from checkpoint@%d differs" seq)
        rec_.Replay.Session.checkpoints;
      (* replay validated from a mid-run checkpoint *)
      let n = List.length rec_.Replay.Session.checkpoints in
      let _, mid = List.nth rec_.Replay.Session.checkpoints (n / 2) in
      match S.replay ~checkpoint:mid ~config rec_.Replay.Session.log prog with
      | Replay.Session.Match r ->
          Alcotest.(check bool) "checkpoint replay identical" true
            (fingerprint r = base)
      | Replay.Session.Diverged d ->
          Alcotest.failf "checkpoint replay diverged at %d"
            d.Replay.Session.at)

let engine_tests =
  List.concat_map
    (fun (config, gc_name) ->
      [ port_case (module Fpvm.Alt_vanilla) "vanilla" config gc_name;
        port_case (module (val Fpvm.Alt_mpfr.make ~prec:80 ())) "mpfr" config gc_name;
        port_case (module Fpvm.Alt_posit) "posit" config gc_name;
        port_case (module Fpvm.Alt_interval) "interval" config gc_name ])
    [ (incr_cfg, "incremental-gc"); (full_cfg, "full-gc") ]

(* Offsets of the checkpoint fields these tests touch, found by walking
   the fields in the order Snapshot.capture and the engine's capture
   write them. [cached_index] is the first cached decode index, -1 when
   none is cached; [jit_head] and [jit_path_len] are the first compiled
   path's head and length, -1 when no block was compiled. *)
type ckpt_fields = {
  mem : int;
  cached_index : int;
  jit_head : int;
  jit_path_len : int;
  dirty_cards : int;
  arena_cap : int;
  arena_next_fresh : int;
}

let checkpoint_fields blob =
  let pos = ref (String.length Replay.Snapshot.magic + 4) in
  let varint () = ignore (Wire.r_varint blob pos) in
  let varints n = for _ = 1 to n do varint () done in
  ignore (Replay.Log.decode_meta blob pos);
  varint () (* seq *);
  ignore (Wire.r_str blob pos) (* program name *);
  varints 2 (* insn count, rip *);
  pos := !pos + 3 + 4 + 8 (* halted, track_writes, flags; mxcsr; cycles *);
  varints 3 (* insn_count, fp_insn_count, heap_ptr *);
  pos := !pos + ((16 + 32) * 8) (* gpr, xmm *);
  let mem = !pos in
  let n = Wire.r_varint blob pos in
  let i = ref 0 in
  while !i < n do
    let z = Wire.r_varint blob pos in
    let lit = Wire.r_varint blob pos in
    pos := !pos + lit;
    i := !i + z + lit
  done;
  let dirty_cards = !pos in
  varints (Wire.r_varint blob pos) (* dirty cards *);
  ignore (Wire.r_str blob pos) (* out *);
  ignore (Wire.r_str blob pos) (* serialized *);
  varints 3 (* since_gc, gc_count, patch_sites *);
  pos := !pos + (8 * List.length Fpvm.Stats.checkpointed);
  varints 2 (* hits, misses *);
  let n_cached = Wire.r_varint blob pos in
  let cached_index = if n_cached > 0 then !pos else -1 in
  varints n_cached;
  varints (Wire.r_varint blob pos) (* plan sites *);
  varints (2 * Wire.r_varint blob pos) (* jit counters *);
  let jit_head = ref (-1) and jit_path_len = ref (-1) in
  for _ = 1 to Wire.r_varint blob pos do
    if !jit_head < 0 then jit_head := !pos;
    varint () (* head *);
    if !jit_path_len < 0 then jit_path_len := !pos;
    for _ = 1 to Wire.r_varint blob pos do
      varint ();
      incr pos
    done
  done;
  varints (2 * Wire.r_varint blob pos) (* patched sites *);
  let arena_cap = !pos in
  varint ();
  { mem; cached_index; jit_head = !jit_head;
    jit_path_len = !jit_path_len; dirty_cards; arena_cap; arena_next_fresh = !pos }

(* [blob] with the varint at [off] replaced by [v] and the FNV trailer
   (over the bytes from [from] on) recomputed: only the new value can
   get it rejected. *)
let with_varint ?(from = 0) blob off v =
  let p = ref off in
  ignore (Wire.r_varint blob p);
  let body_end = String.length blob - 8 in
  let b = Buffer.create (String.length blob) in
  Buffer.add_string b (String.sub blob 0 off);
  Wire.varint b v;
  Buffer.add_string b (String.sub blob !p (body_end - !p));
  let body = Buffer.contents b in
  Wire.i64 b (fnv_ref Wire.fnv_basis (String.sub body from (String.length body - from)));
  Buffer.contents b

(* A checksum only proves the bytes are the ones written; a length
   inside them must still be checked before it sizes an allocation. *)
let claimed_length_test =
  Alcotest.test_case "claimed lengths rejected before allocating" `Quick
    (fun () ->
      let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
      let prog = (Option.get (W.find "lorenz")).W.program W.Test in
      let meta =
        { Replay.Log.workload = "lorenz"; scale = "test"; arith = "vanilla";
          config = "c" }
      in
      let rec_ = S.record ~checkpoint_every:500 ~meta ~config:incr_cfg prog in
      let huge = 1 lsl 40 in
      let _, blob = List.hd (List.rev rec_.Replay.Session.checkpoints) in
      let f = checkpoint_fields blob in
      Alcotest.(check bool) "a compiled block" true (f.jit_path_len >= 0);
      let mem_len = Wire.r_varint blob (ref f.mem) in
      Alcotest.(check bool) "rewriting a field as is keeps the blob" true
        (with_varint blob f.mem mem_len = blob);
      ignore (S.restore ~config:incr_cfg prog blob);
      List.iter
        (fun (what, off, v) ->
          match S.restore ~config:incr_cfg prog (with_varint blob off v) with
          | _ -> Alcotest.failf "checkpoint with %s %d accepted" what v
          | exception Wire.Corrupt _ -> ())
        [ ("memory image length", f.mem, huge);
          ("memory image length", f.mem, mem_len + 8);
          ("arena next_fresh", f.arena_next_fresh, huge);
          ("arena capacity", f.arena_cap, huge);
          ("JIT path length", f.jit_path_len, huge) ];
      let log = rec_.Replay.Session.log_bytes in
      let pos = ref (String.length Replay.Log.magic + 4) in
      ignore (Replay.Log.decode_meta log pos);
      let count_at = !pos in
      let count = Wire.r_varint log pos in
      let elen = Wire.r_varint log pos in
      let from = String.length Replay.Log.magic in
      Alcotest.(check bool) "rewriting the count as is keeps the log" true
        (with_varint ~from log count_at count = log);
      List.iter
        (fun v ->
          match Replay.Log.of_string (with_varint ~from log count_at v) with
          | _ -> Alcotest.failf "log of %d events accepted" v
          | exception Wire.Corrupt _ -> ())
        [ elen + 1; huge ])

(* Restore re-decodes every cached index and recompiles every recorded
   JIT path, so an index inside the program can still be one it cannot
   use. Each case forges one such index in a lorenz checkpoint, with
   the trailer recomputed; restore used to let these out as
   [Decoder.Undecodable] and [Invalid_argument], not [Wire.Corrupt]. *)
let forged_index_test name forgeries =
  Alcotest.test_case name `Quick (fun () ->
      let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
      let prog = (Option.get (W.find "lorenz")).W.program W.Test in
      let meta =
        { Replay.Log.workload = "lorenz"; scale = "test"; arith = "vanilla";
          config = "c" }
      in
      let rec_ = S.record ~checkpoint_every:500 ~meta ~config:incr_cfg prog in
      let _, blob = List.hd (List.rev rec_.Replay.Session.checkpoints) in
      ignore (S.restore ~config:incr_cfg prog blob);
      List.iter
        (fun (what, off, v) ->
          Alcotest.(check bool) (what ^ " located") true (off >= 0);
          match S.restore ~config:incr_cfg prog (with_varint blob off v) with
          | _ -> Alcotest.failf "checkpoint with %s accepted" what
          | exception Wire.Corrupt _ -> ())
        (forgeries prog.Machine.Program.insns blob (checkpoint_fields blob)))

let forged_index_tests =
  [ forged_index_test "non-FP cached decode index rejected" (fun insns _ f ->
        let rec non_fp i = if Fpvm.Decoder.decode_insn insns.(i) = None then i else non_fp (i + 1) in
        [ ("a non-FP cached decode index", f.cached_index, non_fp 0) ]);
    forged_index_test "JIT path past the program rejected" (fun insns blob f ->
        let n = Array.length insns in
        let step = ref f.jit_path_len in
        ignore (Wire.r_varint blob step);
        [ ("a JIT path head past the program", f.jit_head, n);
          ("a JIT path step past the program", !step, n + 7) ]) ]

(* ---- the arena section ----------------------------------------------- *)

(* Capacity, fresh count and the depths of the free and young stacks of
   a checkpoint's arena section; [dec] reads the port's values. *)
let arena_shape dec blob =
  let pos = ref (checkpoint_fields blob).arena_cap in
  let cap = Wire.r_varint blob pos in
  let next_fresh = Wire.r_varint blob pos in
  for _ = 1 to next_fresh do
    if Wire.r_u8 blob pos land 1 <> 0 then ignore (dec blob pos)
  done;
  let free_n = Wire.r_varint blob pos in
  for _ = 1 to free_n do
    ignore (Wire.r_varint blob pos)
  done;
  (cap, next_fresh, free_n, Wire.r_varint blob pos)

let lorenz_meta arith config =
  { Replay.Log.workload = "lorenz"; scale = "test"; arith; config }

(* A forged arena section spliced into a checkpoint of lorenz taken
   before its first instruction, where the arena is empty, with the FNV
   trailer recomputed: only the arena's own checks can reject it. The
   section is written by [forge] with live values as vanilla encodes
   them. Restore used to accept every forged case here. Resumed, the
   capacity 0 made the first box raise [Invalid_argument], the free
   stack [4000] made lorenz print 15 bytes instead of 58 (a box into a
   cell [Arena.get] called dangling), and [1; 1] made two values share
   index 1 and print 59. *)
let forged_arena_test name cases =
  Alcotest.test_case name `Quick (fun () ->
      let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
      let prog = (Option.get (W.find "lorenz")).W.program W.Test in
      let blob =
        S.capture ~meta:(lorenz_meta "vanilla" "c") ~seq:0
          (S.prepare ~config:incr_cfg prog)
      in
      let start = (checkpoint_fields blob).arena_cap in
      let pos = ref start in
      let empty = List.init 8 (fun _ -> Wire.r_varint blob pos) in
      (match empty with
      | [ 4096; 0; 0; 0; 0; 0; 0; 0 ] -> ()
      | _ -> Alcotest.fail "the arena is not empty before the first step");
      let body_end = String.length blob - 8 in
      let splice forge =
        let b = Buffer.create (String.length blob) in
        Buffer.add_string b (String.sub blob 0 start);
        forge b;
        Buffer.add_string b (String.sub blob !pos (body_end - !pos));
        let body = Buffer.contents b in
        Wire.i64 b (fnv_ref Wire.fnv_basis body);
        Buffer.contents b
      in
      Alcotest.(check bool) "the section as is keeps the blob" true
        (splice (fun b -> List.iter (Wire.varint b) empty) = blob);
      List.iter
        (fun (what, ok, forge) ->
          match S.restore ~config:incr_cfg prog (splice forge) with
          | _ -> if not ok then Alcotest.failf "%s accepted" what
          | exception Wire.Corrupt m ->
              if ok then Alcotest.failf "%s rejected: %s" what m)
        cases)

(* An arena section: capacity, fresh count, cells (Some v: live; the
   flag: young), the free and young stacks bottom to top, then live,
   total_alloc, total_freed and high_water. *)
let arena_section ?(cap = 4096) cells free young b =
  Wire.varint b cap;
  Wire.varint b (List.length cells);
  List.iter
    (fun (v, young) ->
      let tag = if young then 2 else 0 in
      match v with
      | Some v ->
          Wire.u8 b (tag lor 1);
          Fpvm.Alt_vanilla.encode_value b v
      | None -> Wire.u8 b tag)
    cells;
  List.iter
    (fun st ->
      Wire.varint b (List.length st);
      List.iter (Wire.varint b) st)
    [ free; young ];
  let live = List.length (List.filter (fun (v, _) -> v <> None) cells) in
  List.iter (Wire.varint b) [ live; live; 0; live ]

let forged_arena_tests =
  let dead = (None, false) and young_dead = (None, true) in
  let live = (Some 0x4008000000000000L, true) in
  [ forged_arena_test "arena of capacity 0 rejected"
      [ ("capacity 0", false, arena_section ~cap:0 [] [] []) ];
    forged_arena_test "free entry beyond next_fresh rejected"
      [ ("free stack [4000] over no cells", false,
         arena_section [] [ 4000 ] []) ];
    forged_arena_test "repeated free entry rejected"
      [ ("free stack [1; 1] over two dead cells", false,
         arena_section [ dead; dead ] [ 1; 1 ] []) ];
    forged_arena_test "live free entry and bad young entries rejected"
      [ ("two cells, one free, both young", true,
         arena_section [ live; young_dead ] [ 1 ] [ 0; 1 ]);
        ("free stack naming a live cell", false,
         arena_section [ live ] [ 0 ] [ 0 ]);
        ("young entry beyond next_fresh", false,
         arena_section [ young_dead ] [ 0 ] [ 1 ]);
        ("young entry without its tag", false,
         arena_section [ dead ] [ 0 ] [ 0 ]);
        ("repeated young entry", false,
         arena_section [ live ] [] [ 0; 0 ]);
        ("tag byte 4", false,
         fun b ->
           List.iter (Wire.varint b) [ 4096; 1; 4; 0; 0; 0; 0; 0; 0 ]) ] ]

(* A machine lists a dirty card once, at its first write since the last
   GC pass. A checkpoint listing one twice, with a valid trailer, used to
   restore, and the next incremental pass scanned that card twice: a
   lorenz run resumed from seq 504 ended 16 modeled cycles later than
   the recording. *)
let repeated_dirty_card_test =
  Alcotest.test_case "repeated dirty card rejected" `Quick (fun () ->
      let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
      let prog = (Option.get (W.find "lorenz")).W.program W.Test in
      let rec_ =
        S.record ~checkpoint_every:500 ~meta:(lorenz_meta "vanilla" "c")
          ~config:incr_cfg prog
      in
      let _, blob = List.hd rec_.Replay.Session.checkpoints in
      let at = (checkpoint_fields blob).dirty_cards in
      let pos = ref at in
      let n = Wire.r_varint blob pos in
      let cards = List.init n (fun _ -> Wire.r_varint blob pos) in
      Alcotest.(check bool) "a dirty card" true (cards <> []);
      let body_end = String.length blob - 8 in
      let with_cards cards =
        let b = Buffer.create (String.length blob) in
        Buffer.add_string b (String.sub blob 0 at);
        Wire.varint b (List.length cards);
        List.iter (Wire.varint b) cards;
        Buffer.add_string b (String.sub blob !pos (body_end - !pos));
        let body = Buffer.contents b in
        Wire.i64 b (fnv_ref Wire.fnv_basis body);
        Buffer.contents b
      in
      Alcotest.(check bool) "the cards as they are keep the blob" true
        (with_cards cards = blob);
      let forged = with_cards (cards @ [ List.hd cards ]) in
      match S.restore ~config:incr_cfg prog forged with
      | _ -> Alcotest.fail "a repeated dirty card accepted"
      | exception Wire.Corrupt _ -> ())

(* A checkpoint whose arena grew past its 4,096-cell start, with both
   stacks in use, encodes again to the same bytes once restored: every
   cell's value, tag and stack position survives the round trip. NaN-
   injected lorenz under vanilla allocates about one cell per event, so
   with a GC pass every 5,000 emulations the first pass comes after the
   arena has grown, and the checkpoints after it hold free cells and
   young ones. *)
let grown_arena_tests =
  List.map
    (fun (config, gc_name) ->
      Alcotest.test_case
        (Printf.sprintf "grown arena round trip (%s)" gc_name)
        `Quick (fun () ->
          let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
          let config = { config with Fpvm.Engine.gc_interval = 5000 } in
          let prog =
            Machine.Program.inject_nan ~nth:0 (W.Lorenz.program ~steps:600 ())
          in
          let meta = lorenz_meta "vanilla" gc_name in
          let rec_ = S.record ~checkpoint_every:250 ~meta ~config prog in
          let grown (_, blob) =
            let cap, next_fresh, free_n, young_n =
              arena_shape Fpvm.Alt_vanilla.decode_value blob
            in
            cap > 4096 && next_fresh > 4096 && free_n > 0 && young_n > 0
          in
          match List.find_opt grown rec_.Replay.Session.checkpoints with
          | None -> Alcotest.fail "no checkpoint with a grown arena"
          | Some (seq, blob) ->
              let ses, _, _ = S.restore ~config prog blob in
              Alcotest.(check bool) "captured again, same bytes" true
                (S.capture ~meta ~seq ses = blob)))
    [ (incr_cfg, "incremental-gc"); (full_cfg, "full-gc") ]

let corrupted_checkpoint_test =
  Alcotest.test_case "corrupted checkpoint rejected" `Quick (fun () ->
      let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
      let prog = (Option.get (W.find "lorenz")).W.program W.Test in
      let meta =
        { Replay.Log.workload = "lorenz"; scale = "test"; arith = "vanilla";
          config = "c" }
      in
      let rec_ = S.record ~checkpoint_every:100 ~meta ~config:incr_cfg prog in
      let _, blob = List.hd rec_.Replay.Session.checkpoints in
      let by = Bytes.of_string blob in
      let at = Bytes.length by / 2 in
      Bytes.set by at (Char.chr (Char.code (Bytes.get by at) lxor 0x40));
      match S.resume_from ~config:incr_cfg prog (Bytes.to_string by) with
      | _ -> Alcotest.fail "corrupted checkpoint accepted"
      | exception Wire.Corrupt _ -> ())

(* ---- paged memory -------------------------------------------------------

   A checkpoint encodes a machine's memory from its pages, stepping over
   the ones never written. The properties: under random stores, tracked
   and untracked machines encode as the flat reference does, before and
   after a restore; a restore clears the image's zero runs in pages the
   fresh machine has written; and the stock binaries write a handful of
   their pages. *)

let pages_prog =
  let b = Machine.Program.create ~name:"pages" ~mem_size:(8 * State.page_size) () in
  ignore (Machine.Program.data_f64 b [| 1.5; 0.0; -2.0 |]);
  Machine.Program.emit b Machine.Isa.Halt;
  Machine.Program.finish b

type mem_op = Store of int * int * int64 | Epoch (* a GC clears the cards *)

let arb_mem_ops =
  let mem = pages_prog.Machine.Program.mem_size in
  let open QCheck.Gen in
  let store =
    int_range 0 3 >>= fun k ->
    let size = 1 lsl k in
    let addr =
      oneof
        [ (* straddling a page edge *)
          map2 (fun p d -> (p * State.page_size) - d) (int_range 1 7)
            (int_range 1 (max 1 (size - 1)));
          int_bound (mem - size);
          (* into the last, never otherwise touched, page *)
          map (fun d -> mem - size - d) (int_bound 64) ]
    in
    let value = oneof [ return 0L; map Int64.of_int small_signed_int; ui64 ] in
    map2 (fun a v -> Store (size, max 0 (min a (mem - size)), v)) addr value
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Store (n, a, v) -> Printf.sprintf "st%d %d %Ld" n a v
             | Epoch -> "epoch")
           ops))
    (list_size (int_bound 40) (frequency [ (8, store); (1, return Epoch) ]))

let apply_ops st ops =
  List.iter
    (function
      | Store (n, a, v) -> State.store_size st n a v
      | Epoch -> State.clear_dirty st)
    ops

let restored st =
  let b = Buffer.create 256 in
  Replay.Snapshot.encode_state b st;
  let st' = State.create pages_prog in
  Replay.Snapshot.restore_state (Buffer.contents b) (ref 0) st';
  st'

let pages_written st =
  List.length
    (List.filter (State.page_written st) (List.init (Array.length st.State.pages) Fun.id))

(* Pages each stock binary writes at test scale, of its 1,024. *)
let max_pages_written = 3

let pages_tests =
  [ q "tracked or not, memory encodes as flat" ~count:300
      QCheck.(triple bool arb_mem_ops arb_mem_ops)
      (fun (track_writes, ops, more) ->
        let st = State.create ~track_writes pages_prog in
        apply_ops st ops;
        let st' = restored st in
        let same = memory_of st' = memory_of st in
        apply_ops st' more;
        encodes_as_flat st && same && encodes_as_flat st');
    Alcotest.test_case "a restore clears zero runs in written pages" `Quick
      (fun () ->
        let fresh = State.create pages_prog in
        Alcotest.(check bool) "the data segment's page is written" true
          (State.page_written fresh 0);
        let st = State.create pages_prog in
        for a = 0 to 23 do
          State.store8 st a 0L
        done;
        State.store64 st (State.page_size + 8) 7L;
        let st' = restored st in
        Alcotest.(check bool) "data segment cleared, other stores kept" true
          (memory_of st' = memory_of st && State.load64 st' 0 = 0L);
        Alcotest.(check int) "pages written" 2 (pages_written st'));
    Alcotest.test_case "stock binaries write a handful of pages" `Quick
      (fun () ->
        let module E = Fpvm.Engine.Make (Fpvm.Alt_vanilla) in
        List.iter
          (fun (e : W.entry) ->
            let prog = e.W.program W.Test in
            List.iter
              (fun (how, (r : Fpvm.Engine.result)) ->
                let n = pages_written r.Fpvm.Engine.st in
                if n < 1 || n > max_pages_written then
                  Alcotest.failf "%s (%s) wrote %d of %d pages" e.W.name how n
                    (Array.length r.Fpvm.Engine.st.State.pages))
              [ ("vanilla", E.run prog); ("native", Fpvm.Engine.run_native prog) ])
          W.all) ]

(* ---- one analysis per binary --------------------------------------------

   A session instance remembers the last binary it analysed. A hit needs
   the same physical program with every instruction physically the one
   analysed; an artifact store does not change where the facts come
   from. *)

let lorenz () = (Option.get (W.find "lorenz")).W.program W.Test

let lorenz_meta =
  { Replay.Log.workload = "lorenz"; scale = "test"; arith = "vanilla";
    config = "c" }

(* [insn] rebuilt: structurally equal, physically another value *)
let rebuilt (insn : Machine.Isa.insn) : Machine.Isa.insn =
  Marshal.from_string (Marshal.to_string insn []) 0

(* Real facts with a marker no analysis produces, in a field the engine
   only reports (the trap_checks_elided gauge). *)
let marked_facts prog =
  let a = Fpvm.Vsa.analyze prog in
  { a with
    Fpvm.Vsa.pipeline =
      { a.Fpvm.Vsa.pipeline with Analysis.Pipeline.trap_checks_elided = -7 } }

let check_marked what (r : Fpvm.Engine.result) =
  Alcotest.(check int) (what ^ " ran on the recording's facts") (-7)
    r.Fpvm.Engine.stats.Fpvm.Stats.trap_checks_elided

let facts_tests =
  [ Alcotest.test_case "the remembered entry hits only its own binary"
      `Quick (fun () ->
        let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
        let prog = lorenz () in
        let a = Fpvm.Vsa.analyze prog in
        Alcotest.(check bool) "given facts are used" true (S.facts ~facts:a prog == a);
        Alcotest.(check bool) "and remembered" true (S.facts prog == a);
        Alcotest.(check bool) "a copy misses" false
          (S.facts (Machine.Program.copy prog) == a);
        ignore (S.facts ~facts:a prog);
        let i =
          let insns = prog.Machine.Program.insns in
          let rec find i = if rebuilt insns.(i) != insns.(i) then i else find (i + 1) in
          find 0
        in
        let orig = prog.Machine.Program.insns.(i) in
        prog.Machine.Program.insns.(i) <- rebuilt orig;
        Alcotest.(check bool) "an equal instruction rebuilt" true
          (prog.Machine.Program.insns.(i) = orig);
        let b = S.facts prog in
        Alcotest.(check bool) "misses" false (b == a);
        Alcotest.(check bool) "and is remembered" true (S.facts prog == b));
    Alcotest.test_case "replay and restore reuse the recording's analysis"
      `Quick (fun () ->
        let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
        let prog = lorenz () in
        let marked = marked_facts prog in
        let rec_ =
          S.record ~checkpoint_every:500 ~facts:marked ~meta:lorenz_meta
            ~config:incr_cfg prog
        in
        let base = fingerprint rec_.Replay.Session.result in
        let check what (r : Fpvm.Engine.result) =
          Alcotest.(check bool) (what ^ " reproduces") true (fingerprint r = base);
          check_marked what r
        in
        (match S.replay ~config:incr_cfg rec_.Replay.Session.log prog with
        | Replay.Session.Match r -> check "replay" r
        | Replay.Session.Diverged d ->
            Alcotest.failf "replay diverged at %d" d.Replay.Session.at);
        let _, blob = List.hd (List.rev rec_.Replay.Session.checkpoints) in
        check "restore" (S.resume_from ~config:incr_cfg prog blob);
        Alcotest.(check bool) "still remembered" true (S.facts prog == marked));
    Alcotest.test_case "an artifact store still supplies and counts only its blocks"
      `Quick (fun () ->
        let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
        let prog = lorenz () in
        let store = Fpvm.Artifact.create () in
        let moved (r : Fpvm.Engine.result) =
          (r.Fpvm.Engine.stats.Fpvm.Stats.blocks_shared,
           r.Fpvm.Engine.stats.Fpvm.Stats.cyc_compile_shared)
        in
        let rec_ =
          S.record ~checkpoint_every:500 ~facts:(marked_facts prog)
            ~artifacts:store ~meta:lorenz_meta ~config:incr_cfg prog
        in
        let rp =
          match
            S.replay ~artifacts:store ~config:incr_cfg rec_.Replay.Session.log prog
          with
          | Replay.Session.Match r -> r
          | Replay.Session.Diverged d ->
              Alcotest.failf "replay diverged at %d" d.Replay.Session.at
        in
        let _, blob = List.hd (List.rev rec_.Replay.Session.checkpoints) in
        let rs = S.resume_from ~artifacts:store ~config:incr_cfg prog blob in
        check_marked "replay" rp;
        check_marked "restore" rs;
        (* the recording publishes every block and the replay shares them
           all, moving their compile charge off-guest; the restore
           recompiles its blocks silently and moves nothing *)
        let r = rec_.Replay.Session.result in
        Alcotest.(check (list (pair int int))) "blocks shared, cycles moved"
          [ (0, 0); (5, 9500); (0, 0) ]
          (List.map moved [ r; rp; rs ]);
        Alcotest.(check int) "every recorded compile is shared"
          r.Fpvm.Engine.stats.Fpvm.Stats.jit_compiles
          rp.Fpvm.Engine.stats.Fpvm.Stats.blocks_shared;
        Alcotest.(check int) "replay cycles + moved charge = recording cycles"
          r.Fpvm.Engine.cycles
          (rp.Fpvm.Engine.cycles
          + rp.Fpvm.Engine.stats.Fpvm.Stats.cyc_compile_shared)) ]

(* ---- byte-identity golden ----------------------------------------------

   The codec's output is a format: a log or checkpoint written today must
   be byte-for-byte what earlier builds wrote, so speed-ups in the
   encoder are checked against a digest pinned before them. The corpus
   is NaN-injected lorenz, NAS CG and NAS LU recorded with checkpoints
   on three ports in both GC modes; the digest covers each log and every
   checkpoint blob, length-prefixed. A checkpoint holds state only, so
   two recordings of one run write the same bytes and the digest takes
   them as they are; each trailer is also checked against the reference
   byte loop. *)

let golden_digest = "d815e22988b742227a0c1cad3b65886a"

let golden_programs =
  [ ("lorenz", Machine.Program.inject_nan (W.Lorenz.program ~steps:400 ()) ~nth:2);
    ("nas-cg", Machine.Program.inject_nan (W.Nas_cg.program ~n:12 ~cg_iters:6 ()) ~nth:0);
    ("nas-lu", Machine.Program.inject_nan (W.Nas_lu.program ~n:7 ()) ~nth:3) ]

let deterministic_checkpoint blob =
  let n = String.length blob in
  let sum = String.get_int64_le blob (n - 8) in
  if not (Int64.equal sum (fnv_ref Wire.fnv_basis (String.sub blob 0 (n - 8))))
  then Alcotest.fail "checkpoint trailer is not FNV-1a of its body";
  blob

let golden_corpus () =
  let buf = Buffer.create (1 lsl 16) in
  let blob s =
    Wire.varint buf (String.length s);
    Buffer.add_string buf s
  in
  let ckpts = ref 0 in
  List.iter
    (fun (config, gc_name) ->
      List.iter
        (fun port ->
          let d = Fleet.port_driver port in
          List.iter
            (fun (name, prog) ->
              let meta =
                { Replay.Log.workload = name; scale = "golden";
                  arith = Fleet.Port.to_string port; config = gc_name }
              in
              let r = d.Fleet.d_record ~checkpoint_every:300 ~meta ~config prog in
              let decoded = Replay.Log.of_string r.Replay.Session.log_bytes in
              if r.Replay.Session.log <> decoded then
                Alcotest.failf "%s/%s/%s: log is not its bytes decoded" name
                  (Fleet.Port.to_string port) gc_name;
              blob r.Replay.Session.log_bytes;
              List.iter
                (fun (seq, b) ->
                  incr ckpts;
                  Wire.varint buf seq;
                  blob (deterministic_checkpoint b))
                r.Replay.Session.checkpoints)
            golden_programs)
        [ Fleet.Port.Vanilla; Fleet.Port.Mpfr 200; Fleet.Port.Posit 32 ])
    [ (incr_cfg, "incremental-gc"); (full_cfg, "full-gc") ];
  (Buffer.contents buf, !ckpts)

let golden_test =
  Alcotest.test_case "logs and checkpoints are byte-identical" `Quick (fun () ->
      let corpus, ckpts = golden_corpus () in
      Alcotest.(check bool) "checkpoints taken" true (ckpts >= 36);
      Alcotest.(check string) "digest" golden_digest
        (Digest.to_hex (Digest.string corpus)))

(* Two recordings of one run write the same checkpoints once GC passes
   have run before them: no host time rides in the stats tail. *)
let twice_test =
  Alcotest.test_case "two recordings write the same checkpoints" `Quick
    (fun () ->
      let module S = Replay.Session.Make (Fpvm.Alt_vanilla) in
      let prog = (Option.get (W.find "lorenz")).W.program W.Test in
      List.iter
        (fun config ->
          let config = { config with Fpvm.Engine.gc_interval = 200 } in
          let meta =
            { Replay.Log.workload = "lorenz"; scale = "test";
              arith = "vanilla"; config = "c" }
          in
          let record () = S.record ~checkpoint_every:100 ~meta ~config prog in
          let a = record () and b = record () in
          let ckpts r = r.Replay.Session.checkpoints in
          let stats r = r.Replay.Session.result.Fpvm.Engine.stats in
          Alcotest.(check bool) "GC passes ran" true
            ((stats a).Fpvm.Stats.gc_passes > 1);
          Alcotest.(check bool) "checkpoints taken" true
            (List.length (ckpts a) > 2);
          Alcotest.(check bool) "same checkpoints" true (ckpts a = ckpts b))
        [ incr_cfg; full_cfg ])

(* ---- the engine section under every config ------------------------------ *)

(* Each approach, plans and JIT on and off, both GC modes, single-step
   and 64-instruction traces: trap-and-patch rewrites, an empty plan
   table and an empty block table all pass through a checkpoint.
   Trap-and-patch traps once per site, so at the default JIT threshold
   it compiles no block; its rows at threshold 1 compile a block at
   every trap, and later rewrites invalidate most of them, so compiled
   blocks and rewrites pass through a checkpoint together. *)
let section_configs =
  let open Fpvm.Engine in
  List.concat_map
    (fun approach ->
      List.concat_map
        (fun (use_plans, use_jit) ->
          List.concat_map
            (fun incremental_gc ->
              List.map
                (fun max_trace_len ->
                  { incr_cfg with approach; use_plans; use_jit; incremental_gc;
                    max_trace_len })
                [ 1; 64 ])
            [ true; false ])
        [ (true, true); (true, false); (false, true); (false, false) ])
    [ Trap_and_emulate; Trap_and_patch; Static_transform ]
  @ List.concat_map
      (fun use_plans ->
        List.map
          (fun incremental_gc ->
            { incr_cfg with approach = Trap_and_patch; use_plans; use_jit = true;
              incremental_gc; jit_threshold = 1 })
          [ true; false ])
      [ true; false ]

(* The first, middle and last of a recording's checkpoints. *)
let sampled l =
  let n = List.length l in
  List.sort_uniq compare [ 0; n / 2; n - 1 ]
  |> List.filter_map (fun i -> if i >= 0 then List.nth_opt l i else None)

(* Every sampled checkpoint of every config resumes to the recording's
   output, cycles, fingerprint and dynamic FP count, and restoring it
   then capturing again gives back the same bytes. A checkpoint is
   taken at the end of a trap handler, so the static transform, which
   takes no FP traps, has one only where a correctness trap fires. *)
let section_case (module A : Fpvm.Arith.S) port (name, prog, approaches) =
  Alcotest.test_case
    (Printf.sprintf "%s %s: every config restores and recaptures" port name)
    `Quick (fun () ->
      let module S = Replay.Session.Make (A) in
      let seen = ref [] in
      List.iter
        (fun config ->
          let line = Fpvm.Engine.config_line config in
          let meta =
            { Replay.Log.workload = name; scale = "test"; arith = port;
              config = line }
          in
          (* trap-and-patch traps once per site and the static transform
             only at correctness traps: they need a denser interval *)
          let checkpoint_every =
            if config.Fpvm.Engine.approach = Fpvm.Engine.Trap_and_emulate then 16
            else 4
          in
          let rec_ = S.record ~checkpoint_every ~meta ~config prog in
          let outcome (r : Fpvm.Engine.result) =
            (fingerprint r, r.Fpvm.Engine.fp_insns)
          in
          let base = outcome rec_.Replay.Session.result in
          (* the threshold-1 rows must keep some compiled blocks and
             lose others to rewrites *)
          let s = rec_.Replay.Session.result.Fpvm.Engine.stats in
          if
            config.Fpvm.Engine.jit_threshold = 1
            && not
                 (s.Fpvm.Stats.jit_compiles > s.Fpvm.Stats.jit_invalidations
                 && s.Fpvm.Stats.jit_invalidations > 0)
          then Alcotest.failf "%s: no compiled block beside a rewrite" line;
          List.iter
            (fun (seq, blob) ->
              if outcome (S.resume_from ~config prog blob) <> base then
                Alcotest.failf "%s: resume from checkpoint@%d differs" line seq;
              let ses, meta, seq' = S.restore ~config prog blob in
              if S.capture ~meta ~seq:seq' ses <> blob then
                Alcotest.failf "%s: checkpoint@%d does not recapture" line seq;
              seen := config.Fpvm.Engine.approach :: !seen)
            (sampled rec_.Replay.Session.checkpoints))
        section_configs;
      List.iter
        (fun a ->
          if not (List.mem a !seen) then
            Alcotest.failf "no checkpoint under %s"
              (Fpvm.Engine.config_line { incr_cfg with Fpvm.Engine.approach = a }))
        approaches)

let section_tests =
  let programs =
    let open Fpvm.Engine in
    (* lorenz takes no correctness trap *)
    [ ("lorenz", W.Lorenz.program ~steps:300 (),
       [ Trap_and_emulate; Trap_and_patch ]);
      ("nas-cg", W.Nas_cg.program ~n:8 ~cg_iters:3 (),
       [ Trap_and_emulate; Trap_and_patch; Static_transform ]) ]
  in
  List.concat_map
    (fun p ->
      [ section_case (module Fpvm.Alt_vanilla) "vanilla" p;
        section_case (module (val Fpvm.Alt_mpfr.make ~prec:80 ())) "mpfr:80" p ])
    programs

(* ---- bisection -------------------------------------------------------- *)

let linear_scan mode a b =
  let ea = Replay.Bisect.comparable mode a
  and eb = Replay.Bisect.comparable mode b in
  let n = min (Array.length ea) (Array.length eb) in
  let rec go i =
    if i < n then
      if
        (match mode with
        | Replay.Bisect.Exact -> Replay.Event.equal ea.(i) eb.(i)
        | Replay.Bisect.Arch ->
            Replay.Event.normalize ea.(i) = Replay.Event.normalize eb.(i))
      then go (i + 1)
      else Some i
    else if Array.length ea = Array.length eb then None
    else Some n
  in
  go 0

let bisect_matches_linear_scan =
  (* random pair of logs sharing a prefix: the bisector and the naive
     scan must agree in both modes *)
  q "bisect == linear scan" ~count:300
    QCheck.(triple (small_list arb_event) (small_list arb_event) (small_list arb_event))
    (fun (prefix, ta, tb) ->
      let a = Replay.Log.of_string (log_of_events (prefix @ ta)) in
      let b = Replay.Log.of_string (log_of_events (prefix @ tb)) in
      List.for_all
        (fun mode ->
          let got =
            Option.map
              (fun (d : Replay.Bisect.divergence) -> d.Replay.Bisect.at)
              (Replay.Bisect.first_divergence ~mode a b)
          in
          got = linear_scan mode a b)
        [ Replay.Bisect.Exact; Replay.Bisect.Arch ])

let record_of config prec =
  let module M = (val Fpvm.Alt_mpfr.make ~prec ()) in
  let module S = Replay.Session.Make (M) in
  let prog = (Option.get (W.find "lorenz")).W.program W.Test in
  let meta =
    { Replay.Log.workload = "lorenz"; scale = "test";
      arith = Printf.sprintf "mpfr:%d" prec; config = "t" }
  in
  S.record ~meta ~config prog

let bisect_engine_tests =
  [ Alcotest.test_case "trace-len 1 vs 64 arch-agree" `Quick (fun () ->
        let short =
          { incr_cfg with Fpvm.Engine.max_trace_len = 1 }
        in
        let a = (record_of incr_cfg 80).Replay.Session.log in
        let b = (record_of short 80).Replay.Session.log in
        (* delivery schedules differ, the architectural story must not *)
        (match Replay.Bisect.first_divergence ~mode:Replay.Bisect.Arch a b with
        | None -> ()
        | Some d ->
            Alcotest.failf "arch divergence at %d between trace lengths"
              d.Replay.Bisect.at);
        (* but the exact streams do differ (absorbed vs delivered) *)
        Alcotest.(check bool) "exact streams differ" true
          (Replay.Bisect.first_divergence a b <> None));
    Alcotest.test_case "full vs incremental gc arch-agree" `Quick (fun () ->
        let a = (record_of incr_cfg 80).Replay.Session.log in
        let b = (record_of full_cfg 80).Replay.Session.log in
        match Replay.Bisect.first_divergence ~mode:Replay.Bisect.Arch a b with
        | None -> ()
        | Some d ->
            Alcotest.failf "arch divergence at %d between gc modes"
              d.Replay.Bisect.at);
    Alcotest.test_case "mpfr 80 vs 200 diverges" `Quick (fun () ->
        let a = (record_of incr_cfg 80).Replay.Session.log in
        let b = (record_of incr_cfg 200).Replay.Session.log in
        match Replay.Bisect.first_divergence ~mode:Replay.Bisect.Arch a b with
        | None -> Alcotest.fail "precisions bisect as identical"
        | Some d -> Alcotest.(check bool) "matches scan" true
              (Some d.Replay.Bisect.at = linear_scan Replay.Bisect.Arch a b));
    Alcotest.test_case "injected flip pinned exactly" `Quick (fun () ->
        let log = (record_of incr_cfg 80).Replay.Session.log in
        let k = Array.length log.Replay.Log.events / 3 in
        let w = Replay.Log.writer log.Replay.Log.meta in
        Array.iteri
          (fun i (e : Replay.Event.t) ->
            let e =
              if i = k then
                { e with Replay.Event.chk = Int64.logxor e.Replay.Event.chk 1L }
              else e
            in
            Replay.Log.add w e)
          log.Replay.Log.events;
        let bad = Replay.Log.of_string (Replay.Log.contents w) in
        match Replay.Bisect.first_divergence log bad with
        | Some d -> Alcotest.(check int) "at k" k d.Replay.Bisect.at
        | None -> Alcotest.fail "injected flip not found") ]

let () =
  Alcotest.run "replay"
    [ ("codec", codec_tests);
      ("same-bytes", same_bytes_tests);
      ("value-codec", value_tests);
      ("event-log", event_log_tests);
      ("engine",
       engine_tests
       @ [ corrupted_checkpoint_test; claimed_length_test; golden_test ]
       @ forged_arena_tests
       @ (repeated_dirty_card_test :: grown_arena_tests)
       @ forged_index_tests @ [ twice_test ]);
      ("section", section_tests);
      ("pages", pages_tests);
      ("facts", facts_tests);
      ("bisect", bisect_matches_linear_scan :: bisect_engine_tests) ]

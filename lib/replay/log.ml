(* The on-disk event log.

   Layout (all via {!Codec}):

     "FPVMLOG1"            8-byte magic
     u32 version           (1)
     meta                  workload / scale / arith / config fingerprint
     varint event count
     varint event-region length
     events                count records ({!Event.encode})
     i64 FNV-1a            checksum of everything after the magic

   The checksum is verified before any field is decoded, so a flipped
   byte anywhere in the file rejects it whole rather than decoding
   into a plausible-but-wrong stream. Readers raise {!Codec.Corrupt}
   on any malformation. *)

let magic = "FPVMLOG1"
let version = 1

type meta = {
  workload : string;
  scale : string;
  arith : string;
  config : string; (* canonical engine-config fingerprint *)
}

let meta_equal (a : meta) (b : meta) = a = b

let pp_meta fmt (m : meta) =
  Format.fprintf fmt "%s/%s arith=%s config=%s" m.workload m.scale m.arith
    m.config

type t = { meta : meta; events : Event.t array }

(* ---- writing --------------------------------------------------------- *)

(* The writer keeps the events it encodes, so its log needs no decode. *)
type writer = {
  wmeta : meta;
  ebuf : Buffer.t;
  mutable count : int;
  mutable evs : Event.t array; (* [count] events, then spare slots *)
}

let writer meta =
  { wmeta = meta; ebuf = Buffer.create (1 lsl 16); count = 0; evs = [||] }

let add w (ev : Event.t) =
  Event.encode w.ebuf ev;
  if w.count = Array.length w.evs then begin
    let evs = Array.make (max 256 (2 * w.count)) ev in
    Array.blit w.evs 0 evs 0 w.count;
    w.evs <- evs
  end;
  w.evs.(w.count) <- ev;
  w.count <- w.count + 1

(* The log [of_string (contents w)] decodes to. *)
let of_writer (w : writer) : t =
  { meta = w.wmeta; events = Array.sub w.evs 0 w.count }

let encode_meta b (m : meta) =
  Codec.str b m.workload;
  Codec.str b m.scale;
  Codec.str b m.arith;
  Codec.str b m.config

let decode_meta s pos : meta =
  let workload = Codec.r_str s pos in
  let scale = Codec.r_str s pos in
  let arith = Codec.r_str s pos in
  let config = Codec.r_str s pos in
  { workload; scale; arith; config }

let contents (w : writer) : string =
  let b = Buffer.create (Buffer.length w.ebuf + 128) in
  Buffer.add_string b magic;
  Codec.u32 b version;
  encode_meta b w.wmeta;
  Codec.varint b w.count;
  Codec.varint b (Buffer.length w.ebuf);
  Buffer.add_buffer b w.ebuf;
  Codec.with_fnv_trailer ~from:(String.length magic) b

(* ---- reading --------------------------------------------------------- *)

let of_string (s : string) : t =
  let mlen = String.length magic in
  if String.length s < mlen + 8 || String.sub s 0 mlen <> magic then
    Codec.corrupt "not an FPVM event log (bad magic)";
  (* checksum everything between magic and trailer before decoding *)
  let body_end = String.length s - 8 in
  let sum = String.get_int64_le s body_end in
  if
    not (Int64.equal sum (Codec.fnv64_sub Codec.fnv_basis s mlen (body_end - mlen)))
  then Codec.corrupt "log checksum mismatch (corrupted log)";
  let pos = ref mlen in
  let v = Codec.r_u32 s pos in
  if v <> version then Codec.corrupt "unsupported log version %d" v;
  let meta = decode_meta s pos in
  let count = Codec.r_varint s pos in
  let elen = Codec.r_varint s pos in
  if elen < 0 || body_end - !pos <> elen then
    Codec.corrupt "event region is %d bytes, log has %d left" elen
      (body_end - !pos);
  (* every event record takes at least one byte *)
  if count < 0 || count > elen then
    Codec.corrupt "%d events in a %d-byte event region" count elen;
  let epos = ref !pos in
  let events = Array.init count (fun _ -> Event.decode s epos) in
  if !epos <> body_end then Codec.corrupt "trailing bytes in event region";
  { meta; events }

let of_file path = of_string (Codec.read_file path)

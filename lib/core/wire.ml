(* Wire: the record/replay subsystem's binary codec (no Marshal).

   Every multi-byte quantity is little-endian; variable-length integers
   are unsigned LEB128 (7 bits per byte, high bit = continue); signed
   integers are zigzag-folded first. Readers work over an immutable
   string with an explicit position ref and raise {!Corrupt} instead of
   returning garbage on truncated or malformed input — the log reader
   depends on that to reject damaged files.

   The same primitives serialize alternative-arithmetic shadow values
   (each {!Arith.S} port provides [encode_value]/[decode_value] on top
   of these), so a checkpoint is one format from registers down to the
   arena cells. *)

module Nat = Bignum.Nat
module State = Machine.State

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ---- writers (into a Buffer) ---------------------------------------- *)

let u8 b v = Buffer.add_uint8 b (v land 0xFF)
let bool_ b v = u8 b (if v then 1 else 0)
let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let i64 b (v : int64) = Buffer.add_int64_le b v

(* Unsigned LEB128. Rejects negatives: lengths and counters only. *)
let varint b v =
  if v < 0 then invalid_arg "Wire.varint: negative";
  let rec go v =
    if v < 0x80 then u8 b v
    else begin
      u8 b (0x80 lor (v land 0x7F));
      go (v lsr 7)
    end
  in
  go v

(* Zigzag-folded signed integer (small magnitudes stay small either
   sign; exponents are the main customer). *)
(* Zigzag folding, total on the whole int range: [lsl] wraps and [lsr]
   is unsigned, so the fold is a bijection on 63-bit patterns (naive
   [(-v) lsl 1 - 1] overflows for |v| >= 2^61). The folded pattern may
   read as a negative OCaml int, so it is emitted with an unsigned
   7-bit group loop rather than [varint]. *)
let zint b v =
  let rec go v =
    if v land lnot 0x7F = 0 then u8 b v
    else begin
      u8 b (0x80 lor (v land 0x7F));
      go (v lsr 7)
    end
  in
  go ((v lsl 1) lxor (v asr 62))

let str b s =
  varint b (String.length s);
  Buffer.add_string b s

(* Arbitrary-precision natural: bit length, then 32-bit limbs low
   to high. *)
let nat b (n : Nat.t) =
  let bits = Nat.num_bits n in
  varint b bits;
  let i = ref 0 in
  while !i < bits do
    u32 b (Nat.extract_int n ~lo:!i ~len:32);
    i := !i + 32
  done

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Length of the zero run starting at [src.[i]], counted up to [lim]. A
   written page is mostly zeros, so the scan reaches an 8-byte boundary
   bytewise and then tests whole words, four per step while they last:
   the result is the same count a byte loop gives, at memory speed. *)
let zeros_upto (src : Bytes.t) i lim =
  let j = ref i in
  while !j < lim && !j land 7 <> 0 && Bytes.unsafe_get src !j = '\000' do
    incr j
  done;
  if !j land 7 = 0 then begin
    while
      !j + 32 <= lim
      && Int64.logor
           (Int64.logor (get64u src !j) (get64u src (!j + 8)))
           (Int64.logor (get64u src (!j + 16)) (get64u src (!j + 24)))
         = 0L
    do
      j := !j + 32
    done;
    while !j + 8 <= lim && get64u src !j = 0L do
      j := !j + 8
    done;
    while !j < lim && Bytes.unsafe_get src !j = '\000' do
      incr j
    done
  end;
  !j - i

(* The zero run at address [i] of [st]'s memory: unwritten pages are
   stepped over whole, written ones scanned. *)
let zeros_at (st : State.t) i =
  let n = st.State.mem_size in
  let rec go j =
    if j >= n then n - i
    else
      let p = j lsr State.page_shift in
      let base = p lsl State.page_shift in
      let next = min n (base + State.page_size) in
      if not (State.page_written st p) then go next
      else
        let z = zeros_upto st.State.pages.(p) (j - base) (next - base) in
        if j + z < next then j + z - i else go next
  in
  go i

let byte_at (st : State.t) j =
  Bytes.get st.State.pages.(j lsr State.page_shift) (j land (State.page_size - 1))

(* Zero-run RLE of a machine's memory (a mostly-zero address space):
   alternating (zero-run length, literal length, literal bytes) pairs
   prefixed with the memory size. A literal run ends at the next span of
   >= 16 consecutive zero bytes. The runs depend on the bytes alone, not
   on which pages are written. *)
let bytes_rle b (st : State.t) =
  let n = st.State.mem_size in
  varint b n;
  let i = ref 0 in
  while !i < n do
    let z = zeros_at st !i in
    let lit_start = !i + z in
    (* extend the literal until a zero span worth encoding *)
    let j = ref lit_start in
    let stop = ref false in
    while (not !stop) && !j < n do
      if byte_at st !j = '\000' then begin
        let z' = zeros_at st !j in
        if z' >= 16 || !j + z' = n then stop := true else j := !j + z'
      end
      else incr j
    done;
    varint b z;
    varint b (!j - lit_start);
    State.iter_span lit_start (!j - lit_start) (fun p off k _ ->
        Buffer.add_subbytes b st.State.pages.(p) off k);
    i := !j
  done

(* ---- readers (string + position ref) -------------------------------- *)

let need s pos n =
  if !pos < 0 || n < 0 || n > String.length s - !pos then
    corrupt "truncated input at byte %d (need %d)" !pos n

let r_u8 s pos =
  need s pos 1;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let r_bool s pos =
  match r_u8 s pos with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad boolean byte %d" v

let r_u32 s pos =
  need s pos 4;
  let v = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
  pos := !pos + 4;
  v

let r_i64 s pos =
  need s pos 8;
  let v = String.get_int64_le s !pos in
  pos := !pos + 8;
  v

let r_varint s pos =
  let rec go shift acc =
    if shift > 56 then corrupt "varint overflow"
    else begin
      let byte = r_u8 s pos in
      let acc = acc lor ((byte land 0x7F) lsl shift) in
      if byte land 0x80 = 0 then acc else go (shift + 7) acc
    end
  in
  go 0 0

let r_zint s pos =
  let folded = r_varint s pos in
  (folded lsr 1) lxor (-(folded land 1))

(* A count of items that each take at least [per] bytes of [s] from
   [!pos] on. A count that could not fit is rejected here, so no reader
   allocates in proportion to a claimed length. *)
let r_count ?(per = 1) s pos =
  let n = r_varint s pos in
  let left = String.length s - !pos in
  if n < 0 || n > left / per then
    corrupt "count %d does not fit in the %d bytes left" n left;
  n

let r_str s pos =
  let len = r_varint s pos in
  need s pos len;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

(* The limbs are the natural's little-endian bytes, padded to whole
   32-bit limbs. *)
let r_nat s pos =
  let bits = r_varint s pos in
  if bits < 0 || bits > 8 * (String.length s - !pos) then
    corrupt "natural of %d bits at byte %d" bits !pos;
  let len = 4 * ((bits + 31) / 32) in
  need s pos len;
  let n = Nat.of_bytes_le s !pos len in
  pos := !pos + len;
  n

(* Decode a {!bytes_rle} image into [st], whose memory size the image
   must claim exactly. Every byte is written: zero runs are cleared in
   the pages that hold any (a fresh machine's data segment does), and
   literal runs give the pages they land in their own copies. *)
let r_bytes_rle_into s pos (st : State.t) =
  let n = r_varint s pos in
  if n <> st.State.mem_size then
    corrupt "RLE image is %d bytes, destination has %d" n st.State.mem_size;
  let i = ref 0 in
  while !i < n do
    let z = r_varint s pos in
    let lit = r_varint s pos in
    if z < 0 || lit < 0 || z > n - !i || lit > n - !i - z then
      corrupt "RLE run overflow";
    need s pos lit;
    State.zero st !i z;
    State.blit_string s !pos st (!i + z) lit;
    pos := !pos + lit;
    i := !i + z + lit
  done

(* ---- FNV-1a 64-bit -------------------------------------------------- *)

let fnv_basis = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* The loops keep the hash in an unboxed local: checkpoints and logs are
   checksummed whole, so this runs once per byte written or read. *)

let fnv64_bytes_sub h (s : Bytes.t) off len =
  if off < 0 || len < 0 || off > Bytes.length s - len then
    invalid_arg "Wire.fnv64_sub";
  let h = ref h in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get s i))))
        fnv_prime
  done;
  !h

(* FNV-1a of [s.[off .. off+len-1]], without copying the slice. *)
let fnv64_sub h s off len = fnv64_bytes_sub h (Bytes.unsafe_of_string s) off len

let fnv64 h s = fnv64_sub h s 0 (String.length s)

let fnv64_i64 h (v : int64) =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
        fnv_prime
  done;
  !h

let fnv64_int h v = fnv64_i64 h (Int64.of_int v)

(* [b]'s contents followed by the little-endian FNV-1a of its bytes
   from [from] on: a container and its checksum trailer, built with one
   copy of the buffer. *)
let with_fnv_trailer ?(from = 0) b =
  let n = Buffer.length b in
  let out = Bytes.create (n + 8) in
  Buffer.blit b 0 out 0 n;
  Bytes.set_int64_le out n (fnv64_bytes_sub fnv_basis out from (n - from));
  Bytes.unsafe_to_string out

(** Two-level compilation-artifact cache (DESIGN.md section 4j).

    Level 1 — fleet-wide sharing: a mutex-guarded in-memory store that
    holds, per session key, the one port-agnostic compilation artifact
    whose sharing changes a result: JIT block recordings (the
    [(index, absorbed)] paths a checkpoint (format v4) already persists
    and recompiles). Analysis facts are not artifacts: callers pass them to
    [Engine.prepare]. N identical guests record each block once: the
    first claim publishes (and the guest pays the compile charge as
    usual), every later claim of the same [(head, digest, path)] is
    answered [`Shared] and the engine moves the compile charge into the
    fingerprint-excluded [Stats.cyc_compile_shared] bucket instead of
    [cyc_jit]. Recordings never shortcut the profiling ramp — warm and
    cold runs execute and fingerprint identically; only the accounting
    of the compile charge moves.

    Level 2 — persistent warm start: {!save}/{!load} serialize a key's
    recordings through the {!Wire} codec into a versioned, checksummed
    cache file. Any corruption, version skew, key mismatch or malformed
    body makes {!load} return [false] and the caller silently stays on
    the cold path.

    Staleness is structurally harmless: recordings are matched by exact
    path equality {e and} a digest of the touched instructions' text,
    so an entry from a different program revision can never be claimed;
    it just sits inert. Trap-and-patch rewrites additionally call
    {!invalidate_site} so the store drops recordings that touch
    rewritten sites eagerly. *)

module Isa = Machine.Isa
module Program = Machine.Program

type recipe = {
  rc_digest : int64;
      (** FNV-1a over the disassembly of the sites the block touches *)
  rc_path : (int * bool) array;  (** recorded trace: index, absorbed *)
}

(* An entry is one session key's recipe table: head -> recipes. *)
type entry = (int, recipe list ref) Hashtbl.t

type t = {
  mu : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  (* conservation counters, all under [mu]: *)
  mutable blocks_published : int;  (* first claims: guest paid *)
  mutable blocks_shared : int;  (* later claims: charge elided *)
  mutable cyc_elided : int;  (* compile cycles moved off-guest *)
  mutable invalidations : int;  (* recipes dropped by patching *)
}

let create () =
  {
    mu = Mutex.create ();
    entries = Hashtbl.create 7;
    blocks_published = 0;
    blocks_shared = 0;
    cyc_elided = 0;
    invalidations = 0;
  }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let entry_for t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = Hashtbl.create 7 in
      Hashtbl.replace t.entries key e;
      e

let recipes_at (e : entry) head =
  match Hashtbl.find_opt e head with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace e head r;
      r

(* ------------------------------------------------------------------ *)
(* Keys and digests                                                    *)

(* hash of the text [Isa.pp_insn] prints, written into the scratch [b] *)
let digest_insn b h insn =
  Buffer.clear b;
  Isa.add_insn b insn;
  Wire.fnv64 h (Buffer.contents b)

let content_digest (p : Program.t) =
  let b = Buffer.create 64 in
  let h = ref Wire.fnv_basis in
  Array.iteri
    (fun i insn ->
      h := Wire.fnv64_int !h i;
      h := digest_insn b !h insn)
    p.Program.insns;
  List.iter
    (fun (off, bytes) ->
      h := Wire.fnv64_int !h off;
      h := Wire.fnv64 !h bytes)
    p.Program.data_init;
  h := Wire.fnv64_int !h p.Program.data_size;
  h := Wire.fnv64_int !h p.Program.mem_size;
  h := Wire.fnv64_int !h p.Program.entry;
  !h

let session_key ~port ~flags (p : Program.t) =
  Printf.sprintf "%s|t%d|%016Lx|%s" port Vsa.tier_version (content_digest p)
    flags

let sites_digest (insns : Isa.insn array) (sites : int array) =
  let b = Buffer.create 64 in
  let h = ref Wire.fnv_basis in
  Array.iter
    (fun idx ->
      h := Wire.fnv64_int !h idx;
      if idx >= 0 && idx < Array.length insns then
        h := digest_insn b !h insns.(idx))
    sites;
  !h

(* ------------------------------------------------------------------ *)
(* Claims                                                              *)

let path_equal (a : (int * bool) array) b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let mem_recipe recipes ~digest ~path =
  List.exists
    (fun r -> r.rc_digest = digest && path_equal r.rc_path path)
    recipes

(** First claim of [(head, digest, path)] under [key] publishes the
    recording and returns [`Published] — the claimant pays the compile
    charge on-guest as usual. Any later identical claim returns
    [`Shared] and [cycles] is accumulated into the store's elision
    bucket; the claimant charges [Stats.cyc_compile_shared] instead. *)
let claim_block t ~key ~head ~digest ~path ~cycles =
  with_lock t (fun () ->
      let recipes = recipes_at (entry_for t key) head in
      if mem_recipe !recipes ~digest ~path then begin
        t.blocks_shared <- t.blocks_shared + 1;
        t.cyc_elided <- t.cyc_elided + cycles;
        `Shared
      end
      else begin
        recipes := { rc_digest = digest; rc_path = Array.copy path } :: !recipes;
        t.blocks_published <- t.blocks_published + 1;
        `Published
      end)

(** Trap-and-patch invalidation: drop every recording whose block
    touches [site]. The digest keying already makes stale claims
    impossible (the rewritten instruction's text changes the digest);
    this keeps the store from accumulating dead recipes. Returns the
    number of recordings dropped. *)
let invalidate_site t ~key ~site =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> 0
      | Some e ->
          let dropped = ref 0 in
          let dead_heads = ref [] in
          Hashtbl.iter
            (fun head recipes ->
              let keep, dead =
                List.partition
                  (fun r ->
                    head <> site
                    && not (Array.exists (fun (i, _) -> i = site) r.rc_path))
                  !recipes
              in
              dropped := !dropped + List.length dead;
              recipes := keep;
              if keep = [] then dead_heads := head :: !dead_heads)
            e;
          List.iter (Hashtbl.remove e) !dead_heads;
          t.invalidations <- t.invalidations + !dropped;
          !dropped)

(* ------------------------------------------------------------------ *)
(* Introspection (tests, serve accounting)                             *)

type counters = {
  c_blocks_published : int;
  c_blocks_shared : int;
  c_cyc_elided : int;
  c_invalidations : int;
}

let counters t =
  with_lock t (fun () ->
      {
        c_blocks_published = t.blocks_published;
        c_blocks_shared = t.blocks_shared;
        c_cyc_elided = t.cyc_elided;
        c_invalidations = t.invalidations;
      })

let block_count t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> 0
      | Some e -> Hashtbl.fold (fun _ r n -> n + List.length !r) e 0)

(* ------------------------------------------------------------------ *)
(* Persistent cache files (level 2)                                    *)

let magic = "FPVMART1"
let format_version = 3

let file_for ~dir ~key =
  Filename.concat dir
    (Printf.sprintf "%016Lx.fpvmc" (Wire.fnv64 Wire.fnv_basis key))

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Payload layout (all via Wire, checksummed):
     magic(8 raw bytes) u8:version str:key
     varint:nblocks { varint:head i64:digest varint:len
                      { varint:index bool:absorbed }* }*
     i64:fnv64-of-everything-above *)

let serialize t ~key =
  with_lock t (fun () ->
      let b = Buffer.create 4096 in
      Buffer.add_string b magic;
      Wire.u8 b format_version;
      Wire.str b key;
      let e = entry_for t key in
      let blocks =
        Hashtbl.fold
          (fun head recipes acc ->
            List.fold_left (fun acc r -> (head, r) :: acc) acc !recipes)
          e []
        |> List.sort compare
      in
      Wire.varint b (List.length blocks);
      List.iter
        (fun (head, r) ->
          Wire.varint b head;
          Wire.i64 b r.rc_digest;
          Wire.varint b (Array.length r.rc_path);
          Array.iter
            (fun (idx, absorbed) ->
              Wire.varint b idx;
              Wire.bool_ b absorbed)
            r.rc_path)
        blocks;
      let sum = Wire.fnv64 Wire.fnv_basis (Buffer.contents b) in
      Wire.i64 b sum;
      Buffer.contents b)

(** Write [key]'s recordings to its cache file under [dir] (atomic
    tmp-then-rename). Returns [false] on an IO failure ([Sys_error] or
    [Unix.Unix_error]); any other exception propagates. *)
let save t ~dir ~key =
  try
    mkdir_p dir;
    let data = serialize t ~key in
    let file = file_for ~dir ~key in
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc data;
    close_out oc;
    Sys.rename tmp file;
    true
  with Sys_error _ | Unix.Unix_error _ -> false

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let merge_payload t ~key ~blocks =
  with_lock t (fun () ->
      let e = entry_for t key in
      List.iter
        (fun (head, r) ->
          let recipes = recipes_at e head in
          if not (mem_recipe !recipes ~digest:r.rc_digest ~path:r.rc_path)
          then recipes := r :: !recipes)
        blocks)

(** Load [key]'s cache file from [dir] into the store. Returns [false]
    — leaving the store untouched — on an unreadable file ([Sys_error]),
    checksum or magic mismatch, version skew, key mismatch, or a body
    that does not parse exactly to its end ([Wire.Corrupt]): the caller
    just stays on the cold path. Any other exception propagates. *)
let load t ~dir ~key =
  try
    let s = read_file (file_for ~dir ~key) in
    let len = String.length s in
    if len < String.length magic + 1 + 8 then false
    else begin
      let body = String.sub s 0 (len - 8) in
      let pos = ref (len - 8) in
      let sum = Wire.r_i64 s pos in
      if Wire.fnv64 Wire.fnv_basis body <> sum then false
      else if String.sub s 0 (String.length magic) <> magic then false
      else begin
        let pos = ref (String.length magic) in
        let version = Wire.r_u8 body pos in
        let key' = Wire.r_str body pos in
        if version <> format_version || key' <> key then false
        else begin
          (* a recipe takes at least 10 bytes (head, digest, length), a
             step at least 2 (index, absorbed) *)
          let nblocks = Wire.r_count ~per:10 body pos in
          let blocks = ref [] in
          for _ = 1 to nblocks do
            let head = Wire.r_varint body pos in
            let digest = Wire.r_i64 body pos in
            let plen = Wire.r_count ~per:2 body pos in
            let path =
              Array.init plen (fun _ ->
                  let idx = Wire.r_varint body pos in
                  let absorbed = Wire.r_bool body pos in
                  (idx, absorbed))
            in
            blocks := (head, { rc_digest = digest; rc_path = path }) :: !blocks
          done;
          if !pos <> String.length body then false
          else begin
            merge_payload t ~key ~blocks:!blocks;
            true
          end
        end
      end
    end
  with Wire.Corrupt _ | Sys_error _ -> false

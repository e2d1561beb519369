(** Two-level compilation-artifact cache (DESIGN.md section 4j).

    Level 1 — fleet-wide sharing: a mutex-guarded in-memory store that
    holds, per session key, the port-agnostic compilation artifacts a
    guest produces while warming up: decoded-site tables, binding-plan
    recipe sites and JIT superblock recordings (the [(index, absorbed)]
    paths checkpoint v3 already persists and re-lowers). Analysis facts
    are not artifacts: callers pass them to [Engine.prepare]. N
    identical guests record each block once: the first claim publishes
    (and the guest pays the compile charge as usual), every later claim
    of the same [(head, digest, path)] is answered [`Shared] and the
    engine moves the compile charge into the fingerprint-excluded
    [Stats.cyc_compile_shared] bucket instead of [cyc_jit]. Artifacts
    never shortcut the profiling ramp — warm and cold runs execute and
    fingerprint identically; only the accounting of the compile charge
    moves.

    Level 2 — persistent warm start: {!save}/{!load} serialize a key's
    artifacts through the {!Wire} codec into a versioned, checksummed
    cache file. Any corruption, version skew, or key mismatch makes
    {!load} return [false] and the caller silently stays on the cold
    path.

    Staleness is structurally harmless: recordings are matched by exact
    path equality {e and} a digest of the touched instructions' text,
    so an entry from a different program revision can never be claimed;
    it just sits inert. Trap-and-patch rewrites additionally call
    {!invalidate_site} so the store drops recipes for rewritten sites
    eagerly. *)

module Isa = Machine.Isa
module Program = Machine.Program

type recipe = {
  rc_digest : int64;
      (** FNV-1a over the disassembly of the sites the block touches *)
  rc_path : (int * bool) array;  (** recorded trace: index, absorbed *)
}

type entry = {
  en_jit : (int, recipe list ref) Hashtbl.t;  (* head -> recipes *)
  en_plans : (int, unit) Hashtbl.t;  (* sites with a published plan *)
  en_decode : (int, unit) Hashtbl.t;  (* decoded sites *)
}

type t = {
  mu : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  (* conservation counters, all under [mu]: *)
  mutable blocks_published : int;  (* first claims: guest paid *)
  mutable blocks_shared : int;  (* later claims: charge elided *)
  mutable cyc_charged : int;  (* compile cycles paid by publishers *)
  mutable cyc_elided : int;  (* compile cycles moved off-guest *)
  mutable plans_published : int;
  mutable plans_shared : int;
  mutable preloaded : int;  (* recordings merged from disk *)
  mutable invalidations : int;  (* recipes dropped by patching *)
}

let create () =
  {
    mu = Mutex.create ();
    entries = Hashtbl.create 7;
    blocks_published = 0;
    blocks_shared = 0;
    cyc_charged = 0;
    cyc_elided = 0;
    plans_published = 0;
    plans_shared = 0;
    preloaded = 0;
    invalidations = 0;
  }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let entry_for t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e =
        {
          en_jit = Hashtbl.create 7;
          en_plans = Hashtbl.create 7;
          en_decode = Hashtbl.create 7;
        }
      in
      Hashtbl.replace t.entries key e;
      e

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

(** First claim of [(head, digest, path)] under [key] publishes the
    recording and returns [`Published] — the claimant pays the compile
    charge on-guest as usual. Any later identical claim returns
    [`Shared] and [cycles] is accumulated into the store's elision
    bucket; the claimant charges [Stats.cyc_compile_shared] instead. *)
let claim_block t ~key ~head ~digest ~path ~cycles =
  with_lock t (fun () ->
      let e = entry_for t key in
      let recipes =
        match Hashtbl.find_opt e.en_jit head with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.replace e.en_jit head r;
            r
      in
      if
        List.exists
          (fun r -> r.rc_digest = digest && path_equal r.rc_path path)
          !recipes
      then begin
        t.blocks_shared <- t.blocks_shared + 1;
        t.cyc_elided <- t.cyc_elided + cycles;
        `Shared
      end
      else begin
        recipes := { rc_digest = digest; rc_path = Array.copy path } :: !recipes;
        t.blocks_published <- t.blocks_published + 1;
        t.cyc_charged <- t.cyc_charged + cycles;
        `Published
      end)

(** Plan recipes ride along for gauge accounting only: plan gauges are
    part of the architectural fingerprint, so sharing never moves their
    charges — a hit here just bumps [Stats.cache_hits]. Returns [true]
    when the site's plan was already published. *)
let claim_plan t ~key ~site =
  with_lock t (fun () ->
      let e = entry_for t key in
      if Hashtbl.mem e.en_plans site then begin
        t.plans_shared <- t.plans_shared + 1;
        true
      end
      else begin
        Hashtbl.replace e.en_plans site ();
        t.plans_published <- t.plans_published + 1;
        false
      end)

let publish_decode t ~key ~sites =
  with_lock t (fun () ->
      let e = entry_for t key in
      List.iter (fun s -> Hashtbl.replace e.en_decode s ()) sites)

(** Trap-and-patch invalidation: drop every recording whose block
    touches [site], plus the site's plan/decode entries. The digest
    keying already makes stale claims impossible (the rewritten
    instruction's text changes the digest); this keeps the store from
    accumulating dead recipes. Returns the number of recordings
    dropped. *)
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
            e.en_jit;
          List.iter (Hashtbl.remove e.en_jit) !dead_heads;
          Hashtbl.remove e.en_plans site;
          Hashtbl.remove e.en_decode site;
          t.invalidations <- t.invalidations + !dropped;
          !dropped)

(* ------------------------------------------------------------------ *)
(* Introspection (tests, serve accounting)                             *)

type counters = {
  c_blocks_published : int;
  c_blocks_shared : int;
  c_cyc_charged : int;
  c_cyc_elided : int;
  c_plans_published : int;
  c_plans_shared : int;
  c_preloaded : int;
  c_invalidations : int;
}

let counters t =
  with_lock t (fun () ->
      {
        c_blocks_published = t.blocks_published;
        c_blocks_shared = t.blocks_shared;
        c_cyc_charged = t.cyc_charged;
        c_cyc_elided = t.cyc_elided;
        c_plans_published = t.plans_published;
        c_plans_shared = t.plans_shared;
        c_preloaded = t.preloaded;
        c_invalidations = t.invalidations;
      })

let block_count t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> 0
      | Some e -> Hashtbl.fold (fun _ r n -> n + List.length !r) e.en_jit 0)

let plan_sites t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> []
      | Some e ->
          List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) e.en_plans []))

let decode_sites t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> []
      | Some e ->
          List.sort compare
            (Hashtbl.fold (fun s () acc -> s :: acc) e.en_decode []))

let keys t =
  with_lock t (fun () ->
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.entries []))

(* ------------------------------------------------------------------ *)
(* Persistent cache files (level 2)                                    *)

let magic = "FPVMART1"
let format_version = 2

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "fpvm"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
          Filename.concat (Filename.concat h ".cache") "fpvm"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "fpvm-cache")

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
     varint:nplans { varint:site }*
     varint:ndecode { varint:site }*
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
          e.en_jit []
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
      let sites tbl =
        List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) tbl [])
      in
      let plan_sites = sites e.en_plans and decode_sites = sites e.en_decode in
      Wire.varint b (List.length plan_sites);
      List.iter (Wire.varint b) plan_sites;
      Wire.varint b (List.length decode_sites);
      List.iter (Wire.varint b) decode_sites;
      let sum = Wire.fnv64 Wire.fnv_basis (Buffer.contents b) in
      Wire.i64 b sum;
      Buffer.contents b)

(** Write [key]'s artifacts to its cache file under [dir] (atomic
    tmp-then-rename). Returns [false] on any IO failure. *)
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
  with _ -> false

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let merge_payload t ~key ~blocks ~plan_sites ~decode_sites =
  with_lock t (fun () ->
      let e = entry_for t key in
      let n = ref 0 in
      List.iter
        (fun (head, r) ->
          let recipes =
            match Hashtbl.find_opt e.en_jit head with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace e.en_jit head l;
                l
          in
          if
            not
              (List.exists
                 (fun r' ->
                   r'.rc_digest = r.rc_digest && path_equal r'.rc_path r.rc_path)
                 !recipes)
          then begin
            recipes := r :: !recipes;
            incr n
          end)
        blocks;
      List.iter (fun s -> Hashtbl.replace e.en_plans s ()) plan_sites;
      List.iter (fun s -> Hashtbl.replace e.en_decode s ()) decode_sites;
      t.preloaded <- t.preloaded + !n;
      !n)

(** Load [key]'s cache file from [dir] into the store. Returns [false]
    — leaving the store untouched — on a missing file, checksum or
    magic mismatch, version skew, or key mismatch: the caller just
    stays on the cold path. *)
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
          let nblocks = Wire.r_varint body pos in
          let blocks = ref [] in
          for _ = 1 to nblocks do
            let head = Wire.r_varint body pos in
            let digest = Wire.r_i64 body pos in
            let plen = Wire.r_varint body pos in
            let path =
              Array.init plen (fun _ ->
                  let idx = Wire.r_varint body pos in
                  let absorbed = Wire.r_bool body pos in
                  (idx, absorbed))
            in
            blocks := (head, { rc_digest = digest; rc_path = path }) :: !blocks
          done;
          let read_sites () =
            let n = Wire.r_varint body pos in
            List.init n (fun _ -> Wire.r_varint body pos)
          in
          let plan_sites = read_sites () in
          let decode_sites = read_sites () in
          ignore (merge_payload t ~key ~blocks:!blocks ~plan_sites ~decode_sites);
          true
        end
      end
    end
  with _ -> false

(* The committed oracle for jobs whose output no native run can check:
   per job spec, a digest of the output and serialized bytes, and a
   digest of [Stats.fingerprint]. It covers every non-vanilla solo job
   any seed can draw; [fpvm_bench bless] regenerates it. *)

let default_path = "bench/perf/expected.txt"

let output_digest (r : Fpvm.Engine.result) =
  Digest.to_hex
    (Digest.string (r.Fpvm.Engine.output ^ "\000" ^ r.Fpvm.Engine.serialized))

let fingerprint_digest (r : Fpvm.Engine.result) =
  Digest.to_hex (Digest.string (Fpvm.Stats.fingerprint r.Fpvm.Engine.stats))

type t = (string, string * string) Hashtbl.t

let load path : t =
  let t = Hashtbl.create 128 in
  (if Sys.file_exists path then
     let ic = open_in path in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         try
           while true do
             match String.split_on_char ' ' (input_line ic) with
             | [ spec; out; fp ] when spec <> "" && spec.[0] <> '#' ->
                 Hashtbl.replace t spec (out, fp)
             | _ -> ()
           done
         with End_of_file -> ()));
  t

(* [None] when the result matches; otherwise what is wrong. *)
let check (t : t) ~spec (r : Fpvm.Engine.result) =
  match Hashtbl.find_opt t spec with
  | None -> Some (Printf.sprintf "%s: no expected entry (run fpvm_bench bless)" spec)
  | Some (out, fp) ->
      if out <> output_digest r then Some (spec ^ ": output differs from expected")
      else if fp <> fingerprint_digest r then
        Some (spec ^ ": fingerprint differs from expected")
      else None

let run_spec (s : Jobs.spec) =
  let module A = (val Fleet.Port.arith s.Jobs.port) in
  let module E = Fpvm.Engine.Make (A) in
  E.run (Jobs.program s)

let bless path =
  let specs =
    List.concat_map Jobs.space [ Jobs.Libm_mpfr; Jobs.Debug_replay ]
    |> List.filter (fun (s : Jobs.spec) -> s.Jobs.port <> Fleet.Port.Vanilla)
  in
  let lines =
    List.map
      (fun s ->
        let r = run_spec s in
        Printf.sprintf "%s %s %s" (Jobs.name s) (output_digest r)
          (fingerprint_digest r))
      specs
    |> List.sort compare
  in
  let oc = open_out path in
  output_string oc
    "# fpvm_bench oracle: job spec, digest of output and serialized bytes, \
     digest of Stats.fingerprint.\n\
     # Regenerate with: dune exec bench/perf/fpvm_bench.exe -- bless\n";
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  List.length lines

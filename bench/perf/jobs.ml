(* The benchmark's workloads and the seeded jobs they run.

   A solo job is one guest program, built from a stock workload with
   seeded parameters, run under one arithmetic port. The seed draws the
   parameters, the job order and (for debug-replay) the NaN-injection
   site; the program under test receives only the built binary.

   Parameters are drawn by stratified sampling: a family's value range
   is cut into as many strata as the family has jobs per cycle, and
   each job draws from its own stratum. Every seed thus yields
   different programs with nearly the same mix of sizes, so the metrics
   move with the code under test, not with the seed. A run cycles
   through its seeded job list, so every job repeats exactly. *)

module W = Workloads
module Port = Fleet.Port

type kind =
  | Fbench of int (* iterations *)
  | Ep of int (* random pairs *)
  | Lorenz of int (* steps *)
  | Cg of int * int (* matrix order, CG iterations *)
  | Three_body of int (* steps *)
  | Lu of int (* grid size *)

type spec = { kind : kind; port : Port.t; nan_at : int option }

let kind_name = function
  | Fbench i -> Printf.sprintf "fbench:%d" i
  | Ep p -> Printf.sprintf "ep:%d" p
  | Lorenz s -> Printf.sprintf "lorenz:%d" s
  | Cg (n, it) -> Printf.sprintf "cg:%dx%d" n it
  | Three_body s -> Printf.sprintf "three-body:%d" s
  | Lu n -> Printf.sprintf "lu:%d" n

let name s =
  kind_name s.kind
  ^ (match s.nan_at with Some k -> Printf.sprintf "+nan%d" k | None -> "")
  ^ "@" ^ Port.to_string s.port

(* The family a job belongs to: its workload program and port. *)
let family s =
  List.hd (String.split_on_char ':' (kind_name s.kind)) ^ "@" ^ Port.to_string s.port

let program s =
  let p =
    match s.kind with
    | Fbench iterations -> W.Fbench.program ~iterations ()
    | Ep pairs -> W.Nas_ep.program ~pairs ()
    | Lorenz steps -> W.Lorenz.program ~steps ()
    | Cg (n, cg_iters) -> W.Nas_cg.program ~n ~cg_iters ()
    | Three_body steps -> W.Three_body.program ~steps ()
    | Lu n -> W.Nas_lu.program ~n ()
  in
  match s.nan_at with
  | Some nth -> Machine.Program.inject_nan p ~nth
  | None -> p

(* The workload module's pure-OCaml oracle for the same parameters; none
   for a program with an injected NaN (native execution is its oracle). *)
let reference s =
  match s.nan_at with
  | Some _ -> None
  | None -> (
      match s.kind with
      | Fbench iterations -> Some (W.Fbench.reference ~iterations ())
      | Ep pairs -> Some (W.Nas_ep.reference ~pairs ())
      | Lorenz steps -> Some (W.Lorenz.reference ~steps ())
      | Cg (n, cg_iters) -> Some (W.Nas_cg.reference ~n ~cg_iters ())
      | Three_body steps -> Some (W.Three_body.reference ~steps ())
      | Lu n -> Some (W.Nas_lu.reference ~n ()))

(* ---- workloads ---------------------------------------------------------- *)

type workload = Libm_mpfr | Trap_vanilla | Fleet_cold | Debug_replay

let workloads =
  [ (Libm_mpfr, "libm-mpfr"); (Trap_vanilla, "trap-vanilla");
    (Fleet_cold, "fleet-cold"); (Debug_replay, "debug-replay") ]

let workload_name w = List.assoc w workloads

let workload_of_name n =
  List.find_map (fun (w, s) -> if s = n then Some w else None) workloads

let default_seed = 1
let holdout_seed = 20261016

let mpfr = Port.Mpfr 200
let posit = Port.Posit 32

(* A family: candidate kinds in ascending size, the port, how many jobs
   of it one cycle holds, and its NaN-injection sites (none, or one per
   job of the cycle, dealt out in seeded order). *)
type family = {
  kinds : kind array;
  port : Port.t;
  per_cycle : int;
  nan_sites : int array;
}

let range lo step n f = Array.init n (fun i -> f (lo + (i * step)))

let families = function
  | Libm_mpfr ->
      [ { kinds = range 150 2 16 (fun i -> Fbench i); port = mpfr;
          per_cycle = 8; nan_sites = [||] };
        { kinds = range 2800 40 16 (fun p -> Ep p); port = mpfr; per_cycle = 8;
          nan_sites = [||] } ]
  | Trap_vanilla ->
      [ { kinds = range 11000 250 8 (fun s -> Lorenz s); port = Port.Vanilla;
          per_cycle = 4; nan_sites = [||] };
        { kinds = range 60 2 8 (fun it -> Cg (24, it)); port = Port.Vanilla;
          per_cycle = 4; nan_sites = [||] };
        { kinds = range 1300 50 8 (fun s -> Three_body s);
          port = Port.Vanilla; per_cycle = 4; nan_sites = [||] } ]
  | Debug_replay ->
      (* Injection sites whose NaN reaches the output along the same path,
         so that they cost the same modeled cycles. Native host time still
         depends on the site (soft-float NaN arithmetic is cheaper), so
         every cycle holds each site once. *)
      List.concat_map
        (fun port ->
          let fam kinds nan_sites = { kinds; port; per_cycle = 2; nan_sites } in
          [ fam (range 1200 20 4 (fun s -> Lorenz s)) [| 2; 8 |];
            fam (range 16 1 4 (fun it -> Cg (16, it))) [| 0; 6 |];
            (* LU's work grows as n^3, too coarse a step to vary *)
            fam [| Lu 13 |] [| 3; 5 |] ])
        [ Port.Vanilla; mpfr; posit ]
  | Fleet_cold -> []

let rng ~seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* One cycle of solo jobs: job [j] of a family draws its kind from
   stratum [j] of the family's candidates (a family with fewer candidates
   than jobs repeats them). *)
let cycle w ~seed : spec array =
  let st = rng ~seed (Hashtbl.hash (workload_name w)) in
  let jobs =
    List.concat_map
      (fun f ->
        let n = Array.length f.kinds in
        let sites = Array.copy f.nan_sites in
        shuffle st sites;
        List.init f.per_cycle (fun j ->
            let lo = j * n / f.per_cycle in
            let hi = max (lo + 1) ((j + 1) * n / f.per_cycle) in
            let kind = f.kinds.(lo + Random.State.int st (hi - lo)) in
            let nan_at = if sites = [||] then None else Some sites.(j) in
            { kind; port = f.port; nan_at }))
      (families w)
    |> Array.of_list
  in
  shuffle st jobs;
  jobs

(* Every solo job any seed can draw, for blessing the expected table. *)
let space w : spec list =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun kind ->
          if f.nan_sites = [||] then [ { kind; port = f.port; nan_at = None } ]
          else
            List.map
              (fun k -> { kind; port = f.port; nan_at = Some k })
              (Array.to_list f.nan_sites))
        (Array.to_list f.kinds))
    (families w)

(* ---- fleet-cold --------------------------------------------------------- *)

(* Each serve runs the ten stock binaries four times at test scale: two
   vanilla guests (which share JIT blocks through the artifact store),
   one mpfr:200 and one posit:32. The seed sets the manifest order,
   afresh for every serve. *)
let fleet_guests ~seed ~serve : Fleet.guest list =
  let guests =
    Array.of_list
      (List.concat_map
         (fun (e : W.entry) ->
           List.map (fun port -> (e.W.name, port)) [ Port.Vanilla; Port.Vanilla; mpfr; posit ])
         W.all)
  in
  shuffle (rng ~seed (1000 + serve)) guests;
  Array.to_list
    (Array.mapi
       (fun i (workload, port) ->
         { Fleet.g_id = i; g_workload = workload; g_scale = W.Test; g_port = port;
           g_config = Fpvm.Engine.default_config })
       guests)

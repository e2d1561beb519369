(* Numerical-quality telemetry (FlowFPX / NSan style).

   Two layers, both fed by the engine's [on_num] probe channel:

   1. Exception-flow tracking: per site, count NaN and Inf *births*
      (the result is NaN/Inf but no operand was), *propagations* (the
      result is and some operand was) and *kills* (an operand was but
      the result is not). All classification happens on the arith
      port's demoted binary64 images, so it works identically for
      every alternative system.

   2. Shadow-value divergence (--shadow-check): alongside the active
      port, re-run every operation in vanilla binary64 with
      {!Fpvm.Alt_vanilla} itself (the host's binary64 unit for add,
      sub, mul, div, sqrt and fma, the soft core for their NaN results
      and every other op, host libm) over shadow operands, keyed by the
      result's box pattern. At every demotion boundary sink (compare,
      print, serialize, f2i/f2f narrowing, correctness demotion)
      compare what the port produced against the shadow and histogram
      the relative error (log2 buckets). Under the vanilla port the
      shadow computation is the port computation, so the reported
      error is exactly zero — the built-in self-test.

      The shadow table is the shared self-healing one
      ({!Store.Values}): a lookup whose image no longer matches the
      one stored falls back to the image itself instead of a stale
      shadow. Producers the table does not model (i2f, rounds, f32
      promotions) have no entry and likewise fall back, so divergence
      resets rather than compounds. *)

module V = Fpvm.Alt_vanilla
module Isa = Machine.Isa
module F = Ieee754.Soft64

(* ---- vanilla expected-value model ------------------------------------- *)

let op_expected (op : Isa.fp_op) a b =
  match op with
  | Isa.FADD -> V.add a b
  | Isa.FSUB -> V.sub a b
  | Isa.FMUL -> V.mul a b
  | Isa.FDIV -> V.div a b
  | Isa.FMIN -> V.min_v a b
  | Isa.FMAX -> V.max_v a b
  | Isa.FSQRT -> V.sqrt b

(* The engine's libm compositions in the vanilla system: host libm for
   the primitives, Soft64 for the arithmetic glue. *)
module Libm = Fpvm.Arith.Libm (V)

let ext_expected (fn : Isa.ext_fn) a b =
  match Libm.math_ext fn with
  | `Unary f -> Some (f a)
  | `Binary f -> Some (f a b)
  | `Other -> None

(* ---- per-site exception-flow table ------------------------------------ *)

type site = {
  mutable ops : int;
  mutable nan_births : int;
  mutable nan_props : int;
  mutable nan_kills : int;
  mutable inf_births : int;
  mutable inf_props : int;
  mutable inf_kills : int;
  mutable sinks : int;
  mutable max_err : float;
}

let fresh_site () =
  { ops = 0; nan_births = 0; nan_props = 0; nan_kills = 0; inf_births = 0;
    inf_props = 0; inf_kills = 0; sinks = 0; max_err = 0.0 }

(* log2-bucketed relative-error histogram: bucket [k] counts errors in
   [2^(k-64), 2^(k-63)) for k in 0..64 (i.e. floor(log2 err) clamped to
   [-64, 0]; errors >= 1, including infinite divergence, land in the
   last bucket). Exact-zero comparisons are counted separately. *)
let n_buckets = 65

type t = {
  shadow_mode : bool;
  shadow : int64 Store.Values.t; (* box pattern -> vanilla shadow *)
  clean : (int -> bool) option;
      (* static birth-freedom facts (Analysis.Fpa): at a clean site the
         full per-op bookkeeping (site table, classification, shadow
         store) is elided — only a cheap birth-violation check runs,
         which doubles as the static-vs-dynamic soundness oracle. None
         (the default) = classic numprof, nothing elided. *)
  static_candidates : (int * string list) list;
      (* statically-flagged birth-candidate sites (index, risk tags)
         seeding the flow-chain report: where NaN/Inf *could* be born
         even if this run never witnessed it *)
  sites : site Store.Sites.t;
  mutable elided : int; (* op records skipped at proven-clean sites *)
  mutable nan_violations : int;
      (* dynamic NaN/Inf births at proven birth-free sites: any nonzero
         value is an FP-analysis soundness violation *)
  hist : int array;
  mutable exact : int; (* sinks with zero divergence *)
  mutable checked : int; (* sinks compared *)
  mutable max_rel_err : float;
  mutable max_err_site : int;
  mutable sink_compare : int;
  mutable sink_print : int;
  mutable sink_serialize : int;
  mutable sink_demote : int;
}

let create ?(shadow = false) ?clean ?(static_candidates = []) () =
  { shadow_mode = shadow;
    shadow = Store.Values.create (if shadow then 4096 else 1);
    clean;
    static_candidates;
    sites = Store.Sites.create fresh_site;
    elided = 0;
    nan_violations = 0;
    hist = Array.make n_buckets 0;
    exact = 0;
    checked = 0;
    max_rel_err = 0.0;
    max_err_site = -1;
    sink_compare = 0;
    sink_print = 0;
    sink_serialize = 0;
    sink_demote = 0 }

(* The elided fast path at a proven birth-free site: no site entry, no
   classification, no shadow store — just the soundness check that no
   NaN/Inf was in fact born here (the exact event classify would call a
   birth). *)
let check_clean t ~a ~b ~r ~unary =
  t.elided <- t.elided + 1;
  let op_nan = F.is_nan a || ((not unary) && F.is_nan b) in
  let op_inf = F.is_inf a || ((not unary) && F.is_inf b) in
  if (F.is_nan r && not op_nan) || (F.is_inf r && not op_inf) then
    t.nan_violations <- t.nan_violations + 1

let site_for t i = Store.Sites.get t.sites i

let classify s ~a ~b ~r ~unary =
  let op_nan = F.is_nan a || ((not unary) && F.is_nan b) in
  let op_inf = F.is_inf a || ((not unary) && F.is_inf b) in
  (if F.is_nan r then
     if op_nan then s.nan_props <- s.nan_props + 1
     else s.nan_births <- s.nan_births + 1
   else if op_nan then s.nan_kills <- s.nan_kills + 1);
  if F.is_inf r then begin
    if op_inf then s.inf_props <- s.inf_props + 1
    else s.inf_births <- s.inf_births + 1
  end
  else if op_inf && not (F.is_nan r) then s.inf_kills <- s.inf_kills + 1

(* Shadow of an operand: its stored vanilla value if the table still
   recognizes the box (image unchanged since store), else the port's
   own demoted image; raw (unboxed) machine words are their own
   binary64 shadow. *)
let shadow_of t bits image =
  if Fpvm.Nanbox.is_boxed bits then
    match Store.Values.find t.shadow bits ~image with
    | Some sh -> sh
    | None -> image
  else bits

let relerr x_bits y_bits =
  if Int64.equal x_bits y_bits then 0.0
  else
    let fx = Int64.float_of_bits x_bits in
    let fy = Int64.float_of_bits y_bits in
    let nx = Float.is_nan fx and ny = Float.is_nan fy in
    if nx && ny then 0.0
    else if nx || ny then infinity
    else if fx = fy then 0.0
    (* against an infinity the ratio below would be inf /. inf = nan *)
    else if Float.abs fx = infinity || Float.abs fy = infinity then infinity
    else
      let d = Float.abs (fx -. fy) in
      let m = Float.max (Float.abs fx) (Float.max (Float.abs fy) 1e-300) in
      d /. m

let bucket_of err =
  if err >= 1.0 then n_buckets - 1
  else
    let l = log err /. log 2.0 in
    let k = int_of_float (Float.floor l) + 64 in
    if k < 0 then 0 else if k > n_buckets - 1 then n_buckets - 1 else k

let observe_sink t index err =
  t.checked <- t.checked + 1;
  if err = 0.0 then t.exact <- t.exact + 1
  else begin
    t.hist.(bucket_of err) <- t.hist.(bucket_of err) + 1;
    if err > t.max_rel_err then begin
      t.max_rel_err <- err;
      t.max_err_site <- index
    end;
    let s = site_for t index in
    if err > s.max_err then s.max_err <- err
  end

let record t (ev : Fpvm.Probe.num) =
  match ev with
  | Fpvm.Probe.N_op { index; op; a_bits; b_bits; r_bits; a; b; r } -> (
      let unary = op = Isa.FSQRT in
      match t.clean with
      | Some clean when clean index -> check_clean t ~a ~b ~r ~unary
      | _ ->
          let s = site_for t index in
          s.ops <- s.ops + 1;
          classify s ~a ~b ~r ~unary;
          if t.shadow_mode then begin
            let sa = shadow_of t a_bits a in
            let sb = shadow_of t b_bits b in
            let expected = op_expected op sa sb in
            Store.Values.bind t.shadow r_bits ~image:r expected
          end)
  | Fpvm.Probe.N_ext { index; fn; unary; a_bits; b_bits; r_bits; a; b; r } -> (
      match t.clean with
      | Some clean when clean index -> check_clean t ~a ~b ~r ~unary
      | _ ->
          let s = site_for t index in
          s.ops <- s.ops + 1;
          classify s ~a ~b ~r ~unary;
          if t.shadow_mode then begin
            let sa = shadow_of t a_bits a in
            let sb = shadow_of t b_bits b in
            match ext_expected fn sa sb with
            | Some expected ->
                Store.Values.bind t.shadow r_bits ~image:r expected
            | None -> ()
          end)
  | Fpvm.Probe.N_sink { index; kind; bits; f64 } ->
      (match kind with
      | Fpvm.Probe.S_compare -> t.sink_compare <- t.sink_compare + 1
      | Fpvm.Probe.S_print -> t.sink_print <- t.sink_print + 1
      | Fpvm.Probe.S_serialize -> t.sink_serialize <- t.sink_serialize + 1
      | Fpvm.Probe.S_demote -> t.sink_demote <- t.sink_demote + 1);
      (site_for t index).sinks <- (site_for t index).sinks + 1;
      if t.shadow_mode then
        observe_sink t index (relerr f64 (shadow_of t bits f64))
  | Fpvm.Probe.N_rebox { old_bits; new_bits; _ } ->
      (* the shadow follows a re-boxed value, or every sink that reads
         it would silently heal to the port's own image *)
      if t.shadow_mode then Store.Values.rebox t.shadow ~old_bits ~new_bits

let max_rel_err t = t.max_rel_err

let totals t =
  Store.Sites.fold
    (fun _ s (nb, np, nk, ib, ip, ik) ->
      ( nb + s.nan_births, np + s.nan_props, nk + s.nan_kills,
        ib + s.inf_births, ip + s.inf_props, ik + s.inf_kills ))
    t.sites (0, 0, 0, 0, 0, 0)

(* Sites with any NaN/Inf traffic or divergence, hottest first by
   (births + props + kills, max_err). *)
let hot_sites t n =
  let score s =
    s.nan_births + s.nan_props + s.nan_kills + s.inf_births + s.inf_props
    + s.inf_kills
  in
  Store.Sites.fold
    (fun i s all -> if score s > 0 || s.max_err > 0.0 then (i, s) :: all else all)
    t.sites []
  |> List.sort (fun (i1, s1) (i2, s2) ->
         match compare (score s2) (score s1) with
         | 0 -> (
             match compare s2.max_err s1.max_err with
             | 0 -> compare i1 i2
             | c -> c)
         | c -> c)
  |> List.filteri (fun k _ -> k < n)

(* Which dynamic sites of this run were born at (for cross-referencing
   the static candidate list in the reports). *)
let births_at t i =
  match Store.Sites.find t.sites i with
  | Some s -> s.nan_births + s.inf_births
  | None -> 0

let report_text ?(n = 10) t bb =
  let nb, np, nk, ib, ip, ik = totals t in
  Buffer.add_string bb
    (Printf.sprintf
       "numerical telemetry: NaN birth/prop/kill %d/%d/%d, Inf birth/prop/kill %d/%d/%d\n"
       nb np nk ib ip ik);
  if t.elided > 0 || t.nan_violations > 0 then
    Buffer.add_string bb
      (Printf.sprintf
         "  static elision: %d op records skipped at proven birth-free sites, %d violations\n"
         t.elided t.nan_violations);
  (match t.static_candidates with
  | [] -> ()
  | cands ->
      Buffer.add_string bb
        (Printf.sprintf
           "  static birth candidates (%d sites flagged by the FP analysis):\n"
           (List.length cands));
      List.iter
        (fun (i, risks) ->
          let seen = births_at t i in
          Buffer.add_string bb
            (Printf.sprintf "    site %4d: %s%s\n" i
               (String.concat "," risks)
               (if seen > 0 then
                  Printf.sprintf "  (born %d times this run)" seen
                else "")))
        cands);
  if t.shadow_mode then begin
    Buffer.add_string bb
      (Printf.sprintf
         "shadow-check: %d sinks compared (%d exact), max relative error %.3e%s\n"
         t.checked t.exact t.max_rel_err
         (if t.max_err_site >= 0 then
            Printf.sprintf " at site %d" t.max_err_site
          else ""));
    let any = Array.exists (fun c -> c > 0) t.hist in
    if any then begin
      Buffer.add_string bb "  relative-error histogram (log2 buckets):\n";
      Array.iteri
        (fun k c ->
          if c > 0 then
            Buffer.add_string bb
              (if k = n_buckets - 1 then
                 Printf.sprintf "    2^>=0     : %d\n" c
               else Printf.sprintf "    2^%-4d    : %d\n" (k - 64) c))
        t.hist
    end
  end;
  match hot_sites t n with
  | [] -> ()
  | sites ->
      Buffer.add_string bb
        "  site      ops nan b/p/k       inf b/p/k       max_rel_err\n";
      List.iter
        (fun (i, s) ->
          Buffer.add_string bb
            (Printf.sprintf "  %4d %8d %5d/%-5d/%-5d %5d/%-5d/%-5d %.3e\n" i
               s.ops s.nan_births s.nan_props s.nan_kills s.inf_births
               s.inf_props s.inf_kills s.max_err))
        sites

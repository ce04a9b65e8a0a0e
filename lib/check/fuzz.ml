module Rng = Spr_util.Rng

type config = {
  seed : int;
  iters : int;
  max_threads : int;
  schedules : int;
  algos : Sp_check.algo list;
  sp_pairs : (Sp_check.algo * Sp_check.algo) list;
  hb_algos : Sp_check.algo list;
  om_suts : (string * (module Om_script.SUT)) list;
  om_pairs : (string * (module Om_script.SUT) * (module Om_script.SUT)) list;
  log : string -> unit;
  sink : Spr_obs.Sink.t;
}

(* Give a structure without a native self-check a vacuous one, so the
   SUT list stays uniform. *)
let no_invariants (module M : Spr_om.Om_intf.S) : (module Om_script.SUT) =
  (module struct
    include M

    let check_invariants _ = ()
  end)

let default_om_suts =
  [
    ("om", ((module Spr_om.Om) : (module Om_script.SUT)));
    ("om-packed", (module Spr_om.Om_packed));
    ("om-label", no_invariants (module Spr_om.Om_label));
    ("om-file", no_invariants (module Spr_om.Om_file));
    ("om-concurrent", (module Spr_om.Om_concurrent));
    ("om-concurrent2", (module Spr_om.Om_concurrent2));
  ]

(* Cross-validation pairs: candidate replayed with a non-naive oracle.
   The packed backend implements the exact same algorithm as the boxed
   two-level structure, so their answers must agree op for op — a much
   sharper check than each independently agreeing with the naive
   model's coarse total order. *)
let default_om_pairs =
  [
    ( "om-packed vs om-two-level",
      ((module Spr_om.Om_packed) : (module Om_script.SUT)),
      ((module Spr_om.Om) : (module Om_script.SUT)) );
  ]

(* SP-maintainer cross-validation pairs, same spirit: sp-depa computes
   the relation from immutable fork-path labels, sp-order from a live
   OM structure — totally different failure modes, so answer-for-answer
   agreement on every executed pair is a sharp check that costs no
   extra reference walk. *)
let default_sp_pairs =
  [
    ( ("sp-depa", Spr_core.Algorithms.sp_depa),
      ("sp-order", Spr_core.Algorithms.sp_order) );
    (* The fused backend reimplements the OM substrate (interleaved
       planes, shared slots, packed child-pair insert), so pin it
       answer-for-answer to the boxed reference. *)
    ( ("sp-order-fused", Spr_core.Algorithms.sp_order_fused),
      ("sp-order", Spr_core.Algorithms.sp_order) );
  ]

(* The independent voters compared against the fused baseline by the
   three-way race differential ([run_hb]): vector clocks and DePa's
   fork-path labels.  Each one replaces the SP oracle under the *same*
   detection pipeline, so any disagreement in races, racy locations or
   query counts is an oracle bug. *)
let default_hb_algos : Sp_check.algo list =
  [
    ("hb-vector", Spr_core.Algorithms.hb_vector);
    ("sp-depa", Spr_core.Algorithms.sp_depa);
  ]

let default ~seed ~iters =
  {
    seed;
    iters;
    max_threads = 32;
    schedules = 3;
    algos = Spr_core.Algorithms.all;
    sp_pairs = default_sp_pairs;
    hb_algos = default_hb_algos;
    om_suts = default_om_suts;
    om_pairs = default_om_pairs;
    log = ignore;
    sink = Spr_obs.Sink.null;
  }

(* Every iteration gets an independent generator, so a repro depends
   only on (seed, iteration). *)
let iter_rng cfg i = Rng.create ((cfg.seed * 1_000_003) + i)

let count cfg key =
  match Spr_obs.Sink.metrics cfg.sink with
  | None -> ()
  | Some m -> Spr_obs.Metrics.incr (Spr_obs.Metrics.counter m key)

let progress cfg i what =
  let every = max 1 (cfg.iters / 10) in
  if i > 0 && i mod every = 0 then cfg.log (Printf.sprintf "%s: %d/%d iterations" what i cfg.iters)

(* ------------------------------------------------------------------ *)
(* SP maintainers                                                      *)

type sp_failure = {
  sp_iter : int;
  sp_spec : Prog_spec.t;
  sp_threads : int;
  sp_divergence : Sp_check.divergence;
}

let pp_sp_failure fmt f =
  Format.fprintf fmt
    "@[<v>SP divergence at iteration %d:@,  %a@,shrunk repro (%d threads), as Prog_spec.t:@,  %a@]"
    f.sp_iter Sp_check.pp_divergence f.sp_divergence f.sp_threads Prog_spec.pp f.sp_spec

let shapes = [| `Uniform; `Deep_serial; `Wide; `Spawn_heavy |]

let run_sp cfg =
  let rec iterate i =
    if i >= cfg.iters then None
    else begin
      progress cfg i "sp";
      let rng = iter_rng cfg i in
      let threads = 2 + Rng.int rng (max 1 (cfg.max_threads - 1)) in
      let shape = shapes.(i mod Array.length shapes) in
      let program = Spr_workloads.Progs.random_adversarial ~rng ~threads ~shape () in
      (* The battery configuration is fixed per iteration so that the
         shrinking predicate replays the exact same checks. *)
      let unfold_seeds = [ (2 * i) + 1; (2 * i) + 2 ] in
      let hybrid =
        List.init cfg.schedules (fun k -> (1 + ((i + k) mod 8), (i * 31) + k))
      in
      let diverges spec =
        Sp_check.check_program ~sink:cfg.sink ~algos:cfg.algos ~pairs:cfg.sp_pairs
          ~unfold_seeds ~schedules:hybrid
          (Prog_spec.to_program spec)
      in
      count cfg "fuzz/sp_programs";
      let spec = Prog_spec.of_program program in
      match diverges spec with
      | None -> iterate (i + 1)
      | Some d ->
          cfg.log (Format.asprintf "sp: divergence at iteration %d (%a), shrinking..." i
                     Sp_check.pp_divergence d);
          let shrunk =
            Shrink.fixpoint ~candidates:Prog_spec.candidates
              ~still_failing:(fun s -> diverges s <> None)
              spec
          in
          let d = match diverges shrunk with Some d -> d | None -> d in
          Some
            {
              sp_iter = i;
              sp_spec = shrunk;
              sp_threads = Prog_spec.thread_count shrunk;
              sp_divergence = d;
            }
    end
  in
  iterate 0

(* ------------------------------------------------------------------ *)
(* Happens-before triples                                              *)

type hb_failure = {
  hb_iter : int;
  hb_algo : string;
  hb_seed : int;
  hb_spec : Prog_spec.t;
  hb_threads : int;
  hb_detail : string;
}

let pp_hb_failure fmt f =
  Format.fprintf fmt
    "@[<v>HB oracle divergence at iteration %d (%s vs sp-order-fused):@,\
    \  %s@,\
     shrunk repro (%d threads, accesses from seed %d), as Prog_spec.t:@,\
    \  %a@]"
    f.hb_iter f.hb_algo f.hb_detail f.hb_threads f.hb_seed Prog_spec.pp f.hb_spec

(* Specs carry structure only, but the race oracle needs accesses.
   Decorate every thread with a few seeded accesses as a pure function
   of (seed, spec traversal order), so the shrinking predicate stays
   deterministic: the same spec always yields the same program, and a
   smaller spec gets a (different but fixed) smaller decoration. *)
let decorated_program ~seed spec =
  let module Fj = Spr_prog.Fj_program in
  let rng = Rng.create seed in
  let locs = 8 in
  let b = Fj.Builder.create () in
  let rec proc_of spec =
    Fj.Builder.proc b
      (List.map
         (List.map (function
           | Prog_spec.T cost ->
               let accesses =
                 List.init
                   (1 + Rng.int rng 3)
                   (fun _ ->
                     { Fj.loc = Rng.int rng locs; write = Rng.int rng 2 = 0; locks = [] })
               in
               Fj.Run (Fj.Builder.thread b ~accesses ~cost ())
           | Prog_spec.S p -> Fj.Spawn (proc_of p)))
         spec)
  in
  Fj.Builder.finish b (proc_of (Prog_spec.normalize spec))

let race_repr (r : Spr_race.Detector.race) =
  Printf.sprintf "loc=%d %d(%c)->%d(%c)" r.Spr_race.Detector.loc r.Spr_race.Detector.earlier
    (if r.Spr_race.Detector.earlier_write then 'w' else 'r')
    r.Spr_race.Detector.later
    (if r.Spr_race.Detector.later_write then 'w' else 'r')

(* The three-way differential: the detection pipeline's full output
   (race reports in order, racy locations, SP query count) must be
   identical whichever oracle answers the SP queries. *)
let compare_serial (want : Spr_race.Drivers.serial_result)
    (got : Spr_race.Drivers.serial_result) =
  let wr = List.map race_repr want.Spr_race.Drivers.races
  and gr = List.map race_repr got.Spr_race.Drivers.races in
  if wr <> gr then
    Some
      (Printf.sprintf "races differ: baseline [%s], candidate [%s]" (String.concat "; " wr)
         (String.concat "; " gr))
  else if want.Spr_race.Drivers.racy_locs <> got.Spr_race.Drivers.racy_locs then
    Some
      (Printf.sprintf "racy locs differ: baseline [%s], candidate [%s]"
         (String.concat "; " (List.map string_of_int want.Spr_race.Drivers.racy_locs))
         (String.concat "; " (List.map string_of_int got.Spr_race.Drivers.racy_locs)))
  else if want.Spr_race.Drivers.sp_queries <> got.Spr_race.Drivers.sp_queries then
    Some
      (Printf.sprintf "SP query counts differ: baseline %d, candidate %d"
         want.Spr_race.Drivers.sp_queries got.Spr_race.Drivers.sp_queries)
  else None

let run_hb cfg =
  let detect make p =
    Spr_race.Drivers.detect_serial (Spr_prog.Prog_tree.of_program p) make
  in
  let rec iterate i =
    if i >= cfg.iters then None
    else begin
      progress cfg i "hb";
      let rng = iter_rng cfg i in
      let threads = 2 + Rng.int rng (max 1 (cfg.max_threads - 1)) in
      let shape = shapes.(i mod Array.length shapes) in
      let program = Spr_workloads.Progs.random_adversarial ~rng ~threads ~shape () in
      let access_seed = (cfg.seed * 7_368_787) + i in
      let diverges spec =
        let p = decorated_program ~seed:access_seed spec in
        let base = detect Spr_core.Algorithms.sp_order_fused p in
        let rec first = function
          | [] -> None
          | (name, make) :: rest -> (
              match compare_serial base (detect make p) with
              | None -> first rest
              | Some detail -> Some (name, detail))
        in
        first cfg.hb_algos
      in
      count cfg "fuzz/hb_programs";
      let spec = Prog_spec.of_program program in
      match diverges spec with
      | None -> iterate (i + 1)
      | Some (name, detail) ->
          cfg.log
            (Printf.sprintf "hb: divergence at iteration %d (%s: %s), shrinking..." i name detail);
          let shrunk =
            Shrink.fixpoint ~candidates:Prog_spec.candidates
              ~still_failing:(fun s -> diverges s <> None)
              spec
          in
          let name, detail =
            match diverges shrunk with Some nd -> nd | None -> (name, detail)
          in
          Some
            {
              hb_iter = i;
              hb_algo = name;
              hb_seed = access_seed;
              hb_spec = shrunk;
              hb_threads = Prog_spec.thread_count shrunk;
              hb_detail = detail;
            }
    end
  in
  iterate 0

(* ------------------------------------------------------------------ *)
(* Order maintenance                                                   *)

type om_failure = {
  om_iter : int;
  om_structure : string;
  om_script : Om_script.script;
  om_divergence : Om_script.divergence;
}

let pp_om_failure fmt f =
  Format.fprintf fmt
    "@[<v>OM divergence at iteration %d (%s):@,  %a@,shrunk script, as Om_script.script:@,  %a@]"
    f.om_iter f.om_structure Om_script.pp_divergence f.om_divergence Om_script.pp f.om_script

let mixes = [| Om_script.Uniform; Om_script.Delete_heavy; Om_script.Head_heavy |]

let run_om cfg =
  let rec iterate i =
    if i >= cfg.iters then None
    else begin
      progress cfg i "om";
      let rng = iter_rng cfg i in
      let mix = mixes.(i mod Array.length mixes) in
      let len = 30 + Rng.int rng 170 in
      let script = Om_script.random_script ~rng ~mix ~len in
      count cfg "fuzz/om_scripts";
      (* Uniform check list: each SUT against the naive oracle, then
         each cross-validation pair against its own oracle. *)
      let checks =
        List.map
          (fun (n, sut) -> (n, fun s -> Om_script.replay ~sink:cfg.sink sut s))
          cfg.om_suts
        @ List.map
            (fun (n, sut, oracle) ->
              (n, fun s -> Om_script.replay_vs ~sink:cfg.sink ~oracle sut s))
            cfg.om_pairs
      in
      let rec first_failing = function
        | [] -> None
        | (sut_name, check) :: rest -> (
            match check script with
            | None -> first_failing rest
            | Some d ->
                cfg.log
                  (Format.asprintf "om: divergence at iteration %d (%a), shrinking..." i
                     Om_script.pp_divergence d);
                let still_failing ops = check ops <> None in
                let shrunk = Shrink.list ~still_failing script in
                let d = match check shrunk with Some d -> d | None -> d in
                Some
                  { om_iter = i; om_structure = sut_name; om_script = shrunk; om_divergence = d })
      in
      match first_failing checks with None -> iterate (i + 1) | f -> f
    end
  in
  iterate 0

(* Metric definitions, the printed table, metrics.json, the one-line
   result and [spbench compare]. *)

module Stats = Spr_util.Stats
module J = Spr_obs.Json

type kind =
  | Count  (** fixed by the seed; the smoke test pins these *)
  | Time  (** repeated timings of the same work; spread-flagged *)
  | Measured  (** measured once, or over different requests *)

type metric = { name : string; unit : string; kind : kind; samples : float array; value : float }

let metric ?value kind name unit samples =
  let value = match value with Some v -> v | None -> Stats.median samples in
  { name; unit; kind; samples; value }

let end_to_end (m : Measure.t) =
  let per_pass f = Array.map f m.pass_s in
  [
    metric Time "events_per_s" "1/s" (per_pass (fun s -> float_of_int m.totals.events /. s));
    metric Time "traces_per_s" "1/s" (per_pass (fun s -> float_of_int m.totals.programs /. s));
    metric ~value:(Stats.quantile m.latency_us 0.5) Measured "trace_p50_us" "us" m.latency_us;
    metric ~value:(Stats.quantile m.latency_us 0.99) Measured "trace_p99_us" "us" m.latency_us;
    metric Time "setup_s" "s" m.setup_s;
    metric Measured "resident_mb" "MB" [| m.resident_mb |];
  ]

(* Ratios over the traced passes.  A layer a workload does not run
   reports 0. *)
let per_layer (m : Measure.t) (passes : Replay.pass array) ~inproc =
  let p0 = passes.(0) in
  let sharded = Array.length p0.shard_accesses > 1 in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per s n = if n = 0 then 0.0 else s /. float_of_int n in
  let count name unit v = metric Count name unit [| v |] in
  let time name unit f = metric Time name unit (Array.map f passes) in
  let skew =
    if not sharded then 1.0
    else
      let a = Array.map float_of_int p0.shard_accesses in
      Array.fold_left Float.max 0.0 a /. Stats.mean a
  in
  let traced (p : Replay.pass) =
    if inproc then p.create_s +. p.run_s +. p.result_s else p.programs_s
  in
  let untraced = Stats.median m.pass_s in
  [
    time "codec.ns_per_frame" "ns" (fun p -> per (p.codec_s *. 1e9) p.frames);
    count "codec.bytes_per_event" "B" (ratio p0.bytes p0.frames);
    time "sp_order.ns_per_enter" "ns" (fun p -> per (p.order_s *. 1e9) p.enters);
    count "sp_order.enters_per_event" "ratio" (ratio p0.enters p0.frames);
    count "sp_order.items_moved_per_enter" "ratio" (ratio p0.moved p0.enters);
    count "sp_order.relabel_passes" "count" (float_of_int p0.relabels);
    time "sp_order.reset_us" "us" (fun p -> per (p.order_reset_s *. 1e6) p.programs);
    time "sp_query.ns_per_query" "ns" (fun p -> per (p.query_s *. 1e9) p.calls);
    count "sp_query.queries_per_access" "ratio" (ratio p0.queries p0.accesses);
    (* Sharded, the detector runs inside the drains. *)
    time "detector.self_ns_per_access" "ns" (fun p ->
        per (((if sharded then p.drain_s else p.detector_s) -. p.query_s) *. 1e9) p.accesses);
    count "detector.accesses_per_event" "ratio" (ratio p0.accesses p0.frames);
    count "detector.races" "count" (float_of_int p0.races);
    time "detector.reset_us" "us" (fun p -> per (p.detector_reset_s *. 1e6) p.programs);
    time "shard.push_ns_per_access" "ns" (fun p ->
        if sharded then per ((p.detector_s -. p.flush_s) *. 1e9) p.accesses else 0.0);
    time "shard.drain_ns_per_access" "ns" (fun p -> per (p.drain_s *. 1e9) p.accesses);
    time "shard.wait_frac" "frac" (fun p -> if sharded then p.wait_s /. p.detector_s else 0.0);
    count "shard.flushes" "count" (float_of_int p0.flushes);
    count "shard.skew" "ratio" skew;
    metric Measured "server.collect_us_per_trace" "us" [| m.collect_us |];
    metric Measured "server.minor_words_per_event" "words" [| m.minor_words_per_event |];
    time "drivers.create_ns_per_event" "ns" (fun p -> per (p.create_s *. 1e9) p.frames);
    time "drivers.run_ns_per_event" "ns" (fun p -> per (p.run_s *. 1e9) p.frames);
    time "drivers.result_us_per_program" "us" (fun p -> per (p.result_s *. 1e6) p.programs);
    metric Measured "trace.overhead_frac" "frac"
      [| (Stats.median (Array.map traced passes) -. untraced) /. untraced |];
  ]

(* Counters fixed by the seed, printed beside the metrics they
   explain. *)
let counters (m : Measure.t) (passes : Replay.pass array) =
  let t = m.totals in
  [
    ("programs", t.programs);
    ("events", t.events);
    ("accesses", t.accesses);
    ("races", t.races);
    ("sp_queries", t.sp_queries);
  ]
  @
  match passes with
  | [||] -> []
  | _ ->
      let p = passes.(0) in
      [
        ("enters", p.enters);
        ("relabel_passes", p.relabels);
        ("items_moved", p.moved);
        ("flushes", p.flushes);
      ]

let quartiles m = (Stats.quantile m.samples 0.25, Stats.quantile m.samples 0.75)

(* ROADMAP's spread rule for repeated timings. *)
let spread_flag m =
  let q25, q75 = quartiles m in
  m.kind = Time && Array.length m.samples > 1 && q25 > 0.0 && q75 /. q25 > 1.3

let num v = Printf.sprintf "%.6g" v

(* [workload metric value unit], then n/median/q25/q75.  [mask] hides
   everything but counts, for the smoke test. *)
let row ~mask workload m =
  let head v = Printf.sprintf "%-13s %-32s %12s %s" workload m.name v m.unit in
  match m.kind with
  | Count -> head (num m.value)
  | Time | Measured when mask -> head "-"
  | Time | Measured ->
      let q25, q75 = quartiles m in
      Printf.sprintf "%-13s %-32s %12s %-5s n=%d median=%s q25=%s q75=%s%s" workload m.name
        (num m.value) m.unit (Array.length m.samples)
        (num (Stats.median m.samples))
        (num q25) (num q75)
        (if spread_flag m then "  SPREAD q75/q25>1.3" else "")

let error_frac ~attempted ~failed = float_of_int failed /. float_of_int (max 1 attempted)

let workload_json ~name ~attempted ~failed ~counters metrics =
  J.Obj
    [
      ("name", J.String name);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("error_frac", J.Float (error_frac ~attempted ~failed));
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters));
      ( "metrics",
        J.Obj
          (List.map
             (fun m ->
               let q25, q75 = quartiles m in
               ( m.name,
                 J.Obj
                   [
                     ("value", J.Float m.value);
                     ("unit", J.String m.unit);
                     ("n", J.Int (Array.length m.samples));
                     ("q25", J.Float q25);
                     ("q75", J.Float q75);
                   ] ))
             metrics) );
    ]

(* The last line of a one-workload run. *)
let result_line ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (failed = 0));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit) ]))
                metrics) );
       ])

(* --- compare ------------------------------------------------------- *)

exception Bad_input of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_input s)) fmt

let read_json path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> bad "%s: %s" path e
  | exception Sys_error e -> bad "%s" e

let field path key j = match J.member key j with Some v -> v | None -> bad "%s: no %S" path key

let number = function J.Int i -> float_of_int i | J.Float f -> f | _ -> nan

(* (name, better, bound) of every end-to-end metric BENCHMARK.json
   bounds. *)
let bounds path =
  match field path "end_to_end" (read_json path) with
  | J.List ms ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "better" m, J.member "bound" m) with
          | Some (J.String n), Some (J.String b), Some x -> (n, b, number x)
          | _ -> bad "%s: malformed end_to_end entry" path)
        ms
  | _ -> bad "%s: end_to_end is not a list" path

(* workload -> metric -> value, from one metrics.json. *)
let values path =
  match field path "workloads" (read_json path) with
  | J.List ws ->
      List.map
        (fun w ->
          let name =
            match field path "name" w with J.String s -> s | _ -> bad "%s: bad name" path
          in
          let ms = match field path "metrics" w with J.Obj kvs -> kvs | _ -> [] in
          (name, List.map (fun (k, v) -> (k, number (field path "value" v))) ms))
        ws
  | _ -> bad "%s: workloads is not a list" path

(* Medians over each side's files, checked per (metric, workload) pair;
   returns the exit code. *)
let compare ~bounds:bounds_path base_files new_files =
  try
    let bounds = bounds bounds_path in
    let base = List.map values base_files and next = List.map values new_files in
    let median side workload metric =
      let vs =
        List.filter_map
          (fun runs -> Option.bind (List.assoc_opt workload runs) (List.assoc_opt metric))
          side
      in
      if List.length vs <> List.length side then None else Some (Stats.median (Array.of_list vs))
    in
    let workloads = match base with runs :: _ -> List.map fst runs | [] -> [] in
    let breaches = ref 0 in
    List.iter
      (fun w ->
        List.iter
          (fun (metric, better, bound) ->
            match (median base w metric, median next w metric) with
            | Some b, Some n ->
                let worse = (if better = "lower" then n -. b else b -. n) /. b in
                let ok = worse <= bound in
                if not ok then incr breaches;
                Printf.printf "%-13s %-14s %12s -> %12s  %+7.2f%% worse (bound %.0f%%)  %s\n" w
                  metric (num b) (num n) (100.0 *. worse) (100.0 *. bound)
                  (if ok then "ok" else "BREACH")
            | _ ->
                incr breaches;
                Printf.printf "%-13s %-14s missing on one side  BREACH\n" w metric)
          bounds)
      workloads;
    if workloads = [] then bad "no workloads in %s" (String.concat "," base_files);
    Printf.printf "compare: %d breach(es) over %d pair(s)\n" !breaches
      (List.length workloads * List.length bounds);
    if !breaches = 0 then 0 else 1
  with Bad_input msg ->
    Printf.eprintf "spbench compare: %s\n" msg;
    2

(* Benchmark regression gates.

   Five modes:

     regress BASELINE.json CANDIDATE.json [--threshold R]
       Compare bench --json files (schema bench_json.ml).  Every entry
       in the baseline must be present in the candidate, matched on
       (experiment, backend, pattern, n, metric).  Rules:
         - kind "time":    fail if candidate median > R x baseline
                           median (default R = 1.5; CI uses 3.0 to
                           absorb machine-to-machine variance);
         - kind "counter": fail on any drift beyond float noise —
                           counters are deterministic for the fixed
                           seed, so a change means the algorithm
                           changed and the baseline needs a deliberate
                           refresh.
       Baseline entries with no candidate match fail the run and are
       named in the summary line; an empty baseline is an error, not a
       silent pass.

     regress --alloc-gate [--plant] [--iters N]
       Drive the sp-order-packed (Om_packed) delete/insert/relabel/
       query steady state — with a flight-recorder-armed sink, i.e.
       the always-on production configuration — under
       Spr_obs.Probe.alloc_words and fail unless it allocated zero
       minor-heap words.  --plant plants one allocation per iteration
       so CI can check the gate actually trips.

     regress --alloc-gate --ingest [--plant] [--iters N]
       The end-to-end variant, for both detectors that drive the
       Spr_core.Sp_stream construction, over three race-free programs
       that take every branch of it.  Each iteration is one full
       Spr_ingest.Server.drive over their captured trace (header
       check, every frame decoded, every shadow access and SP query)
       in one probe region, and one Spr_race.Drivers.Fused.run on each
       program (the in-memory walk, every access and query) in the
       other.  Either region reading a minor-heap word fails the gate.

     regress --collect-gate [--plant]
       A same-process ratio gate.  On one resident
       Spr_ingest.Server, alternate 9 passes of run_string
       ~collect:true with 9 passes of drive over ~1,000 single-program
       traces of the small-traces kinds, and fail if the median
       collect/drive ratio exceeds its bound: materializing each
       program's races and racy locations must stay a small surcharge
       on detecting them.  --plant runs the collect side twice, which
       must trip the gate.

     regress --inproc-gate [--plant]
       A same-process ratio gate for the resident serial detector.
       Over ~300,000 access events of spmix programs, alternate 9
       passes of Spr_race.Drivers.detect_serial_fused on each program
       with 9 passes of run_string ~collect:true on each program's
       trace through one resident Spr_ingest.Server (both sides build
       the same result lists), and fail if the median fused/server
       ratio exceeds its bound: detecting a program in memory must not
       cost more than decoding and detecting its trace.  --plant runs
       the fused side on a fresh pipeline per program (Fused.create +
       run + result), which must trip the gate.

     regress --probe-gate [--max-ns F]
       Bechamel-measure an uninstalled Spr_obs.Probe.span and fail if
       it estimates above F ns/span (default 5.0) — the "one atomic
       load" claim, kept honest.

   Exit codes: 0 clean, 1 gate failed, 2 usage or parse error.  To
   refresh the committed baseline after an intentional change:
   dune exec bench/main.exe -- om --json BENCH_om.json *)

module J = Spr_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("regress: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Mode 1: baseline/candidate comparison.                              *)

let load path =
  let ic = try open_in path with Sys_error e -> die "%s" e in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match J.of_string s with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let get_string key j =
  match J.member key j with Some (J.String s) -> s | _ -> die "entry missing %S" key

let get_int key j =
  match J.member key j with Some (J.Int i) -> i | _ -> die "entry missing %S" key

let get_num key j =
  match J.member key j with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> die "entry missing %S" key

let entries path j =
  match J.member "entries" j with
  | Some (J.List es) -> es
  | _ -> die "%s: no \"entries\" array (not a bench --json file?)" path

let entry_key e =
  Printf.sprintf "%s/%s/%s/n=%d/%s" (get_string "experiment" e) (get_string "backend" e)
    (get_string "pattern" e) (get_int "n" e) (get_string "metric" e)

let compare_mode base_path cand_path threshold =
  let base = load base_path and cand = load cand_path in
  let base_entries = entries base_path base in
  if base_entries = [] then
    die "%s: baseline has no entries — nothing would be checked" base_path;
  let cand_tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace cand_tbl (entry_key e) e) (entries cand_path cand);
  let failures = ref 0 in
  let checked = ref 0 in
  let missing = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; Printf.printf "FAIL %s\n" s) fmt in
  List.iter
    (fun b ->
      let key = entry_key b in
      incr checked;
      match Hashtbl.find_opt cand_tbl key with
      | None ->
          missing := key :: !missing;
          fail "%s: missing from candidate" key
      | Some c -> (
          let bm = get_num "median" b and cm = get_num "median" c in
          match get_string "kind" b with
          | "time" ->
              if cm > bm *. threshold then
                fail "%s: median %.1f vs baseline %.1f (%.2fx > %.2fx threshold)" key cm bm
                  (cm /. bm) threshold
          | "counter" ->
              let tol = 1e-6 *. Float.max 1.0 (Float.abs bm) in
              if Float.abs (cm -. bm) > tol then
                fail "%s: counter %.6f vs baseline %.6f — deterministic counter drifted; \
                      refresh the baseline if the change is intentional"
                  key cm bm
          | k -> fail "%s: unknown kind %S" key k))
    base_entries;
  if !missing <> [] then
    Printf.printf "regress: %d baseline entr%s missing from candidate: %s\n"
      (List.length !missing)
      (if List.length !missing = 1 then "y" else "ies")
      (String.concat ", " (List.rev !missing));
  if !failures > 0 then begin
    Printf.printf "regress: %d/%d entries FAILED (threshold %.2fx)\n" !failures !checked threshold;
    exit 1
  end
  else Printf.printf "regress: OK — %d entries within %.2fx of baseline\n" !checked threshold

(* ------------------------------------------------------------------ *)
(* Mode 2: the allocation gate.                                        *)

module P = Spr_om.Om_packed
module Probe = Spr_obs.Probe

(* The packed-OM steady state: a window of elements cycling through
   delete -> insert_after (which triggers respace/rebalance relabels
   and bucket splits against recycled slots) -> precedes queries.  All
   index arithmetic is deterministic and allocation-free; anchors and
   query operands are fixed elements outside the churn window. *)
let alloc_gate ~plant ~iters () =
  let om = P.create () in
  (* Always-on production shape: flight recorder armed, no trace
     buffer — the relabel/split events go through the typed no-alloc
     emitters into plain int rings. *)
  let flight = Spr_obs.Flight.create ~lanes:1 ~capacity:256 () in
  let sink = Spr_obs.Sink.make ~flight () in
  P.set_sink om sink;
  let n_anchors = 64 and window = 4096 in
  let anchors = Array.init n_anchors (fun _ -> P.base om) in
  let a = ref (P.base om) in
  for i = 0 to n_anchors - 1 do
    a := P.insert_after om !a;
    anchors.(i) <- !a
  done;
  (* Bucket-slot slack: grow past the steady population, then delete,
     leaving recycled item and bucket slots for the churn to reuse. *)
  let extra = Array.init (2 * window) (fun i -> ignore i; P.insert_after om anchors.(0)) in
  Array.iter (fun e -> P.delete om e) extra;
  let handles = Array.init window (fun i -> P.insert_after om anchors.(i mod n_anchors)) in
  let qa = Array.init 128 (fun i -> anchors.(i mod n_anchors)) in
  let qb = Array.init 128 (fun i -> handles.(i * 31 mod window)) in
  let hits = ref 0 in
  let steady k =
    for iter = 0 to k - 1 do
      let slot = iter * 17 mod window in
      P.delete om handles.(slot);
      handles.(slot) <- P.insert_after om anchors.(iter * 7 mod n_anchors);
      let q = iter mod 128 in
      if P.precedes om qa.(q) handles.(slot) then incr hits;
      if P.precedes om handles.(slot) qb.(q) then incr hits;
      if plant then ignore (Sys.opaque_identity (ref iter))
    done
  in
  (* Reach steady state (slot high-water marks, bucket population)
     before measuring: run the identical loop unmeasured first. *)
  steady (3 * iters);
  let slots0 = P.item_slots om and bslots0 = P.bucket_slots om in
  (* The gate proper: measure with probes uninstalled, so the loop is
     exactly the production configuration. *)
  let (), words = Probe.alloc_words (fun () -> steady iters) in
  (* Attribution pass for the report: same loop again under an
     installed probe, with GC pauses bridged from runtime events. *)
  Probe.install ~runtime_events:true ();
  let region = Probe.region "sp-order-packed/steady" in
  Probe.span region (fun () -> steady iters);
  Probe.uninstall ();
  Printf.printf "alloc-gate: %d iterations of sp-order-packed delete/insert/relabel/query\n"
    iters;
  Printf.printf "alloc-gate: minor-heap words in steady state: %d%s\n" words
    (if plant then " (with planted allocation)" else "");
  Printf.printf "alloc-gate: item slots %d -> %d, bucket slots %d -> %d, flight events %d\n"
    slots0 (P.item_slots om) bslots0 (P.bucket_slots om)
    (Spr_obs.Flight.lane_length flight 0 + Spr_obs.Flight.lane_dropped flight 0);
  Format.printf "%a" Probe.pp_snapshot
    (List.filter (fun (n, _) -> n = "sp-order-packed/steady") (Probe.snapshot ()));
  ignore !hits;
  if words > 0 then begin
    Printf.printf "alloc-gate: FAIL — steady state allocated on the minor heap\n";
    exit 1
  end
  else Printf.printf "alloc-gate: OK — steady state is allocation-free\n"

(* ------------------------------------------------------------------ *)
(* Mode 2b: the end-to-end allocation gate.                            *)

module Fj = Spr_prog.Fj_program

(* A deterministic, race-free program with real SP structure: thread
   w0 writes the shared location in the main procedure's first sync
   block, then a depth-[d] spawn tree runs — every leaf reads the
   shared location (w0 precedes them all, so the reads exercise
   writer-precedes and reader-subsumption queries without racing) and
   writes one private location. *)
let e2e_program ~depth =
  let b = Fj.Builder.create () in
  let next = ref 0 in
  let fresh_loc () = incr next; !next in
  let shared = 0 in
  let worker () =
    Fj.Builder.thread b
      ~accesses:
        [
          { Fj.loc = shared; write = false; locks = [] };
          { Fj.loc = fresh_loc (); write = true; locks = [] };
        ]
      ~cost:1 ()
  in
  let rec sub d =
    if d = 0 then Fj.Builder.proc b [ [ Fj.Run (worker ()) ] ]
    else
      Fj.Builder.proc b
        [ [ Fj.Spawn (sub (d - 1)); Fj.Spawn (sub (d - 1)); Fj.Run (worker ()) ] ]
  in
  let w0 =
    Fj.Builder.thread b ~accesses:[ { Fj.loc = shared; write = true; locks = [] } ] ~cost:1 ()
  in
  let main =
    Fj.Builder.proc b [ [ Fj.Run w0 ]; [ Fj.Spawn (sub depth); Fj.Run (worker ()) ] ]
  in
  Fj.Builder.finish b main

module Server = Spr_ingest.Server
module Fused = Spr_race.Drivers.Fused

(* One region's steady state: [iters] iterations counted unprobed,
   then the same again inside the named probe region for the
   attribution snapshot. *)
let gate_region ~name ~iters runs =
  let (), words = Probe.alloc_words (fun () -> runs iters) in
  Probe.install ~runtime_events:true ();
  Probe.span (Probe.region name) (fun () -> runs iters);
  Probe.uninstall ();
  Format.printf "%a" Probe.pp_snapshot
    (List.filter (fun (n, _) -> n = name) (Probe.snapshot ()));
  Printf.printf "alloc-gate: %s: minor-heap words in steady state: %d\n" name words;
  words

(* One iteration of the server region = one resident-server pass over
   a captured trace of three race-free programs: header checks, every
   frame decoded, the SP walk, every shadow access and SP query.  One
   iteration of the Fused region = one in-place detection run on each
   of the same programs.  [e2e_program] spawns and runs a thread after
   each RETURN; fib adds blocks whose SYNC ends a spawning block;
   serial's spawn-free blocks put threads after threads, so a thread
   inserts an element.  Both loops keep all their state in records
   built once, so steady state must stay at zero minor words. *)
let alloc_gate_ingest ~plant ~iters () =
  let programs =
    [ e2e_program ~depth:7; Spr_workloads.Progs.fib ~n:10 (); Spr_workloads.Progs.serial ~n:64 () ]
  in
  let trace = Spr_ingest.Codec.capture programs in
  let srv = Server.create () in
  let pipelines = Array.of_list (List.map Fused.create programs) in
  let drives k =
    for i = 0 to k - 1 do
      Server.drive srv trace;
      if plant then ignore (Sys.opaque_identity (ref i))
    done
  in
  let runs k =
    for i = 0 to k - 1 do
      for j = 0 to Array.length pipelines - 1 do
        Fused.run pipelines.(j)
      done;
      if plant then ignore (Sys.opaque_identity (ref i))
    done
  in
  (* Reach steady state (shadow width, tid tables, OM capacity). *)
  let warm = 3 in
  drives warm;
  runs warm;
  let st = Server.stats srv in
  if st.Server.races <> 0
     || Array.exists (fun f -> (Fused.result f).Spr_race.Drivers.races <> []) pipelines
  then die "alloc-gate --ingest: the fixed programs must be race-free (internal bug)";
  Printf.printf
    "alloc-gate: %d iterations of %d programs (%d-byte trace, %d events, %d SP queries per \
     pass)%s\n"
    iters (List.length programs) (String.length trace)
    (st.Server.events / warm) (st.Server.sp_queries / warm)
    (if plant then ", with a planted allocation" else "");
  let server_words = gate_region ~name:"ingest/drive" ~iters drives in
  let fused_words = gate_region ~name:"fused/run" ~iters runs in
  Server.close srv;
  if server_words > 0 || fused_words > 0 then begin
    Printf.printf "alloc-gate: FAIL — detection steady state allocated on the minor heap\n";
    exit 1
  end
  else Printf.printf "alloc-gate: OK — detection steady state is allocation-free\n"

(* ------------------------------------------------------------------ *)
(* Mode 2c: the result-collection ratio gate.                          *)

(* The kinds and sizes of the small-traces benchmark workload, drawn
   from the seed the same way: fib and matmul sizes are exponential
   and cubic, the rest are linear. *)
let small_kinds =
  [|
    "dcsum-buggy";
    "mergesort-buggy";
    "matmul-buggy";
    "random";
    "adversarial";
    "shared-readers";
    "fib";
    "locked-buggy";
  |]

let small_programs ~count ~seed =
  let rng = Spr_util.Rng.create seed in
  List.init count (fun _ ->
      let kind = Spr_util.Rng.choose rng small_kinds in
      let size =
        match kind with
        | "fib" -> Spr_util.Rng.int_in rng 8 13
        | "matmul-buggy" -> Spr_util.Rng.int_in rng 8 16
        | _ -> Spr_util.Rng.int_in rng 16 255
      in
      (Option.get (Spr_workloads.Progs.find_opt kind)) ~size ~seed:(Spr_util.Rng.int rng 1_000_000))

let timed f =
  let t0 = Bench_util.now () in
  f ();
  Bench_util.now () -. t0

(* One [run_string ~collect:true] per trace on a resident server. *)
let collect_all srv traces =
  Array.iter (fun s -> ignore (Sys.opaque_identity (Server.run_string ~collect:true srv s))) traces

(* Print every pass ratio and the median with its quartiles; exit 1
   when the median exceeds [bound]. *)
let ratio_verdict ~gate ~sides ~bound ~fail ratios =
  let q = Spr_util.Stats.quantile ratios in
  let med = q 0.5 in
  Printf.printf "%s: %s per pass: %s\n" gate sides
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") ratios)));
  Printf.printf "%s: median %.3f (q25 %.3f, q75 %.3f), bound %.2f\n" gate med (q 0.25) (q 0.75)
    bound;
  if med > bound then begin
    Printf.printf "%s: FAIL — %s\n" gate fail;
    exit 1
  end
  else Printf.printf "%s: OK\n" gate

(* The collect/drive bound.  Both sides run on one resident server in
   one process, alternating, so the ratio needs no baseline from the
   same machine.  Materializing the results costs the race list and
   the racy locations on top of detection.  Three runs of 9
   alternations on a 2-core VM read medians of 1.24-1.29; with the
   racy locations sorted by polymorphic [compare] over every race and
   the whole shadow cleared per program, three runs read 1.66-1.78.
   The bound sits between the two. *)
let collect_bound = 1.5

(* One program per request, as [spingest run] and the small-traces
   workload send them: [run_string ~collect:true] against [drive] on
   the same captured traces, alternating, each pass timed whole.
   [plant] runs the collect side twice, which must trip the gate. *)
let collect_gate ~plant ~alternations () =
  let traces =
    Array.of_list
      (List.map (fun p -> Spr_ingest.Codec.capture [ p ]) (small_programs ~count:1000 ~seed:1))
  in
  let srv = Server.create () in
  let collect () = collect_all srv traces in
  let drive () = Array.iter (Server.drive srv) traces in
  (* Warm up both sides to steady state (shadow width, OM capacity). *)
  collect ();
  drive ();
  let st0 = Server.stats srv in
  let ratios =
    Array.init alternations (fun _ ->
        let c = timed (fun () -> collect (); if plant then collect ()) in
        c /. timed drive)
  in
  Server.close srv;
  Printf.printf
    "collect-gate: %d programs (%d events, %d races per pass), %d alternations%s\n"
    (Array.length traces) (st0.Server.events / 2) (st0.Server.races / 2) alternations
    (if plant then ", collect side run twice" else "");
  ratio_verdict ~gate:"collect-gate" ~sides:"collect/drive" ~bound:collect_bound
    ~fail:"collecting results costs too much over detection" ratios

(* ------------------------------------------------------------------ *)
(* Mode 2d: the resident serial detector's ratio gate.                 *)

(* The fused/server bound.  [detect_serial_fused] walks the program in
   memory through the same SP-order construction and shadow checks the
   server drives from decoded frames, so with its pipeline resident it
   should cost no more than the server.  On a 2-core VM the resident
   pipeline reads a median near 0.9; a fresh, cold pipeline per program
   (the [--plant] side) reads near 1.8.  The bound sits between. *)
let inproc_bound = 1.3

let inproc_gate ~plant ~alternations () =
  let programs = Array.of_list (Spr_ingest.Ingest_bench.spmix ~events:300_000 ~seed:1) in
  let traces = Array.map (fun p -> Spr_ingest.Codec.capture [ p ]) programs in
  let srv = Server.create () in
  let detect =
    if plant then (fun p ->
      let f = Fused.create p in
      Fused.run f;
      Fused.result f)
    else Spr_race.Drivers.detect_serial_fused
  in
  let fused () = Array.iter (fun p -> ignore (Sys.opaque_identity (detect p))) programs in
  let server () = collect_all srv traces in
  (* Warm both sides up, and check that they find the same races with
     the same queries, so the ratio compares equal work. *)
  let races, queries =
    Array.fold_left
      (fun (r, q) p ->
        let res = detect p in
        (r + List.length res.Spr_race.Drivers.races, q + res.Spr_race.Drivers.sp_queries))
      (0, 0) programs
  in
  server ();
  let st0 = Server.stats srv in
  if races <> st0.Server.races || queries <> st0.Server.sp_queries then
    die "inproc-gate: the two sides disagree (%d/%d races, %d/%d queries; internal bug)" races
      st0.Server.races queries st0.Server.sp_queries;
  let ratios = Array.init alternations (fun _ -> timed fused /. timed server) in
  Server.close srv;
  Printf.printf
    "inproc-gate: %d programs (%d accesses, %d races per pass), %d alternations%s\n"
    (Array.length programs) st0.Server.accesses races alternations
    (if plant then ", fresh pipeline per program" else "");
  ratio_verdict ~gate:"inproc-gate" ~sides:"fused/server" ~bound:inproc_bound
    ~fail:"in-process detection costs more than the server's" ratios

(* ------------------------------------------------------------------ *)
(* Mode 3: uninstalled-probe overhead gate.                            *)

let probe_gate ~max_ns () =
  let open Bechamel in
  let open Toolkit in
  assert (not (Probe.is_installed ()));
  let r = Probe.region "probe-gate/empty" in
  let test =
    Test.make ~name:"probe/uninstalled-span"
      (Staged.stage (fun () -> Probe.span r (fun () -> ())))
  in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second 0.5) ~stabilize:true ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let est = ref nan in
  Hashtbl.iter
    (fun _ ols ->
      match Analyze.OLS.estimates ols with Some (e :: _) -> est := e | _ -> ())
    results;
  if Float.is_nan !est then die "probe-gate: no estimate from bechamel";
  Printf.printf "probe-gate: uninstalled span estimated at %.2f ns (limit %.1f ns)\n" !est max_ns;
  if !est > max_ns then begin
    Printf.printf "probe-gate: FAIL — uninstalled probe too expensive\n";
    exit 1
  end
  else Printf.printf "probe-gate: OK\n"

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let gate ratio g =
    if ratio <> None && ratio <> Some g then die "--collect-gate and --inproc-gate are exclusive";
    Some g
  in
  let rec parse paths threshold alloc ingest ratio plant probe max_ns iters = function
    | "--threshold" :: v :: rest -> (
        match float_of_string_opt v with
        | Some r when r >= 1.0 -> parse paths r alloc ingest ratio plant probe max_ns iters rest
        | _ -> die "--threshold takes a ratio >= 1.0")
    | "--threshold" :: [] -> die "--threshold takes a ratio >= 1.0"
    | "--alloc-gate" :: rest ->
        parse paths threshold true ingest ratio plant probe max_ns iters rest
    | "--ingest" :: rest -> parse paths threshold alloc true ratio plant probe max_ns iters rest
    | "--collect-gate" :: rest ->
        parse paths threshold alloc ingest (gate ratio `Collect) plant probe max_ns iters rest
    | "--inproc-gate" :: rest ->
        parse paths threshold alloc ingest (gate ratio `Inproc) plant probe max_ns iters rest
    | "--plant" :: rest -> parse paths threshold alloc ingest ratio true probe max_ns iters rest
    | "--probe-gate" :: rest ->
        parse paths threshold alloc ingest ratio plant true max_ns iters rest
    | "--max-ns" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f > 0.0 ->
            parse paths threshold alloc ingest ratio plant probe f iters rest
        | _ -> die "--max-ns takes a positive float")
    | "--max-ns" :: [] -> die "--max-ns takes a positive float"
    | "--iters" :: v :: rest -> (
        match int_of_string_opt v with
        | Some i when i > 0 ->
            parse paths threshold alloc ingest ratio plant probe max_ns (Some i) rest
        | _ -> die "--iters takes a positive int")
    | "--iters" :: [] -> die "--iters takes a positive int"
    | a :: rest -> parse (a :: paths) threshold alloc ingest ratio plant probe max_ns iters rest
    | [] -> (List.rev paths, threshold, alloc, ingest, ratio, plant, probe, max_ns, iters)
  in
  let paths, threshold, alloc, ingest, ratio, plant, probe, max_ns, iters =
    parse [] 1.5 false false None false false 5.0 None args
  in
  match (alloc, ingest, ratio, probe, paths) with
  (* An ingest iteration is whole detection runs (~500 fork/joins and
     ~800 accesses each), so the default iteration count is scaled down
     from the per-operation gate's. *)
  | true, true, None, false, [] ->
      alloc_gate_ingest ~plant ~iters:(Option.value ~default:2_000 iters) ()
  | true, false, None, false, [] ->
      alloc_gate ~plant ~iters:(Option.value ~default:100_000 iters) ()
  | false, false, Some `Collect, false, [] when iters = None ->
      collect_gate ~plant ~alternations:9 ()
  | false, false, Some `Inproc, false, [] when iters = None ->
      inproc_gate ~plant ~alternations:9 ()
  | false, false, None, true, [] -> probe_gate ~max_ns ()
  | false, false, None, false, [ b; c ] -> compare_mode b c threshold
  | _ ->
      die
        "usage: regress BASELINE.json CANDIDATE.json [--threshold R] | regress --alloc-gate \
         [--ingest] [--plant] [--iters N] | regress --collect-gate [--plant] | regress \
         --inproc-gate [--plant] | regress \
         --probe-gate [--max-ns F]"

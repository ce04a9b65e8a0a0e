(* spfuzz — differential fuzzer for the SP-maintenance library.

   Generates seeded random fork-join programs and order-maintenance
   op-scripts, runs them through every registered SP maintainer (serial
   walk, random legal unfoldings, SP-hybrid under simulated
   work-stealing schedules) and every OM structure, cross-validates
   against the reference oracles, and shrinks any divergence to a
   minimal replayable repro.

   With --sched the fuzzer instead drives concurrent OM scripts
   (lib/schedtest) under a controlled scheduler: seeded replayable
   random schedules, PCT with bug depth d, or bounded exhaustive DFS
   with sleep-set pruning.  Every run folds its decision trace into a
   digest printed on success, so reproducibility is checkable as
   "same command, same digest".

   Examples:
     spfuzz --iters 500
     spfuzz --mode sp --seed 7 --iters 200 --schedules 4
     spfuzz --mode om --iters 300
     spfuzz --algo sp-bags --iters 100
     spfuzz --inject-fault bags-flip --iters 50     # must exit 1
     spfuzz --sched replay --iters 100              # seeded-schedule sweep
     spfuzz --sched pct --depth 3 --iters 100       # probabilistic concurrency testing
     spfuzz --sched dfs --iters 10                  # exhaustive small-script DFS
     spfuzz --sched pct --inject-fault om-unvalidated   # must exit 1
     spfuzz --smoke                                  # bounded CI run   *)

open Cmdliner
module F = Spr_check.Fuzz

(* A user-facing input error (unknown scheduler/fault name): report it
   cleanly on stderr and exit 1 instead of dying with an uncaught
   exception and a backtrace (same convention as spview). *)
exception Usage of string

let usage_error what name valid =
  raise
    (Usage (Printf.sprintf "unknown %s %S (valid: %s)" what name (String.concat ", " valid)))

let with_usage f =
  try f ()
  with Usage msg ->
    Printf.eprintf "spfuzz: %s\n" msg;
    1

let say quiet fmt =
  if quiet then Printf.ifprintf stdout fmt else Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Post-mortem observability.

   Metrics and the flight recorder are always on (a null-sink run
   records nothing anyone will read, but the emit cost is a handful of
   int stores — see the bench alloc/probe gates).  On a failing
   execution the failure report gains the final metrics snapshot as
   one JSON line, and the flight recorder's event tail + that same
   snapshot are dumped to a deterministic binary [.spr-flight] file —
   same command, byte-identical dump. *)

let flight_lanes = 8

let final_snapshot metrics =
  (* Registry instruments plus the process-wide domain-sharded
     counters (concurrent-OM query/retry, runtime steal/park); both
     sides are sorted by key and the key spaces are disjoint. *)
  List.merge compare
    (Spr_obs.Metrics.snapshot metrics)
    (Spr_obs.Sharded.metrics_snapshot Spr_obs.Sharded.default)

let post_mortem ~metrics ~flight ~flight_out =
  let snapshot = Spr_obs.Metrics.snapshot_to_json (final_snapshot metrics) in
  Format.printf "final metrics snapshot: %s@." (Spr_obs.Json.to_string snapshot);
  Spr_obs.Flight.write_file ~snapshot flight flight_out;
  let recent = ref 0 and total = ref 0 in
  for l = 0 to Spr_obs.Flight.lanes flight - 1 do
    recent := !recent + Spr_obs.Flight.lane_length flight l;
    total := !total + Spr_obs.Flight.lane_length flight l + Spr_obs.Flight.lane_dropped flight l
  done;
  Format.printf "flight recorder: %d recent events (%d recorded) dumped to %s@." !recent !total
    flight_out

let config ~seed ~iters ~max_threads ~schedules ~algo ~inject ~quiet ~sink =
  let algos =
    match algo with
    | None -> Spr_core.Algorithms.all
    | Some name -> [ (name, Spr_core.Algorithms.find name) ]
  in
  let algos, om_suts =
    match inject with
    | `Bags_flip -> (algos @ [ Spr_check.Faulty.sp_bags_flipped ], F.default_om_suts)
    | `Om_before_after ->
        ( algos,
          F.default_om_suts
          @ [ ("om-broken-insert-before", Spr_check.Faulty.om_broken_insert_before) ] )
    | `None | `Om_unvalidated | `Hb_vec_nojoin | `Hb_vec_norestore -> (algos, F.default_om_suts)
  in
  let hb_algos =
    match inject with
    | `Hb_vec_nojoin -> F.default_hb_algos @ [ Spr_check.Faulty.hb_vector_no_join ]
    | `Hb_vec_norestore -> F.default_hb_algos @ [ Spr_check.Faulty.hb_vector_no_restore ]
    | _ -> F.default_hb_algos
  in
  (* Cross-validation pairs only make sense when both members run:
     --algo restricts the battery to one maintainer, so drop them. *)
  let sp_pairs = match algo with None -> F.default_sp_pairs | Some _ -> [] in
  {
    F.seed;
    iters;
    max_threads;
    schedules;
    algos;
    sp_pairs;
    hb_algos;
    om_suts;
    om_pairs = F.default_om_pairs;
    log = (fun line -> say quiet "%s" line);
    sink;
  }

(* ------------------------------------------------------------------ *)
(* --sched: schedule exploration over concurrent OM scripts           *)

module Control = Spr_schedtest.Control
module Cscript = Spr_schedtest.Cscript
module Explore = Spr_schedtest.Explore

let trace_of (r : Control.report) =
  Array.to_list (Array.map (fun (d : Control.decision) -> d.Control.chosen) r.Control.decisions)

(* Rolling FNV-1a over every per-run trace digest: one 16-hex-digit
   summary of everything the controller decided, byte-identical across
   reruns of the same command. *)
let fnv_offset = 0xcbf29ce484222325L

let fold_digest h s =
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let sched_structures inject : (string * (module Spr_om.Om_intf.CONCURRENT)) list =
  let base =
    [
      ("om-concurrent", (module Spr_om.Om_concurrent : Spr_om.Om_intf.CONCURRENT));
      ("om-concurrent-2level", (module Spr_om.Om_concurrent2));
    ]
  in
  match inject with
  | `Om_unvalidated ->
      base @ [ ("om-concurrent-unvalidated", Spr_check.Faulty.om_concurrent_unvalidated) ]
  | _ -> base

(* Replay/PCT scripts: big enough that head-insert chains trigger label
   rebalances (the interesting torn states).  DFS scripts are one size
   down: head = 3 with one insert rebalances immediately (the full
   validated state space of that shape is ~1.2e5 interleavings, see
   EXPERIMENTS.md, so those runs lean on the schedule budget), while
   head <= 2 shapes stay rebalance-free and fully enumerable in a few
   hundred schedules. *)
let gen_script ~dfs rng =
  let ii = Spr_util.Rng.int_in rng in
  if dfs then begin
    let prelude_head = ii 1 3 in
    Cscript.random ~rng ~prelude_head ~prelude_base:(ii 0 1)
      ~writer_len:(if prelude_head >= 2 then 1 else ii 1 2)
      ~readers:(ii 1 2) ~queries:1
  end
  else
    Cscript.random ~rng ~prelude_head:(ii 2 3) ~prelude_base:(ii 0 1) ~writer_len:(ii 2 4)
      ~readers:(ii 1 2) ~queries:2

let pct_steps = 64

let replay_line ~sched ~depth ~inject ~seed =
  Format.printf "replay: spfuzz --sched %s%s%s --seed %d --iters 1@." sched
    (if sched = "pct" then Printf.sprintf " --depth %d" depth else "")
    (if inject = `Om_unvalidated then " --inject-fault om-unvalidated" else "")
    seed

let run_sched ~sched ~seed ~iters ~depth ~inject ~smoke ~quiet ~metrics_fmt ~flight_out =
  (match sched with
  | "replay" | "pct" | "dfs" -> ()
  | other -> usage_error "scheduler" other [ "replay"; "pct"; "dfs" ]);
  ignore quiet;
  let metrics = Spr_obs.Metrics.create () in
  let flight = Spr_obs.Flight.create ~lanes:flight_lanes () in
  let sink = Spr_obs.Sink.make ~metrics ~flight () in
  let iters = if smoke then min iters (if sched = "dfs" then 6 else 40) else iters in
  let max_schedules = if smoke then 5_000 else 20_000 in
  let structures = sched_structures inject in
  let digest = ref fnv_offset in
  let totals = { Explore.schedules = 0; pruned = 0; max_depth = 0; truncated = false } in
  let failed = ref false in
  (* Per script, try several scheduler seeds (derived from the script
     seed, so a one-iteration replay regenerates them all). *)
  let tries = 5 in
  let strategy_of s =
    if sched = "pct" then Control.Pct { seed = s; depth; steps = pct_steps }
    else Control.Random s
  in
  let record (r : Control.report) =
    let tr = trace_of r in
    digest := fold_digest !digest (Control.digest tr);
    totals.Explore.schedules <- totals.Explore.schedules + 1;
    totals.Explore.max_depth <- max totals.Explore.max_depth (List.length tr)
  in
  let report_failure ~name ~i ~msg ~shrunk ~strategy =
    (* Shrink the schedule of the *shrunk* script: ddmin the decision
       trace while a Fixed replay of it still fails. *)
    let runner strat =
      let r = Cscript.run ~sink (List.assoc name structures) shrunk strat in
      (r.Cscript.report, r.Cscript.failure)
    in
    let r, _ = runner strategy in
    let tr = Explore.shrink_schedule ~run:runner (trace_of r) in
    Format.printf "sched divergence (%s, %s, iteration %d):@.  %s@." sched name i msg;
    Format.printf "shrunk script:@.%a@." Cscript.pp shrunk;
    Format.printf "shrunk schedule (%d decisions): %a@." (List.length tr) Control.pp_trace tr;
    replay_line ~sched ~depth ~inject ~seed:(seed + i);
    failed := true
  in
  for i = 0 to iters - 1 do
       if not !failed then begin
         let rng = Spr_util.Rng.create (seed + i) in
         let script = gen_script ~dfs:(sched = "dfs") rng in
         List.iter
           (fun (name, m) ->
             if not !failed then
               if sched = "dfs" then begin
                 let runner strat =
                   let r = Cscript.run ~sink m script strat in
                   record r.Cscript.report;
                   (r.Cscript.report, r.Cscript.failure)
                 in
                 (* [record] already counts schedules; take pruning and
                    truncation from the DFS stats. *)
                 let st, failures = Explore.dfs ~max_schedules ~run:runner () in
                 totals.Explore.pruned <- totals.Explore.pruned + st.Explore.pruned;
                 totals.Explore.truncated <- totals.Explore.truncated || st.Explore.truncated;
                 match failures with
                 | [] -> ()
                 | f :: _ ->
                     let tr = Explore.shrink_schedule ~run:runner f.Explore.trace in
                     Format.printf "sched divergence (dfs, %s, iteration %d):@.  %s@." name i
                       f.Explore.message;
                     Format.printf "script:@.%a@." Cscript.pp script;
                     Format.printf "shrunk schedule (%d decisions): %a@." (List.length tr)
                       Control.pp_trace tr;
                     replay_line ~sched ~depth ~inject ~seed:(seed + i);
                     failed := true
               end
               else
                 for k = 0 to tries - 1 do
                   if not !failed then begin
                     let strategy = strategy_of (((seed + i) * 31) + k) in
                     let r = Cscript.run ~sink m script strategy in
                     record r.Cscript.report;
                     match r.Cscript.failure with
                     | None -> ()
                     | Some msg ->
                         let still_failing s =
                           (Cscript.run ~sink m s strategy).Cscript.failure <> None
                         in
                         let shrunk = Cscript.shrink ~still_failing script in
                         report_failure ~name ~i ~msg ~shrunk ~strategy
                   end
                 done)
          structures
      end
  done;
  Spr_obs.Metrics.add (Spr_obs.Metrics.counter metrics "schedtest/schedules") totals.Explore.schedules;
  Spr_obs.Metrics.add (Spr_obs.Metrics.counter metrics "schedtest/pruned") totals.Explore.pruned;
  Spr_obs.Metrics.set
    (Spr_obs.Metrics.gauge metrics "schedtest/max_depth")
    (float_of_int totals.Explore.max_depth);
  if !failed then begin
    post_mortem ~metrics ~flight ~flight_out;
    1
  end
  else begin
    (match metrics_fmt with
    | Some "json" -> print_endline (Spr_obs.Json.to_string (Spr_obs.Metrics.to_json metrics))
    | fmt ->
        Printf.printf
          "spfuzz: OK — sched %s: %d scripts x %d structures, %d schedules explored, %d pruned, max depth %d%s, digest %016Lx\n"
          sched iters (List.length structures) totals.Explore.schedules totals.Explore.pruned
          totals.Explore.max_depth
          (if totals.Explore.truncated then " (budget-truncated)" else "")
          !digest;
        if fmt <> None then Format.printf "%a" Spr_obs.Metrics.pp metrics);
    0
  end

let run mode seed iters max_threads schedules algo inject sched depth smoke quiet metrics_fmt
    flight_out =
  with_usage @@ fun () ->
  let inject =
    match inject with
    | "none" -> `None
    | "bags-flip" -> `Bags_flip
    | "om-before-after" -> `Om_before_after
    | "om-unvalidated" -> `Om_unvalidated
    | "hb-vec-nojoin" -> `Hb_vec_nojoin
    | "hb-vec-norestore" -> `Hb_vec_norestore
    | other ->
        usage_error "fault" other
          [
            "none";
            "bags-flip";
            "om-before-after";
            "om-unvalidated";
            "hb-vec-nojoin";
            "hb-vec-norestore";
          ]
  in
  match sched with
  | Some sched -> run_sched ~sched ~seed ~iters ~depth ~inject ~smoke ~quiet ~metrics_fmt ~flight_out
  | None ->
  if inject = `Om_unvalidated then
    raise
      (Usage
         "fault \"om-unvalidated\" races a query against a relabel — it needs a controlled \
          scheduler; combine it with --sched (valid: replay, pct, dfs)");
  (* The smoke profile is the CI configuration: small and bounded
     (~seconds), still covering every maintainer, every OM structure
     and several schedules. *)
  let iters = if smoke then min iters 60 else iters in
  let max_threads = if smoke then min max_threads 16 else max_threads in
  (* Metrics and the flight recorder are always armed; --metrics only
     controls whether the success path prints the registry (pure JSON
     on stdout for --metrics json). *)
  let metrics = Spr_obs.Metrics.create () in
  let flight = Spr_obs.Flight.create ~lanes:flight_lanes () in
  let sink = Spr_obs.Sink.make ~metrics ~flight () in
  let quiet = quiet || metrics_fmt = Some "json" in
  let cfg = config ~seed ~iters ~max_threads ~schedules ~algo ~inject ~quiet ~sink in
  let failed = ref false in
  let sp_checked = ref 0 and hb_checked = ref 0 and om_checked = ref 0 in
  if mode = "sp" || mode = "all" then begin
    sp_checked := cfg.F.iters;
    match F.run_sp cfg with
    | None -> ()
    | Some f ->
        failed := true;
        Format.printf "%a@." F.pp_sp_failure f;
        Format.printf "replay: spfuzz --mode sp --seed %d --iters %d@." cfg.F.seed (f.F.sp_iter + 1)
  end;
  if (not !failed) && (mode = "hb" || mode = "all") then begin
    hb_checked := cfg.F.iters;
    match F.run_hb cfg with
    | None -> ()
    | Some f ->
        failed := true;
        Format.printf "%a@." F.pp_hb_failure f;
        Format.printf "replay: spfuzz --mode hb --seed %d --iters %d@." cfg.F.seed (f.F.hb_iter + 1)
  end;
  if (not !failed) && (mode = "om" || mode = "all") then begin
    om_checked := cfg.F.iters;
    match F.run_om cfg with
    | None -> ()
    | Some f ->
        failed := true;
        Format.printf "%a@." F.pp_om_failure f;
        Format.printf "replay: spfuzz --mode om --seed %d --iters %d@." cfg.F.seed (f.F.om_iter + 1)
  end;
  if !failed then begin
    post_mortem ~metrics ~flight ~flight_out;
    1
  end
  else begin
    (match metrics_fmt with
    | Some "json" -> print_endline (Spr_obs.Json.to_string (Spr_obs.Metrics.to_json metrics))
    | fmt ->
        Printf.printf
          "spfuzz: OK — %d program iterations (%d maintainers + %d cross-checks), %d HB triples (%d independent oracles vs sp-order-fused), %d script iterations (%d OM structures + %d cross-checks), 0 divergences\n"
          !sp_checked (List.length cfg.F.algos)
          (List.length cfg.F.sp_pairs)
          !hb_checked
          (List.length cfg.F.hb_algos)
          !om_checked (List.length cfg.F.om_suts)
          (List.length cfg.F.om_pairs);
        if fmt <> None then Format.printf "%a" Spr_obs.Metrics.pp metrics);
    0
  end

let mode_arg =
  let doc =
    "What to fuzz: sp (maintainers), hb (three-way differential race oracle: sp-order-fused vs \
     vector clocks vs DePa fork-path labels), om (order maintenance), all."
  in
  Arg.(
    value
    & opt (enum [ ("sp", "sp"); ("hb", "hb"); ("om", "om"); ("all", "all") ]) "all"
    & info [ "mode" ] ~docv:"MODE" ~doc)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base random seed.")

let iters_arg =
  Arg.(value & opt int 500 & info [ "iters" ] ~docv:"N" ~doc:"Iterations per mode.")

let max_threads_arg =
  Arg.(
    value & opt int 32
    & info [ "max-threads" ] ~docv:"N" ~doc:"Thread-count ceiling for generated programs.")

let schedules_arg =
  Arg.(
    value & opt int 3
    & info [ "schedules" ] ~docv:"N"
        ~doc:"Simulated work-stealing schedules (worker count, steal seed) per program.")

let algo_conv =
  let parse s =
    match Spr_core.Algorithms.find_opt s with
    | Some _ -> Ok s
    | None -> Error (`Msg (Spr_core.Algorithms.unknown s))
  in
  Arg.conv (parse, Format.pp_print_string)

let algo_arg =
  Arg.(
    value
    & opt (some algo_conv) None
    & info [ "algo" ] ~docv:"NAME" ~doc:"Fuzz only this SP maintainer (default: all).")

let inject_arg =
  let doc =
    "Plant a known bug and expect the fuzzer to catch it: none, bags-flip (SP-bags with the \
     bag-kind comparison flipped), om-before-after (OM insert_before aliased to insert_after), \
     om-unvalidated (concurrent OM query without the read-validation loop; needs --sched), \
     hb-vec-nojoin (vector clocks that skip the join at procedure exit), hb-vec-norestore \
     (vector clocks that skip the snapshot restore after a spawn)."
  in
  Arg.(value & opt string "none" & info [ "inject-fault" ] ~docv:"FAULT" ~doc)

let sched_arg =
  let doc =
    "Fuzz concurrent OM scripts under a controlled scheduler instead of the differential modes: \
     replay (seeded random schedules, replayable by seed), pct (probabilistic concurrency \
     testing with bug depth $(b,--depth)), dfs (bounded exhaustive interleaving enumeration \
     with sleep-set pruning)."
  in
  Arg.(value & opt (some string) None & info [ "sched" ] ~docv:"SCHED" ~doc)

let depth_arg =
  Arg.(
    value & opt int 3
    & info [ "depth" ] ~docv:"D"
        ~doc:"PCT bug depth: number of priority change points is D-1 (with --sched pct).")

let smoke_arg =
  Arg.(value & flag & info [ "smoke" ] ~doc:"Bounded CI profile (caps iterations and sizes).")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress output.")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("pretty", "pretty"); ("json", "json") ])) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Collect observability metrics across all checked schedules and print them on \
           success (pretty or json; json prints only the JSON object).")

let flight_out_arg =
  Arg.(
    value
    & opt string "spfuzz.spr-flight"
    & info [ "flight-out" ] ~docv:"FILE"
        ~doc:
          "Where to write the post-mortem flight-recorder dump (binary .spr-flight: recent \
           trace events + final metrics snapshot) when a failing execution is found.  \
           Deterministic: the same failing command writes a byte-identical file.")

let cmd =
  Cmd.v
    (Cmd.info "spfuzz" ~doc:"Differential fuzzer for SP maintenance and order maintenance")
    Term.(
      const run $ mode_arg $ seed_arg $ iters_arg $ max_threads_arg $ schedules_arg $ algo_arg
      $ inject_arg $ sched_arg $ depth_arg $ smoke_arg $ quiet_arg $ metrics_arg
      $ flight_out_arg)

let () = exit (Cmd.eval' cmd)

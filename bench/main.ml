(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- fig3         # one experiment
     dune exec bench/main.exe -- list         # available experiments
     dune exec bench/main.exe -- thm10 --metrics json
        # also print per-experiment measured-counter snapshots as the
        # last stdout line: {"experiments":{"thm10":{...}}}
     dune exec bench/main.exe -- om --json out.json
        # also write machine-readable samples/medians/quantiles for
        # the regression gate (schema in bench_json.ml); --json-n N
        # shrinks the measured size for smoke runs

   Each experiment regenerates one table/figure/theorem of the paper;
   see DESIGN.md section 4 for the experiment index and EXPERIMENTS.md
   for paper-vs-measured notes. *)

let experiments =
  [
    ("fig3", "Figure 3: serial algorithm comparison", Exp_fig3.run);
    ("thm5", "Theorem 5: SP-order construction is O(n)", Exp_thm5.run);
    ("cor6", "Corollary 6: race detection in O(T1)", Exp_cor6.run);
    ("thm10", "Theorem 10: SP-hybrid vs naive parallel SP-order", Exp_thm10.run);
    ("steals", "Steal bound, 4s+1 traces, bucket accounting", Exp_steals.run);
    ("om", "Order-maintenance substrate", Exp_om.run);
    ("fig11-12", "Subtrace split structure", Exp_traces.run);
    ("ablation", "Design-choice ablations (OM backend, path compression)", Exp_ablation.run);
    ("ingest", "Streaming trace-ingestion service throughput", Exp_ingest.run);
    ("hb", "Vector-clock baseline vs sp-order-fused", Exp_hb.run);
    ("bechamel", "Bechamel micro-benchmarks (one per experiment)", Bechamel_suite.run);
  ]

let list_experiments () =
  Printf.printf "available experiments:\n";
  List.iter (fun (k, d, _) -> Printf.printf "  %-10s %s\n" k d) experiments

(* Per-experiment metric snapshots under --metrics json: diff the
   process-wide registry around each experiment so the emitted object
   attributes counters (relabels, steals, splits, lock waits) to the
   experiment that produced them. *)
let snapshots : (string * Spr_obs.Metrics.snapshot) list ref = ref []

let run_experiment ~metrics (key, _, f) =
  if not metrics then f ()
  else begin
    let before = Spr_obs.Metrics.snapshot Spr_obs.Metrics.default in
    f ();
    let after = Spr_obs.Metrics.snapshot Spr_obs.Metrics.default in
    snapshots := (key, Spr_obs.Metrics.diff after before) :: !snapshots
  end

let emit_snapshots () =
  let experiments =
    List.rev_map
      (fun (key, snap) -> (key, Spr_obs.Metrics.snapshot_to_json snap))
      !snapshots
  in
  print_endline
    (Spr_obs.Json.to_string (Spr_obs.Json.Obj [ ("experiments", Spr_obs.Json.Obj experiments) ]))

let () =
  (* A roomy minor heap keeps GC noise out of the asymptotic-shape
     measurements (they allocate many small linked nodes). *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  let args = List.tl (Array.to_list Sys.argv) in
  let metrics, args =
    let rec strip acc = function
      | "--metrics" :: "json" :: rest -> (true, List.rev_append acc rest)
      | "--metrics" :: _ ->
          Printf.eprintf "bench: --metrics takes the single format \"json\"\n";
          exit 1
      | a :: rest -> strip (a :: acc) rest
      | [] -> (false, List.rev acc)
    in
    strip [] args
  in
  let json_file, json_n, args =
    let rec strip ~file ~n acc = function
      | "--json" :: path :: rest when path <> "" && path.[0] <> '-' ->
          strip ~file:(Some path) ~n acc rest
      | "--json" :: _ ->
          Printf.eprintf "bench: --json takes an output file path\n";
          exit 1
      | "--json-n" :: v :: rest -> (
          match int_of_string_opt v with
          | Some size when size > 0 -> strip ~file ~n:(Some size) acc rest
          | _ ->
              Printf.eprintf "bench: --json-n takes a positive integer\n";
              exit 1)
      | "--json-n" :: [] ->
          Printf.eprintf "bench: --json-n takes a positive integer\n";
          exit 1
      | a :: rest -> strip ~file ~n (a :: acc) rest
      | [] -> (file, n, List.rev acc)
    in
    strip ~file:None ~n:None [] args
  in
  if metrics then Bench_util.enable_metrics ();
  (match json_file with
  | Some _ -> Bench_json.enable ?n:json_n ()
  | None ->
      if json_n <> None then begin
        Printf.eprintf "bench: --json-n only makes sense with --json\n";
        exit 1
      end);
  (match args with
  | [] | [ "all" ] -> List.iter (run_experiment ~metrics) experiments
  | [ "list" ] -> list_experiments ()
  | [ key ] -> begin
      match List.find_opt (fun (k, _, _) -> k = key) experiments with
      | Some e -> run_experiment ~metrics e
      | None ->
          Printf.eprintf "unknown experiment %S\n" key;
          list_experiments ();
          exit 1
    end
  | _ ->
      Printf.eprintf
        "usage: main.exe [all|list|<experiment>] [--metrics json] [--json FILE [--json-n N]]\n";
      exit 1);
  (match json_file with Some path -> Bench_json.write_file path | None -> ());
  if metrics then emit_snapshots ()

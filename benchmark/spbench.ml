(* spbench — the repository's benchmark: five workloads through the
   detection service, end to end and layer by layer (README.md).

   Examples:
     spbench --seed 1 --out results          every workload, untraced then traced
     spbench --workload spmix --seed 3 --seconds 10 --trace 0
     spbench --smoke --seed 1                tiny inputs, timings masked
     spbench compare a/metrics.json b/metrics.json                    *)

open Cmdliner
open Spbench_lib
module J = Spr_obs.Json

let origin = Measure.now ()

type outcome = {
  json : J.t;  (** this workload's metrics.json entry *)
  line : string;  (** the one-line result *)
  spans : J.t list;
  failed : int;
}

let run_workload ~smoke ~seconds ~trace pid (w : Workload.t) =
  let untraced, traced =
    match seconds with
    | Some s -> Measure.(Seconds (if trace = Some 1 then 0.4 *. s else s), Seconds (0.5 *. s))
    | None -> Measure.(Passes w.passes, Passes (max 2 (w.passes / 10)))
  in
  let layers = trace <> Some 0 in
  let m = Measure.run w untraced ~layers in
  let passes, spans =
    if not layers then ([||], [])
    else begin
      let input = Lazy.force w.input in
      let inproc = w.client = Workload.Inproc in
      let r = Replay.create ~shards:(match w.client with Drive s -> s | _ -> 1) in
      let acc = ref [] in
      Fun.protect
        ~finally:(fun () -> Replay.close r)
        (fun () -> Measure.repeat traced (fun () -> acc := Replay.pass r input ~inproc :: !acc));
      (Array.of_list (List.rev !acc), Replay.chrome r ~origin ~pid ~workload:w.name)
    end
  in
  let e2e = if trace = Some 1 then [] else Report.end_to_end m in
  let layer =
    if layers then Report.per_layer m passes ~inproc:(w.client = Workload.Inproc) else []
  in
  let counters = Report.counters m passes in
  Printf.printf "%-13s %s\n" w.name
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters));
  List.iter (fun x -> print_endline (Report.row ~mask:smoke w.name x)) (e2e @ layer);
  let attempted = m.attempted and failed = m.failed in
  Printf.printf "%-13s %-32s %12s %s\n%!" w.name "error_frac"
    (Report.num (Report.error_frac ~attempted ~failed))
    "frac";
  {
    json = Report.workload_json ~name:w.name ~attempted ~failed ~counters (e2e @ layer);
    line = Report.result_line ~attempted ~failed (e2e @ layer);
    spans;
    failed;
  }

let write path j =
  Out_channel.with_open_bin path (fun oc ->
      J.to_channel oc j;
      output_char oc '\n')

let main names seed seconds trace out smoke =
  let all = Workload.all ~smoke ~seed in
  let known = List.map (fun (w : Workload.t) -> w.name) all in
  match List.filter (fun n -> not (List.mem n known)) names with
  | n :: _ ->
      Printf.eprintf "spbench: unknown workload %S (valid: %s)\n" n (String.concat ", " known);
      2
  | [] -> (
      let chosen =
        List.filter (fun (w : Workload.t) -> names = [] || List.mem w.name names) all
      in
      match
        List.mapi (run_workload ~smoke ~seconds ~trace) chosen
      with
      | exception Replay.Infidelity msg ->
          Printf.eprintf "spbench: traced replay disagrees with the detector: %s\n" msg;
          1
      | outcomes ->
          Option.iter
            (fun dir ->
              if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
              write (Filename.concat dir "metrics.json")
                (J.Obj
                   [
                     ("seed", J.Int seed);
                     ("workloads", J.List (List.map (fun o -> o.json) outcomes));
                   ]);
              if trace <> Some 0 then
                write (Filename.concat dir "trace.json")
                  (J.Obj
                     [
                       ("traceEvents", J.List (List.concat_map (fun o -> o.spans) outcomes));
                       ("displayTimeUnit", J.String "ns");
                     ]))
            out;
          (match outcomes with [ o ] -> print_endline o.line | _ -> ());
          if List.for_all (fun o -> o.failed = 0) outcomes then 0 else 1)

let run_term =
  let names =
    Arg.(
      value & opt_all string []
      & info [ "workload"; "w" ] ~docv:"NAME" ~doc:"Run only this workload (repeatable).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.") in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:
            "Measure each workload for $(docv) seconds instead of its fixed pass count.  With \
             --trace 1, 40% of it untraced and 50% traced.")
  in
  let trace =
    Arg.(
      value
      & opt (some (enum [ ("0", 0); ("1", 1) ])) None
      & info [ "trace" ] ~docv:"0|1"
          ~doc:
            "0: end-to-end metrics only.  1: per-layer metrics from the traced replay.  Default: \
             both.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Write DIR/metrics.json and DIR/trace.json.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny inputs and two passes; timings masked.")
  in
  Term.(const main $ names $ seed $ seconds $ trace $ out $ smoke)

let compare_cmd =
  let side n doc =
    Arg.(
      required
      & pos n (some (list string)) None
      & info [] ~docv:(if n = 0 then "BASE" else "NEW") ~doc)
  in
  let bounds =
    Arg.(
      value & opt string "BENCHMARK.json"
      & info [ "bounds" ] ~docv:"FILE" ~doc:"Where the end-to-end bounds are.")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Check every (end-to-end metric, workload) pair of NEW against BASE within the bounds; \
          each side is a comma-separated list of metrics.json files, compared by median.")
    Term.(
      const (fun bounds b n -> Report.compare ~bounds b n)
      $ bounds
      $ side 0 "Baseline metrics.json files."
      $ side 1 "Candidate metrics.json files.")

let () =
  let info = Cmd.info "spbench" ~doc:"The repository's benchmark" in
  exit (Cmd.eval' (Cmd.group ~default:run_term info [ compare_cmd ]))

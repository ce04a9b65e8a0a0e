(* spingest — the streaming trace-ingestion service CLI.

   Subcommands:
     capture  generate a workload and write its .spr-trace file
     run      ingest trace files through a resident detector server
     bench    resident-server throughput on the spmix trace

   Examples:
     spingest capture --workload mergesort-buggy --size 64 -o m.spr-trace
     spingest run m.spr-trace --shards 4
     spingest bench --smoke --json ingest.json                         *)

open Cmdliner
module Codec = Spr_ingest.Codec
module Server = Spr_ingest.Server
module B = Spr_ingest.Ingest_bench
module J = Spr_obs.Json
module T = Spr_util.Table

exception Usage of string

let with_usage f =
  try f ()
  with Usage msg ->
    Printf.eprintf "spingest: %s\n" msg;
    1

let size_arg =
  Arg.(value & opt int 64 & info [ "size"; "n" ] ~docv:"N" ~doc:"Generator size parameter.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let shards_arg =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"S" ~doc:"Shadow-memory shards (domains).")

let batch_arg =
  Arg.(value & opt int 8192 & info [ "batch" ] ~docv:"B" ~doc:"Per-shard batch capacity.")

(* ------------------------------------------------------------------ *)
(* capture                                                             *)

let capture_cmd_run kind size seed count out =
  with_usage @@ fun () ->
  let gen =
    match Spr_workloads.Progs.find_opt kind with
    | Some gen -> gen
    | None -> raise (Usage (Spr_workloads.Progs.unknown kind))
  in
  if count < 1 then raise (Usage "--count must be at least 1");
  let progs = List.init count (fun i -> gen ~size ~seed:(seed + i)) in
  let bytes = Codec.capture_file out progs in
  Printf.printf "captured %d %s program(s) (size %d, seed %d): %d bytes -> %s\n" count kind
    size seed bytes out;
  0

let capture_cmd =
  let workload =
    Arg.(value & opt string "dcsum" & info [ "workload"; "w" ] ~docv:"KIND" ~doc:"Workload kind.")
  in
  let count =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"K" ~doc:"Programs per trace (seeds SEED..SEED+K-1).")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  Cmd.v
    (Cmd.info "capture" ~doc:"Capture a workload as a .spr-trace file")
    Term.(const capture_cmd_run $ workload $ size_arg $ seed_arg $ count $ out)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let parse_oracle = function
  | "sp-order-fused" -> Server.Sp_fused
  | "hb-vector" -> Server.Hb_vector
  | s -> raise (Usage (Printf.sprintf "unknown oracle %S (valid: sp-order-fused, hb-vector)" s))

let run_cmd_run files shards batch oracle =
  with_usage @@ fun () ->
  if files = [] then raise (Usage "run needs at least one trace file");
  let oracle = parse_oracle oracle in
  if oracle <> Server.Sp_fused && shards > 1 then
    raise (Usage "the hb-vector oracle requires --shards 1");
  let srv =
    try Server.create ~shards ~batch ~oracle ()
    with Invalid_argument msg -> raise (Usage msg)
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let code = ref 0 in
  List.iter
    (fun file ->
      match Server.run_file srv file with
      | Error e ->
          Format.eprintf "spingest: %s: %a@." file Codec.pp_error e;
          code := 1
      | Ok results ->
          Printf.printf "%s: %d program(s)\n" file (List.length results);
          List.iter
            (fun (r : Server.program_result) ->
              Printf.printf
                "  prog %d: %d race report(s) on locations [%s], %d SP queries\n"
                r.Server.index (List.length r.Server.races)
                (String.concat "; " (List.map string_of_int r.Server.racy_locs))
                r.Server.sp_queries)
            results)
    files;
  !code

let run_cmd =
  let files = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  let oracle =
    Arg.(
      value
      & opt string "sp-order-fused"
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"SP oracle: sp-order-fused (default) or hb-vector.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Ingest trace files through a resident detector server")
    Term.(const run_cmd_run $ files $ shards_arg $ batch_arg $ oracle)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)

(* The JSON mirrors bench_json.ml's schema exactly, so regress.exe can
   threshold either producer's output against BENCH_ingest.json. *)
let entry_json ~events (r : B.result) =
  let backend = if r.B.shards = 1 then "serial" else Printf.sprintf "sharded-%d" r.B.shards in
  let entry metric kind samples =
    let arr = Array.of_list samples in
    let q p = Spr_util.Stats.quantile arr p in
    J.Obj
      [
        ("experiment", J.String "ingest");
        ("backend", J.String backend);
        ("pattern", J.String "spmix");
        ("n", J.Int events);
        ("metric", J.String metric);
        ("kind", J.String kind);
        ("samples", J.List (List.map (fun s -> J.Float s) samples));
        ("median", J.Float (q 0.5));
        ("q25", J.Float (q 0.25));
        ("q75", J.Float (q 0.75));
        ("q90", J.Float (q 0.9));
      ]
  in
  let counter metric v = entry metric "counter" [ float_of_int v ] in
  [
    entry "ns_per_access" "time" r.B.samples;
    counter "access_events" r.B.access_events;
    counter "total_events" r.B.total_events;
    counter "races" r.B.races;
    counter "sp_queries" r.B.sp_queries;
    counter "trace_bytes" r.B.trace_bytes;
  ]

let parse_shards s =
  let parts = String.split_on_char ',' s in
  let shards =
    List.map
      (fun p ->
        match int_of_string_opt (String.trim p) with
        | Some n when n >= 1 -> n
        | _ -> raise (Usage (Printf.sprintf "bad --shards list %S (want e.g. \"1,2,4\")" s)))
      parts
  in
  if shards = [] then raise (Usage "--shards list is empty") else shards

let bench_cmd_run events repeats shards_list seed smoke json =
  with_usage @@ fun () ->
  let events = if smoke then min events 50_000 else events in
  let repeats = if smoke then min repeats 2 else repeats in
  let shard_counts = parse_shards shards_list in
  let trace = B.capture_spmix ~events ~seed in
  Printf.printf "spmix trace: >= %s access events, %s bytes\n%!" (T.fmt_int events)
    (T.fmt_int (String.length trace));
  let table =
    T.create ~title:"resident ingestion throughput"
      [ ("shards", T.Right); ("ns/access", T.Right); ("events/sec", T.Right); ("races", T.Right) ]
  in
  let entries = ref [] in
  List.iter
    (fun shards ->
      let r = B.measure ~repeats ~shards trace in
      let med = Spr_util.Stats.median (Array.of_list r.B.samples) in
      T.add_row table
        [
          string_of_int shards;
          T.fmt_ns med;
          T.fmt_int (int_of_float (B.events_per_sec med));
          T.fmt_int r.B.races;
        ];
      entries := !entries @ entry_json ~events r)
    shard_counts;
  print_string (T.render table);
  (match json with
  | None -> ()
  | Some path ->
      let doc =
        J.Obj
          [
            ("schema_version", J.Int 1);
            ("experiments", J.List [ J.String "ingest" ]);
            ("entries", J.List !entries);
          ]
      in
      let oc = open_out path in
      J.to_channel oc doc;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path);
  0

let bench_cmd =
  let events =
    Arg.(value & opt int 2_000_000 & info [ "events" ] ~docv:"N" ~doc:"Minimum access events in the spmix trace.")
  in
  let repeats =
    Arg.(value & opt int 5 & info [ "repeats" ] ~docv:"R" ~doc:"Timed repeats per shard count.")
  in
  let shards =
    Arg.(value & opt string "1,2,4" & info [ "shards" ] ~docv:"LIST" ~doc:"Comma-separated shard counts.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny trace and 2 repeats (CI; schema unchanged).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write bench-json samples.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Measure resident-server ingestion throughput")
    Term.(const bench_cmd_run $ events $ repeats $ shards $ seed_arg $ smoke $ json)

(* ------------------------------------------------------------------ *)

let () =
  let info = Cmd.info "spingest" ~doc:"Streaming trace-ingestion service" in
  exit (Cmd.eval' (Cmd.group info [ capture_cmd; run_cmd; bench_cmd ]))

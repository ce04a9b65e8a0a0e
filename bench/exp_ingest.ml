(* EXP-INGEST — the streaming trace-ingestion service (lib/ingest):
   resident-server throughput over the spmix trace, single-shard and
   address-sharded across worker domains.

   The acceptance bar from the roadmap is >= 10^7 access events/sec on
   the captured spmix trace at the full measured size; regress.exe
   thresholds the committed BENCH_ingest.json medians, and CI reruns
   the smoke size on every push.

   Next to the timed passes, one untimed pass drives each program's own
   trace through a server and sums the fused order's size and both
   planes' relabel work after each program: exact counters of the
   streaming SP construction, which regress matches exactly. *)

module T = Spr_util.Table
module B = Spr_ingest.Ingest_bench

let shard_counts = [ 1; 2; 4 ]

(* [(om_elements, relabel_passes, items_moved)] summed over the
   programs, each read from the OM right after its program. *)
let om_work programs =
  let module Om = Spr_om.Om_fused in
  let srv = Spr_ingest.Server.create () in
  let sum (elements, passes, moved) p =
    Spr_ingest.Server.drive srv (Spr_ingest.Codec.capture [ p ]);
    let om = Spr_ingest.Server.om srv in
    let eng = Om.stats_eng om and heb = Om.stats_heb om in
    ( elements + Om.size om,
      passes + eng.relabel_passes + heb.relabel_passes,
      moved + eng.items_moved + heb.items_moved )
  in
  let totals = List.fold_left sum (0, 0, 0) programs in
  Spr_ingest.Server.close srv;
  totals

let run () =
  let events = Bench_json.scaled_n ~default:2_000_000 in
  let programs = B.spmix ~events ~seed:1 in
  let trace = Spr_ingest.Codec.capture programs in
  Printf.printf "EXP-INGEST: spmix trace, >= %s access events (%s bytes)\n%!"
    (T.fmt_int events)
    (T.fmt_int (String.length trace));
  let table =
    T.create ~title:"resident ingestion throughput"
      [
        ("shards", T.Right);
        ("ns/access", T.Right);
        ("events/sec", T.Right);
        ("programs", T.Right);
        ("accesses", T.Right);
        ("races", T.Right);
      ]
  in
  List.iter
    (fun shards ->
      let r = B.measure ~shards trace in
      let med = Spr_util.Stats.median (Array.of_list r.B.samples) in
      T.add_row table
        [
          string_of_int shards;
          T.fmt_ns med;
          T.fmt_int (int_of_float (B.events_per_sec med));
          T.fmt_int r.B.programs;
          T.fmt_int r.B.access_events;
          T.fmt_int r.B.races;
        ];
      let backend = if shards = 1 then "serial" else Printf.sprintf "sharded-%d" shards in
      let add = Bench_json.add ~experiment:"ingest" ~backend ~pattern:"spmix" ~n:events in
      add ~metric:"ns_per_access" ~kind:Bench_json.Time r.B.samples;
      add ~metric:"access_events" ~kind:Bench_json.Counter [ float_of_int r.B.access_events ];
      add ~metric:"total_events" ~kind:Bench_json.Counter [ float_of_int r.B.total_events ];
      add ~metric:"races" ~kind:Bench_json.Counter [ float_of_int r.B.races ];
      add ~metric:"sp_queries" ~kind:Bench_json.Counter [ float_of_int r.B.sp_queries ];
      add ~metric:"trace_bytes" ~kind:Bench_json.Counter [ float_of_int r.B.trace_bytes ])
    shard_counts;
  print_string (T.render table);
  let elements, passes, moved = om_work programs in
  Printf.printf
    "streaming SP order, summed per program: %s OM elements, %s relabel passes, %s items moved\n"
    (T.fmt_int elements) (T.fmt_int passes) (T.fmt_int moved);
  let add = Bench_json.add ~experiment:"ingest" ~backend:"serial" ~pattern:"spmix" ~n:events in
  List.iter
    (fun (metric, v) -> add ~metric ~kind:Bench_json.Counter [ float_of_int v ])
    [ ("om_elements", elements); ("relabel_passes", passes); ("items_moved", moved) ]

(* The correctness gate counts doctored results as failed programs: a
   dropped race and an SP query count off by one must both be caught,
   on the service path and on the in-process path. *)

module W = Spr_workloads.Progs
module Server = Spr_ingest.Server
module Codec = Spr_ingest.Codec
module Drivers = Spr_race.Drivers
open Spbench_lib

let programs =
  [| W.dc_sum ~buggy:true ~leaves:16 (); W.mergesort ~buggy:true ~n:32 (); W.fib ~n:6 () |]

let want = Array.map Workload.reference programs

(* One request per program, as the benchmark sends them. *)
let served () =
  let srv = Server.create () in
  Fun.protect
    ~finally:(fun () -> Server.close srv)
    (fun () -> Array.map (fun p -> Server.run_string srv (Codec.capture [ p ])) programs)

(* Program 0 loses its first race, program 1 gains a query. *)
let doctor i (races, sp_queries) =
  match i with
  | 0 -> (List.tl races, sp_queries)
  | 1 -> (races, sp_queries + 1)
  | _ -> (races, sp_queries)

let server_results () =
  Alcotest.(check bool) "program 0 has a race to drop" true (want.(0).races <> []);
  Alcotest.(check int) "honest results pass" 0 (Check.server_failures want (served ()));
  let doctored =
    Array.mapi
      (fun i ->
        Result.map
          (List.map (fun (r : Server.program_result) ->
               let races, sp_queries = doctor i (r.races, r.sp_queries) in
               { r with races; sp_queries })))
      (served ())
  in
  Alcotest.(check int) "both doctored programs fail" 2 (Check.server_failures want doctored);
  let broken = served () in
  broken.(0) <- Ok [];
  broken.(2) <- Error { Codec.offset = 0; frame = 0; msg = "doctored" };
  Alcotest.(check int) "a missing result and a decode error fail" 2
    (Check.server_failures want broken)

let inproc_results () =
  let got = Array.map Drivers.detect_serial_fused programs in
  Alcotest.(check int) "honest results pass" 0 (Check.inproc_failures want got);
  let doctored =
    Array.mapi
      (fun i (r : Drivers.serial_result) ->
        let races, sp_queries = doctor i (r.races, r.sp_queries) in
        { r with races; sp_queries })
      got
  in
  Alcotest.(check int) "both doctored programs fail" 2 (Check.inproc_failures want doctored)

let () =
  Alcotest.run "spbench"
    [
      ( "check",
        [
          Alcotest.test_case "server results" `Quick server_results;
          Alcotest.test_case "inproc results" `Quick inproc_results;
        ] );
    ]

(* Clock-detector validation (lib/hb): the three-way differential race
   oracle — sp-order-fused vs vector clocks vs DePa's fork-path labels,
   full detection output compared — over 10k random programs and the
   whole workload registry; the planted clock bugs must each be caught
   and shrunk; and the join cost the EXP-HB bench measures (a vector
   join moves Θ(P) words) is pinned exactly on the fork chain. *)

open Spr_prog
module F = Spr_check.Fuzz
module W = Spr_workloads.Progs
module Drivers = Spr_race.Drivers
module Sm = Spr_core.Sp_maintainer

let race_repr (r : Spr_race.Detector.race) =
  Printf.sprintf "loc=%d %d(%c)->%d(%c)" r.loc r.earlier
    (if r.earlier_write then 'w' else 'r')
    r.later
    (if r.later_write then 'w' else 'r')

let detect p make = Drivers.detect_serial (Prog_tree.of_program p) make

let check_triple ctx p =
  let base = detect p Spr_core.Algorithms.sp_order_fused in
  List.iter
    (fun (name, make) ->
      let got = detect p make in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s races" ctx name)
        (List.map race_repr base.Drivers.races)
        (List.map race_repr got.Drivers.races);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: %s racy locs" ctx name)
        base.Drivers.racy_locs got.Drivers.racy_locs;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s sp queries" ctx name)
        base.Drivers.sp_queries got.Drivers.sp_queries)
    F.default_hb_algos

(* ------------------------------------------------------------------ *)
(* The 10k-program differential, shapes cycling as in the fuzzer.      *)

let ten_k_triples () =
  match F.run_hb (F.default ~seed:11 ~iters:10_000) with
  | None -> ()
  | Some f -> Alcotest.failf "HB divergence: %s" (Format.asprintf "%a" F.pp_hb_failure f)

(* Every named workload generator, races and query counts included
   (the generators carry real access patterns, unlike the fuzzer's
   decorated specs). *)
let workload_registry_triples () =
  let size_for = function
    | "fib" | "matmul" | "matmul-buggy" -> 8
    | "serial" -> 12
    | "deep" | "locked" | "locked-buggy" -> 16
    | "wide" | "shared-readers" -> 24
    | "dcsum" | "dcsum-buggy" -> 32
    | _ -> 48
  in
  List.iter
    (fun (name, gen) -> check_triple name (gen ~size:(size_for name) ~seed:3))
    W.named

(* ------------------------------------------------------------------ *)
(* Planted clock bugs: each oracle must independently catch a fault in
   the others, with the repro shrunk to a handful of threads.          *)

let catches cfg_algos expect_algo =
  let cfg = { (F.default ~seed:3 ~iters:60) with F.hb_algos = cfg_algos } in
  match F.run_hb cfg with
  | None -> Alcotest.failf "planted fault %s not caught in 60 programs" expect_algo
  | Some f ->
      Alcotest.(check string) "diverging detector" expect_algo f.F.hb_algo;
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to a small repro (%d threads)" f.F.hb_threads)
        true (f.F.hb_threads <= 8)

let vector_no_join_caught () =
  catches (F.default_hb_algos @ [ Spr_check.Faulty.hb_vector_no_join ]) "hb-vector-nojoin"

let vector_no_restore_caught () =
  catches (F.default_hb_algos @ [ Spr_check.Faulty.hb_vector_no_restore ]) "hb-vector-norestore"

(* The healthy detectors must stay silent on the same battery, or the
   two tests above prove only that run_hb fails a lot. *)
let healthy_detectors_silent () =
  match F.run_hb (F.default ~seed:3 ~iters:60) with
  | None -> ()
  | Some f -> Alcotest.failf "unexpected divergence from %s" f.F.hb_algo

(* ------------------------------------------------------------------ *)
(* The join cost EXP-HB measures, as an exact pin: on a P-fork chain
   (2P threads) the i-th join folds in a clock 2i - 1 slots wide, P²
   words in all, so a vector clock's joined words per thread are
   exactly P/2 — Θ(P) per join.                                        *)

let joined_words_per_thread forks =
  let tree = Spr_sptree.Tree_gen.fork_chain ~forks in
  let module V = Spr_hb.Sp_clock.Vector in
  let v = V.create tree in
  Spr_core.Driver.run tree (Sm.Instance ((module V), v));
  V.joined_words v / Spr_sptree.Sp_tree.leaf_count tree

let fork_chain_join_words () =
  Alcotest.(check int) "joined words per thread at P = 256" 128 (joined_words_per_thread 256)

let fork_chain_join_growth () =
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "P = %d -> %d doubles the per-thread count" p (2 * p))
        (2 * joined_words_per_thread p)
        (joined_words_per_thread (2 * p)))
    [ 64; 256; 1024 ]

let () =
  Alcotest.run "hb"
    [
      ( "differential",
        [
          Alcotest.test_case "10k random programs, three oracles" `Quick ten_k_triples;
          Alcotest.test_case "workload registry, three oracles" `Quick
            workload_registry_triples;
        ] );
      ( "planted bugs",
        [
          Alcotest.test_case "vector no-join caught" `Quick vector_no_join_caught;
          Alcotest.test_case "vector no-restore caught" `Quick vector_no_restore_caught;
          Alcotest.test_case "healthy detectors silent" `Quick healthy_detectors_silent;
        ] );
      ( "asymptotics",
        [
          Alcotest.test_case "fork-chain join words" `Quick fork_chain_join_words;
          Alcotest.test_case "fork-chain join growth" `Quick fork_chain_join_growth;
        ] );
    ]

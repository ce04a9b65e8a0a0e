(* Race-detector validation: the Nondeterminator protocol against the
   naive all-pairs checker, with every serial SP-maintenance algorithm
   as the oracle, plus SP-hybrid as the parallel oracle, plus the
   lockset (All-Sets-style) extension. *)

open Spr_prog
module Rng = Spr_util.Rng
module W = Spr_workloads.Progs

let serial_racy_locs algo p =
  let pt = Prog_tree.of_program p in
  (Spr_race.Drivers.detect_serial pt algo).Spr_race.Drivers.racy_locs

(* ------------------------------------------------------------------ *)
(* Planted-bug workloads.                                              *)

let dc_sum_clean () =
  let p = W.dc_sum ~leaves:32 () in
  let pt = Prog_tree.of_program p in
  Alcotest.(check bool) "naive says race-free" true (Spr_race.Naive_checker.race_free pt);
  List.iter
    (fun (name, algo) ->
      Alcotest.(check (list int)) (name ^ ": no races") [] (serial_racy_locs algo p))
    Spr_core.Algorithms.all

let dc_sum_buggy () =
  let p = W.dc_sum ~buggy:true ~leaves:32 () in
  let pt = Prog_tree.of_program p in
  let want = Spr_race.Naive_checker.racy_locs pt in
  Alcotest.(check bool) "bug planted" true (want <> []);
  List.iter
    (fun (name, algo) ->
      Alcotest.(check (list int)) (name ^ ": finds planted races") want (serial_racy_locs algo p))
    Spr_core.Algorithms.all

(* Application workloads: parallel mergesort and blocked matmul, clean
   and with their classic planted bugs (overlapping scratch; missing
   sync between the two multiplication waves). *)
let applications () =
  let cases =
    [
      ("mergesort", fun buggy -> W.mergesort ~buggy ~n:64 ());
      ("matmul", fun buggy -> W.matmul ~buggy ~n:8 ());
    ]
  in
  List.iter
    (fun (name, make) ->
      let clean = Prog_tree.of_program (make false) in
      Alcotest.(check bool) (name ^ " clean is race-free") true
        (Spr_race.Naive_checker.race_free clean);
      Alcotest.(check (list int))
        (name ^ " detector agrees clean")
        []
        (Spr_race.Drivers.detect_serial clean Spr_core.Algorithms.sp_order)
          .Spr_race.Drivers.racy_locs;
      let buggy = Prog_tree.of_program (make true) in
      let want = Spr_race.Naive_checker.racy_locs buggy in
      Alcotest.(check bool) (name ^ " bug planted") true (want <> []);
      List.iter
        (fun (oracle, algo) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s localizes the bug" name oracle)
            want
            (Spr_race.Drivers.detect_serial buggy algo).Spr_race.Drivers.racy_locs)
        [ ("sp-order", Spr_core.Algorithms.sp_order); ("sp-bags", Spr_core.Algorithms.sp_bags) ];
      (* ... and through SP-hybrid on the simulator at P=4. *)
      let r = Spr_race.Drivers.detect_hybrid ~seed:3 ~procs:4 (make true) in
      Alcotest.(check bool) (name ^ " hybrid finds it") true (r.Spr_race.Drivers.racy_locs <> []);
      List.iter
        (fun l -> Alcotest.(check bool) (name ^ " hybrid loc real") true (List.mem l want))
        r.Spr_race.Drivers.racy_locs)
    cases

(* ------------------------------------------------------------------ *)
(* Random cross-validation: detector (serial, any oracle) = naive.     *)

let random_serial_matches_naive =
  QCheck2.Test.make ~count:80 ~name:"serial detector = naive checker (random programs)"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 60))
    (fun (seed, threads) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs:8
          ~accesses_per_thread:4 ()
      in
      let pt = Prog_tree.of_program p in
      let want = Spr_race.Naive_checker.racy_locs pt in
      List.for_all
        (fun (_, algo) -> serial_racy_locs algo p = want)
        [ ("sp-order", Spr_core.Algorithms.sp_order); ("sp-bags", Spr_core.Algorithms.sp_bags) ])

(* ------------------------------------------------------------------ *)
(* Hybrid (parallel) detection.                                        *)

let hybrid_finds_planted () =
  let p = W.dc_sum ~buggy:true ~leaves:32 () in
  let pt = Prog_tree.of_program p in
  let want = Spr_race.Naive_checker.racy_locs pt in
  List.iter
    (fun procs ->
      let r = Spr_race.Drivers.detect_hybrid ~seed:17 ~procs p in
      Alcotest.(check bool)
        (Printf.sprintf "hybrid P=%d finds races" procs)
        true
        (r.Spr_race.Drivers.racy_locs <> []);
      (* Soundness: everything reported is a real race location. *)
      List.iter
        (fun l -> Alcotest.(check bool) "reported loc is racy" true (List.mem l want))
        r.Spr_race.Drivers.racy_locs)
    [ 1; 2; 4; 8 ]

let hybrid_clean_stays_clean =
  QCheck2.Test.make ~count:40 ~name:"hybrid reports nothing on race-free programs"
    QCheck2.Gen.(pair (0 -- 1_000_000) (1 -- 6))
    (fun (seed, procs) ->
      let p = W.dc_sum ~leaves:16 () in
      let r = Spr_race.Drivers.detect_hybrid ~seed ~procs p in
      r.Spr_race.Drivers.racy_locs = [])

let hybrid_sound_on_random =
  QCheck2.Test.make ~count:60 ~name:"hybrid is sound on random programs"
    QCheck2.Gen.(triple (0 -- 1_000_000) (2 -- 50) (1 -- 6))
    (fun (seed, threads, procs) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs:6
          ~accesses_per_thread:3 ()
      in
      let pt = Prog_tree.of_program p in
      let want = Spr_race.Naive_checker.racy_locs pt in
      let r = Spr_race.Drivers.detect_hybrid ~seed ~procs p in
      List.for_all (fun l -> List.mem l want) r.Spr_race.Drivers.racy_locs)

(* Regression: the shadow-reader policy.  With a single reader slot,
   an out-of-order (parallel) schedule could observe readers r1, r2
   (r1 recorded first, r2 ∥ r1 arriving second and therefore dropped);
   a later write parallel only to r2 then went unreported.  The
   two-reader shadow keeps both, and detection on programs of <= 5
   threads is exactly the naive checker: the smallest program that can
   record three pairwise-parallel readers before a conflicting write —
   the remaining, documented approximation — needs a 6-unit thread
   budget. *)
let hybrid_two_reader_exact_small =
  QCheck2.Test.make ~count:300 ~name:"hybrid = naive on small racy programs (two-reader shadow)"
    QCheck2.Gen.(triple (0 -- 1_000_000) (1 -- 4) (1 -- 3))
    (fun (seed, procs, sim_seed) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads:(3 + (seed mod 3)) ~spawn_prob:0.7
          ~locs:1 ~accesses_per_thread:3 ()
      in
      let pt = Prog_tree.of_program p in
      let r = Spr_race.Drivers.detect_hybrid ~seed:sim_seed ~procs p in
      r.Spr_race.Drivers.racy_locs = Spr_race.Naive_checker.racy_locs pt)

(* The deterministic sweep the bug was originally found in (single
   reader: 41 misses in this space; two readers: none). *)
let hybrid_two_reader_sweep () =
  let misses = ref 0 and total = ref 0 in
  for seed = 1 to 2_000 do
    let p =
      W.random_prog ~rng:(Rng.create seed) ~threads:(3 + (seed mod 4)) ~spawn_prob:0.7 ~locs:1
        ~accesses_per_thread:3 ()
    in
    let pt = Prog_tree.of_program p in
    let want = Spr_race.Naive_checker.racy_locs pt in
    for procs = 1 to 4 do
      for sim_seed = 1 to 3 do
        incr total;
        let r = Spr_race.Drivers.detect_hybrid ~seed:sim_seed ~procs p in
        if r.Spr_race.Drivers.racy_locs <> want then incr misses
      done
    done
  done;
  Alcotest.(check int) (Printf.sprintf "0 misses in %d runs" !total) 0 !misses

let hybrid_serial_complete =
  (* On one worker the hybrid run is the serial left-to-right walk, so
     the Feng-Leiserson completeness argument applies exactly. *)
  QCheck2.Test.make ~count:60 ~name:"hybrid on P=1 = naive checker"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 50))
    (fun (seed, threads) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs:6
          ~accesses_per_thread:3 ()
      in
      let pt = Prog_tree.of_program p in
      let r = Spr_race.Drivers.detect_hybrid ~seed ~procs:1 p in
      r.Spr_race.Drivers.racy_locs = Spr_race.Naive_checker.racy_locs pt)

(* ------------------------------------------------------------------ *)
(* Lockset (All-Sets) extension.                                       *)

let lockset_discipline () =
  let check mode want_lockset_race =
    let p = W.locked_counter ~mode ~leaves:16 () in
    let pt = Prog_tree.of_program p in
    let vanilla = Spr_race.Drivers.detect_serial pt Spr_core.Algorithms.sp_order in
    (* Parallel writes to loc 0 are always a determinacy race. *)
    Alcotest.(check bool) "determinacy race present" true
      (vanilla.Spr_race.Drivers.racy_locs <> []);
    let locked = Spr_race.Drivers.detect_serial_locked pt Spr_core.Algorithms.sp_order in
    Alcotest.(check bool)
      (Printf.sprintf "lockset race expectation (%b)" want_lockset_race)
      want_lockset_race
      (locked.Spr_race.Drivers.racy_locs <> [])
  in
  check `Common_lock false;
  check `Distinct_locks true;
  check `No_locks true

let lockset_hybrid () =
  (* The parallel, on-the-fly, lock-aware configuration. *)
  List.iter
    (fun procs ->
      let clean = W.locked_counter ~mode:`Common_lock ~leaves:12 () in
      let r = Spr_race.Drivers.detect_hybrid_locked ~seed:5 ~procs clean in
      Alcotest.(check (list int)) "common lock clean" [] r.Spr_race.Drivers.racy_locs;
      let buggy = W.locked_counter ~mode:`Distinct_locks ~leaves:12 () in
      let r = Spr_race.Drivers.detect_hybrid_locked ~seed:5 ~procs buggy in
      Alcotest.(check bool)
        (Printf.sprintf "distinct locks race (P=%d)" procs)
        true
        (r.Spr_race.Drivers.racy_locs <> []))
    [ 1; 2; 4 ]

let lockset_matches_naive =
  QCheck2.Test.make ~count:60 ~name:"lockset detector = naive lock-aware checker"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 40))
    (fun (seed, threads) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs:5
          ~accesses_per_thread:3 ~lock_count:3 ()
      in
      let pt = Prog_tree.of_program p in
      let locked = Spr_race.Drivers.detect_serial_locked pt Spr_core.Algorithms.sp_order in
      locked.Spr_race.Drivers.racy_locs = Spr_race.Naive_checker.racy_locs_locked pt)

(* Release protocol: deleting threads that left shadow memory must not
   change any verdict, and must keep the SP-order structures close to
   the live frontier instead of the whole history. *)
let releasing_matches_plain () =
  (* Verdict equivalence on the planted-bug workloads (where shadow
     churn is low)... *)
  List.iter
    (fun buggy ->
      let p = W.dc_sum ~buggy ~leaves:128 ~grain:2 () in
      let pt = Prog_tree.of_program p in
      let plain = Spr_race.Drivers.detect_serial pt Spr_core.Algorithms.sp_order in
      let rel = Spr_race.Drivers.detect_serial_releasing pt in
      Alcotest.(check (list int))
        "same racy locations" plain.Spr_race.Drivers.racy_locs
        rel.Spr_race.Drivers.result.Spr_race.Drivers.racy_locs)
    [ false; true ];
  (* ... and actual memory reclamation where shadow slots churn: many
     threads hammering a few locations. *)
  let p =
    W.random_prog ~rng:(Rng.create 5) ~threads:300 ~spawn_prob:0.4 ~locs:3
      ~accesses_per_thread:4 ()
  in
  let pt = Prog_tree.of_program p in
  let rel = Spr_race.Drivers.detect_serial_releasing pt in
  Alcotest.(check bool)
    (Printf.sprintf "threads released (%d)" rel.Spr_race.Drivers.released)
    true
    (rel.Spr_race.Drivers.released > 50);
  Alcotest.(check bool)
    (Printf.sprintf "final size %d below peak %d" rel.Spr_race.Drivers.final_om_nodes
       rel.Spr_race.Drivers.peak_om_nodes)
    true
    (rel.Spr_race.Drivers.final_om_nodes < rel.Spr_race.Drivers.peak_om_nodes)

let releasing_matches_naive =
  QCheck2.Test.make ~count:60 ~name:"releasing detector = naive checker"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 50))
    (fun (seed, threads) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs:6
          ~accesses_per_thread:4 ()
      in
      let pt = Prog_tree.of_program p in
      let rel = Spr_race.Drivers.detect_serial_releasing pt in
      rel.Spr_race.Drivers.result.Spr_race.Drivers.racy_locs
      = Spr_race.Naive_checker.racy_locs pt)

(* ------------------------------------------------------------------ *)
(* Fused zero-allocation pipeline (direct program walk + Om_fused +
   packed shadow cells): identical verdicts and query counts to the boxed
   detect_serial with sp-order, including across repeated in-place
   reruns of one pipeline instance.                                    *)

let fused_matches_serial =
  QCheck2.Test.make ~count:120 ~name:"fused pipeline = boxed detect_serial (races + queries)"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 60))
    (fun (seed, threads) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs:8
          ~accesses_per_thread:4 ()
      in
      let pt = Prog_tree.of_program p in
      let boxed = Spr_race.Drivers.detect_serial pt Spr_core.Algorithms.sp_order in
      let fused = Spr_race.Drivers.detect_serial_fused p in
      fused.Spr_race.Drivers.races = boxed.Spr_race.Drivers.races
      && fused.Spr_race.Drivers.racy_locs = boxed.Spr_race.Drivers.racy_locs
      && fused.Spr_race.Drivers.sp_queries = boxed.Spr_race.Drivers.sp_queries)

let fused_rerun_deterministic () =
  (* One pipeline instance, rewound in place: every rerun must
     reproduce the first run exactly (reset correctness of the fused OM
     and the packed detector). *)
  List.iter
    (fun buggy ->
      let p = W.dc_sum ~buggy ~leaves:64 () in
      let t = Spr_race.Drivers.Fused.create p in
      Spr_race.Drivers.Fused.run t;
      let first = Spr_race.Drivers.Fused.result t in
      for _ = 1 to 5 do
        Spr_race.Drivers.Fused.run t;
        let again = Spr_race.Drivers.Fused.result t in
        Alcotest.(check bool) "identical rerun" true (again = first)
      done;
      let pt = Prog_tree.of_program p in
      let boxed = Spr_race.Drivers.detect_serial pt Spr_core.Algorithms.sp_order in
      Alcotest.(check (list int))
        "matches boxed" boxed.Spr_race.Drivers.racy_locs first.Spr_race.Drivers.racy_locs)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* The resident pipeline: detect_serial_fused reuses one Fused.t per
   domain, retargeted at each program and cleared only over that
   program's locations.  Whatever ran on the domain before, a call must
   answer exactly as a fresh pipeline and the boxed detect_serial do —
   races in order, racy locations and query count.                    *)

module D = Spr_race.Drivers

let fresh_fused p =
  let t = D.Fused.create p in
  D.Fused.run t;
  D.Fused.result t

let boxed_serial p = D.detect_serial (Prog_tree.of_program p) Spr_core.Algorithms.sp_order

let same_answers (a : D.serial_result) (b : D.serial_result) =
  a.races = b.races && a.racy_locs = b.racy_locs && a.sp_queries = b.sp_queries

let resident_prog ~seed ~locs =
  W.random_prog ~rng:(Rng.create seed) ~threads:40 ~spawn_prob:0.5 ~locs
    ~accesses_per_thread:16 ()

let touches p loc =
  Array.exists
    (fun (u : Fj_program.thread) ->
      Array.exists (fun (a : Fj_program.access) -> a.loc = loc) u.accesses)
    (Fj_program.threads p)

(* Each narrow program follows a wide one that touched the narrow
   one's last location, so a reset that stops one cell short leaves a
   stale shadow cell where the narrow program reads it. *)
let resident_wide_narrow () =
  let progs =
    List.map (fun (seed, locs) -> resident_prog ~seed ~locs) [ (1, 64); (2, 6); (3, 48); (4, 3) ]
  in
  List.iteri
    (fun i p ->
      let ctx = Printf.sprintf "program %d (max_loc %d)" i (Fj_program.max_loc p) in
      if i mod 2 = 1 then
        Alcotest.(check bool)
          (ctx ^ ": the wide program before touched its last location")
          true
          (touches (List.nth progs (i - 1)) (Fj_program.max_loc p));
      let got = D.detect_serial_fused p in
      let fresh = fresh_fused p and boxed = boxed_serial p in
      Alcotest.(check bool) (ctx ^ ": racy") true (boxed.races <> []);
      Alcotest.(check bool) (ctx ^ ": races = fresh pipeline") true (got.races = fresh.races);
      Alcotest.(check (list int)) (ctx ^ ": racy_locs = fresh") fresh.racy_locs got.racy_locs;
      Alcotest.(check int) (ctx ^ ": sp_queries = fresh") fresh.sp_queries got.sp_queries;
      Alcotest.(check bool) (ctx ^ ": = boxed detect_serial") true (same_answers got boxed))
    progs

let resident_sequences =
  QCheck2.Test.make ~count:60 ~name:"resident pipeline = fresh = boxed over program sequences"
    QCheck2.Gen.(list_size (2 -- 6) (triple (0 -- 1_000_000) (2 -- 60) (0 -- 100)))
    (fun specs ->
      List.for_all
        (fun (seed, threads, locs) ->
          let p =
            W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs
              ~accesses_per_thread:5 ()
          in
          let got = D.detect_serial_fused p in
          same_answers got (fresh_fused p) && same_answers got (boxed_serial p))
        specs)

(* Each domain has its own pipeline: two domains running the same
   programs at once must both match the reference, pass after pass. *)
let resident_two_domains () =
  let progs =
    List.init 12 (fun i -> resident_prog ~seed:(100 + i) ~locs:(if i mod 2 = 0 then 64 else 5))
  in
  let want = List.map fresh_fused progs in
  let run () =
    List.init 4 (fun _ ->
        List.for_all2 (fun p w -> same_answers (D.detect_serial_fused p) w) progs want)
  in
  let other = Domain.spawn run in
  let here = run () in
  let there = Domain.join other in
  Alcotest.(check (list bool)) "this domain" [ true; true; true; true ] here;
  Alcotest.(check (list bool)) "other domain" [ true; true; true; true ] there

(* ------------------------------------------------------------------ *)
(* Detector.racy_locs marks each location in a byte array that lives as
   long as the detector and unmarks only what it marked: it must equal
   the sort-and-dedup definition, and a second call must find every
   mark cleared and return the same list.                             *)

module Det = Spr_race.Detector

(* [(definition, first call, second call)] after a fused run of [p]. *)
let racy_locs_twice p =
  let t = Spr_race.Drivers.Fused.create p in
  Spr_race.Drivers.Fused.run t;
  let d = Spr_race.Drivers.Fused.detector t in
  let want = List.sort_uniq compare (List.map (fun (r : Det.race) -> r.Det.loc) (Det.races d)) in
  let first = Det.racy_locs d in
  (want, first, Det.racy_locs d)

let racy_locs_size = function
  | "fib" | "matmul" | "matmul-buggy" -> 8
  | "serial" | "deep" | "locked" | "locked-buggy" -> 16
  | "wide" | "shared-readers" | "dcsum" | "dcsum-buggy" -> 32
  | _ -> 64

let racy_locs_registry () =
  let widest = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let p = (Option.get (W.find_opt name)) ~size:(racy_locs_size name) ~seed in
          let want, first, second = racy_locs_twice p in
          let ctx = Printf.sprintf "%s seed %d" name seed in
          Alcotest.(check (list int)) (ctx ^ ": = sort_uniq of races") want first;
          Alcotest.(check (list int)) (ctx ^ ": second call") want second;
          widest := max !widest (List.length want))
        [ 1; 2; 3 ])
    W.names;
  (* More distinct locations than the first-seen vector's initial 8
     slots, so its growth is exercised too. *)
  Alcotest.(check bool) (Printf.sprintf "some program has > 8 racy locs (%d)" !widest) true
    (!widest > 8)

let racy_locs_random =
  QCheck2.Test.make ~count:200 ~name:"racy_locs = sort_uniq of race locs, twice"
    QCheck2.Gen.(triple (0 -- 1_000_000) (2 -- 60) (1 -- 200))
    (fun (seed, threads, locs) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs
          ~accesses_per_thread:6 ()
      in
      let want, first, second = racy_locs_twice p in
      want = first && want = second)

(* ------------------------------------------------------------------ *)
(* Fj_program.max_loc is tracked by the builder; it must equal a fold
   over every access, -1 for a program that makes none.               *)

let fold_max_loc p =
  Array.fold_left
    (fun m (u : Fj_program.thread) ->
      Array.fold_left (fun m (a : Fj_program.access) -> max m a.loc) m u.accesses)
    (-1) (Fj_program.threads p)

let max_loc_random =
  QCheck2.Test.make ~count:200 ~name:"max_loc = fold over threads"
    QCheck2.Gen.(triple (0 -- 1_000_000) (1 -- 60) (0 -- 300))
    (fun (seed, threads, locs) ->
      let p =
        W.random_prog ~rng:(Rng.create seed) ~threads ~spawn_prob:0.5 ~locs
          ~accesses_per_thread:4 ()
      in
      let want = fold_max_loc p in
      Fj_program.max_loc p = want && (locs > 0 || want = -1))

let max_loc_registry () =
  let b = Fj_program.Builder.create () in
  let u = Fj_program.Builder.thread b ~cost:1 () in
  let none = Fj_program.Builder.finish b (Fj_program.Builder.proc b [ [ Fj_program.Run u ] ]) in
  Alcotest.(check int) "no accesses" (-1) (Fj_program.max_loc none);
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let p = (Option.get (W.find_opt name)) ~size:(racy_locs_size name) ~seed in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d" name seed)
            (fold_max_loc p) (Fj_program.max_loc p))
        [ 1; 2; 3 ])
    W.names

(* Corollary 6 bookkeeping: O(1) queries per access. *)
let query_budget () =
  let p = W.dc_sum ~leaves:64 () in
  let pt = Prog_tree.of_program p in
  let accesses = ref 0 in
  Fj_program.iter_threads p (fun u -> accesses := !accesses + Array.length u.Fj_program.accesses);
  let r = Spr_race.Drivers.detect_serial pt Spr_core.Algorithms.sp_order in
  Alcotest.(check bool)
    (Printf.sprintf "<= 3 queries per access (%d for %d)" r.Spr_race.Drivers.sp_queries !accesses)
    true
    (r.Spr_race.Drivers.sp_queries <= 3 * !accesses)

let () =
  Alcotest.run "spr_race"
    [
      ( "serial",
        [
          Alcotest.test_case "dc_sum clean" `Quick dc_sum_clean;
          Alcotest.test_case "dc_sum buggy" `Quick dc_sum_buggy;
          Alcotest.test_case "applications (mergesort, matmul)" `Quick applications;
          Alcotest.test_case "query budget" `Quick query_budget;
          Alcotest.test_case "release protocol" `Quick releasing_matches_plain;
          Alcotest.test_case "fused pipeline rerun determinism" `Quick fused_rerun_deterministic;
          Alcotest.test_case "racy_locs on every workload" `Quick racy_locs_registry;
          QCheck_alcotest.to_alcotest racy_locs_random;
          QCheck_alcotest.to_alcotest fused_matches_serial;
          QCheck_alcotest.to_alcotest random_serial_matches_naive;
          QCheck_alcotest.to_alcotest releasing_matches_naive;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "wide/narrow programs on one domain" `Quick resident_wide_narrow;
          Alcotest.test_case "two domains at once" `Quick resident_two_domains;
          QCheck_alcotest.to_alcotest resident_sequences;
        ] );
      ( "program",
        [
          Alcotest.test_case "max_loc on every workload" `Quick max_loc_registry;
          QCheck_alcotest.to_alcotest max_loc_random;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "finds planted" `Quick hybrid_finds_planted;
          Alcotest.test_case "two-reader shadow sweep" `Quick hybrid_two_reader_sweep;
          QCheck_alcotest.to_alcotest hybrid_clean_stays_clean;
          QCheck_alcotest.to_alcotest hybrid_sound_on_random;
          QCheck_alcotest.to_alcotest hybrid_two_reader_exact_small;
          QCheck_alcotest.to_alcotest hybrid_serial_complete;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "lock discipline" `Quick lockset_discipline;
          Alcotest.test_case "lock discipline (hybrid, parallel)" `Quick lockset_hybrid;
          QCheck_alcotest.to_alcotest lockset_matches_naive;
        ] );
    ]

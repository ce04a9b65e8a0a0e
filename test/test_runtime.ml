(* Real-domain runtime tests.  Runs are nondeterministic, so every
   check is schedule-independent: work conservation, the Cilk deque
   discipline, SP-hybrid correctness against the a-posteriori reference
   (valid for *any* legal schedule), and the 4s+1 trace law with s the
   actually observed steal count. *)

open Spr_prog
module W = Spr_workloads.Progs
module H = Spr_hybrid.Sp_hybrid
module Rt = Spr_runtime.Runtime
module Rng = Spr_util.Rng

let work_conservation () =
  List.iter
    (fun workers ->
      let p = W.fib ~n:10 () in
      let executed = Array.make (Fj_program.thread_count p) 0 in
      let lock = Mutex.create () in
      let hooks =
        {
          Spr_sched.Sim.no_hooks with
          Spr_sched.Sim.on_thread =
            (fun ~wid:_ ~now:_ _ u ->
              Mutex.protect lock (fun () ->
                  executed.(u.Fj_program.tid) <- executed.(u.Fj_program.tid) + 1);
              0);
        }
      in
      let res = Rt.run ~hooks ~spin:20 ~workers p in
      Array.iteri
        (fun tid c ->
          if c <> 1 then Alcotest.failf "thread %d ran %d times (workers=%d)" tid c workers)
        executed;
      Alcotest.(check int)
        (Printf.sprintf "threads_run (workers=%d)" workers)
        (Fj_program.thread_count p) res.Rt.threads_run)
    [ 1; 2; 4 ]

let no_steals_on_one_worker () =
  let p = W.fib ~n:8 () in
  let res = Rt.run ~spin:5 ~workers:1 p in
  Alcotest.(check int) "no steals" 0 res.Rt.steals

let serial_order_on_one_worker () =
  (* On one worker the runtime must walk the tree left-to-right, same
     as the simulator. *)
  let p = W.fib ~n:8 () in
  let pt = Prog_tree.of_program p in
  let order = ref [] in
  let hooks =
    {
      Spr_sched.Sim.no_hooks with
      Spr_sched.Sim.on_thread =
        (fun ~wid:_ ~now:_ _ u ->
          order := u.Fj_program.tid :: !order;
          0);
    }
  in
  ignore (Rt.run ~hooks ~spin:5 ~workers:1 p);
  let eng = Spr_sptree.Sp_tree.english_order (Prog_tree.tree pt) in
  let positions =
    List.rev_map
      (fun tid -> eng.((Prog_tree.leaf_of_thread pt tid).Spr_sptree.Sp_tree.id))
      !order
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "english order" true (ascending positions)

(* SP-hybrid on the real runtime: Theorem 9 under true concurrency.
   Every thread, as it starts, queries all previously *completed*
   threads (tracked under a mutex) against the maintainer; answers are
   compared with the schedule-independent reference relation. *)
let hybrid_on_runtime ~workers ~seed p =
  let pt = Prog_tree.of_program p in
  let h = H.create p in
  let started = ref [] in
  let slock = Mutex.create () in
  let errors = ref [] in
  let leaf tid = Prog_tree.leaf_of_thread pt tid in
  let on_thread_user h ~wid:_ ~now:_ (u : Fj_program.thread) =
    let current = u.Fj_program.tid in
    let snapshot = Mutex.protect slock (fun () -> !started) in
    List.iter
      (fun e ->
        let want_prec = Spr_sptree.Sp_reference.precedes (leaf e) (leaf current) in
        let want_par = Spr_sptree.Sp_reference.parallel (leaf e) (leaf current) in
        let got_prec = H.precedes h ~executed:e ~current in
        let got_par = H.parallel h ~executed:e ~current in
        if got_prec <> want_prec || got_par <> want_par then
          Mutex.protect slock (fun () -> errors := (e, current) :: !errors))
      snapshot;
    Mutex.protect slock (fun () -> started := current :: !started);
    0
  in
  let res = Rt.run ~hooks:(H.hooks ~on_thread_user h) ~seed ~spin:30 ~workers p in
  let st = H.stats h in
  (res, st, !errors)

let hybrid_theorem9_real () =
  List.iter
    (fun (p, name) ->
      List.iter
        (fun workers ->
          List.iter
            (fun seed ->
              let res, st, errors = hybrid_on_runtime ~workers ~seed p in
              (match errors with
              | [] -> ()
              | (e, c) :: _ ->
                  Alcotest.failf "%s workers=%d: %d wrong answers, e.g. (t%d, t%d)" name workers
                    (List.length errors) e c);
              Alcotest.(check int)
                (Printf.sprintf "%s: 4s+1 (workers=%d)" name workers)
                ((4 * res.Rt.steals) + 1)
                st.H.traces)
            [ 1; 2 ])
        [ 1; 2; 4 ])
    [
      (W.fib ~n:9 (), "fib9");
      (W.deep_spawn ~cost:1 ~depth:40 (), "deep40");
      (W.dc_sum ~leaves:16 (), "dcsum16");
    ]

let hybrid_random_real () =
  (* Random programs under real concurrency; a handful of iterations to
     keep the suite fast (domains are expensive to spin up). *)
  let rng = Rng.create 77 in
  for _ = 1 to 8 do
    let p =
      W.random_prog ~rng ~threads:(10 + Rng.int rng 40) ~spawn_prob:0.6 ()
    in
    let res, st, errors = hybrid_on_runtime ~workers:4 ~seed:(Rng.int rng 10_000) p in
    Alcotest.(check (list (pair int int))) "no wrong answers" [] errors;
    Alcotest.(check int) "4s+1" ((4 * res.Rt.steals) + 1) st.H.traces
  done

let race_detection_real () =
  (* The full stack end-to-end on domains: SP-hybrid + Nondeterminator
     on a buggy workload.  The planted race must be found under every
     worker count; no false locations may appear. *)
  let p = W.dc_sum ~buggy:true ~leaves:16 () in
  let pt = Prog_tree.of_program p in
  let want = Spr_race.Naive_checker.racy_locs pt in
  List.iter
    (fun workers ->
      let h = H.create p in
      let det =
        Spr_race.Detector.create
          ~locs:(Fj_program.max_loc p + 1)
          ~precedes:(fun ~executed ~current -> H.precedes h ~executed ~current)
          ()
      in
      let dlock = Mutex.create () in
      let on_thread_user _h ~wid:_ ~now:_ (u : Fj_program.thread) =
        (* Serialize detector updates (its shadow memory is the shared
           resource here; the SP queries inside remain the lock-free
           part). *)
        Mutex.protect dlock (fun () -> Spr_race.Detector.run_thread det u);
        0
      in
      ignore (Rt.run ~hooks:(H.hooks ~on_thread_user h) ~spin:20 ~workers p);
      let locs = Spr_race.Detector.racy_locs det in
      Alcotest.(check bool)
        (Printf.sprintf "found planted race (workers=%d)" workers)
        true (locs <> []);
      List.iter
        (fun l ->
          Alcotest.(check bool) "reported loc is real" true (List.mem l want))
        locs)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "spr_runtime"
    [
      ( "scheduler",
        [
          Alcotest.test_case "work conservation" `Quick work_conservation;
          Alcotest.test_case "no steals on 1 worker" `Quick no_steals_on_one_worker;
          Alcotest.test_case "serial order on 1 worker" `Quick serial_order_on_one_worker;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "theorem 9 (real domains)" `Quick hybrid_theorem9_real;
          Alcotest.test_case "random programs (real domains)" `Quick hybrid_random_real;
          Alcotest.test_case "race detection end-to-end" `Quick race_detection_real;
        ] );
    ]

(* EXP-HB — the vector-clock happens-before baseline vs the SP-order
   detector (EXPERIMENTS.md EXP-HB).

   For sp-order-fused and hb-vector on the fork-chain and balanced
   families, measure:

     - time per thread creation (drive the whole on-the-fly walk on a
       fresh instance, divide by thread count);
     - time per SP query (random executed pairs vs the current
       thread);
     - clock words copied (snapshots) and joined per thread — the
       engine's own counters, reached by calling [Sp_clock.Vector]
       directly rather than through the maintainer registry.

   Each time row is [samples] samples after one untimed warm-up run,
   each sample the fastest of [runs] runs, reported as median and
   q25/q75; a row whose q75/q25 exceeds [spread_bound] is flagged in
   the table.

   Expected shape: both detectors answer a query in O(1), but a
   vector-clock join moves Θ(P) words, so on the fork chain hb-vector's
   joined words per thread grow linearly with the number of forks,
   while sp-order-fused pays O(1) amortized per event throughout.
   regress.exe thresholds the committed BENCH_hb.json medians; the word
   counters are deterministic and must match the baseline exactly. *)

open Spr_sptree
module Sm = Spr_core.Sp_maintainer
module T = Spr_util.Table
module Stats = Spr_util.Stats

let samples = 11

let spread_bound = 1.3

(* Each sample covers at least this many threads (walks) or queries,
   so a small P is not timed at the clock's resolution. *)
let min_ops = 16_384

(* Runs per sample; the sample is the fastest of them, so a run that a
   neighbour on a shared core interrupts does not become a sample. *)
let runs = 3

(* One untimed warm-up, then [samples] timed samples of [f], in ns per
   operation.  Every run starts from a settled heap, so no run pays for
   garbage left by the one before. *)
let sampled f =
  let run () =
    Gc.full_major ();
    f ()
  in
  let sample () = List.fold_left min infinity (List.init runs (fun _ -> run ())) in
  ignore (run ());
  List.init samples (fun _ -> sample ())

(* ns per thread of full walks on fresh instances (created outside the
   timed region). *)
let walk_ns tree make () =
  let n = Sp_tree.leaf_count tree in
  let insts = Array.init (max 1 (min_ops / n)) (fun _ -> make tree) in
  let (), s = Bench_util.time (fun () -> Array.iter (Spr_core.Driver.run tree) insts) in
  s *. 1e9 /. float_of_int (n * Array.length insts)

(* ns per query against one walked instance: random executed threads
   vs the last thread, which is current when the walk ends. *)
let query_ns tree make =
  let inst = make tree in
  Spr_core.Driver.run tree inst;
  let n = Sp_tree.leaf_count tree in
  let rng = Spr_util.Rng.create 99 in
  let ls = Sp_tree.leaves tree in
  let current = ls.(n - 1) in
  let pairs =
    Array.init min_ops (fun _ ->
        let a = ls.(Spr_util.Rng.int rng n) in
        if Sm.requires_current_operand inst then (a, current)
        else (a, ls.(Spr_util.Rng.int rng n)))
  in
  let sink = ref 0 in
  fun () ->
    Bench_util.time_ns ~iters:1 (fun () ->
        Array.iter (fun (a, b) -> if not (a == b) && Sm.precedes inst a b then incr sink) pairs)
    /. float_of_int min_ops

(* Word counters of one fresh walk, so they cover exactly this tree. *)
type words = { copied : int; joined : int; label : float }

let vector_words tree =
  let module V = Spr_hb.Sp_clock.Vector in
  let c = V.create tree in
  Spr_core.Driver.run tree (Sm.Instance ((module V), c));
  let n = Sp_tree.leaf_count tree in
  { copied = V.copied_words c / n; joined = V.joined_words c / n; label = V.avg_label_words c }

let detectors =
  [
    ("sp-order-fused", Spr_core.Algorithms.sp_order_fused, None);
    ("hb-vector", Spr_core.Algorithms.hb_vector, Some vector_words);
  ]

(* "median (q25–q75)", with a flag when the spread exceeds the bound. *)
let fmt_spread xs =
  let a = Array.of_list xs in
  let q = Stats.quantile a in
  let lo = q 0.25 and hi = q 0.75 in
  let flag = if lo > 0.0 && hi /. lo > spread_bound then " !" else "" in
  Printf.sprintf "%.1f (%.1f-%.1f)%s" (q 0.5) lo hi flag

let family name pattern trees =
  let tbl =
    T.create
      ~title:(Printf.sprintf "clock detectors on the %s family" name)
      [
        ("detector", T.Left);
        ("P", T.Right);
        ("ns/creation (q25-q75)", T.Right);
        ("ns/query (q25-q75)", T.Right);
        ("copied w/thread", T.Right);
        ("joined w/thread", T.Right);
        ("label words", T.Right);
      ]
  in
  let growth = Hashtbl.create 8 in
  List.iter
    (fun (det, make, words) ->
      List.iter
        (fun (param, tree) ->
          let c = sampled (walk_ns tree make) in
          let q = sampled (query_ns tree make) in
          let w = Option.map (fun f -> f tree) words in
          let qmed = Stats.median (Array.of_list q) in
          let joined = match w with Some w -> float_of_int w.joined | None -> 0.0 in
          (match Hashtbl.find_opt growth det with
          | None -> Hashtbl.add growth det ((qmed, joined), (qmed, joined))
          | Some (first, _) -> Hashtbl.replace growth det (first, (qmed, joined)));
          T.add_row tbl
            [
              det;
              T.fmt_int param;
              fmt_spread c;
              fmt_spread q;
              (match w with Some w -> T.fmt_int w.copied | None -> "-");
              (match w with Some w -> T.fmt_int w.joined | None -> "-");
              (match w with Some w -> Printf.sprintf "%.1f" w.label | None -> "-");
            ];
          let add = Bench_json.add ~experiment:"hb" ~backend:det ~pattern ~n:param in
          add ~metric:"ns_per_thread" ~kind:Bench_json.Time c;
          add ~metric:"ns_per_query" ~kind:Bench_json.Time q;
          match w with
          | None -> ()
          | Some w ->
              add ~metric:"copied_words_per_thread" ~kind:Bench_json.Counter
                [ float_of_int w.copied ];
              add ~metric:"joined_words_per_thread" ~kind:Bench_json.Counter
                [ float_of_int w.joined ])
        trees;
      T.add_sep tbl)
    detectors;
  T.print tbl;
  Printf.printf "(%d samples, each the best of %d runs, after one warm-up; ! marks q75/q25 > %.1f)\n"
    samples runs spread_bound;
  Printf.printf "growth (largest/smallest P) — ns/query, joined words/thread:\n";
  List.iter
    (fun (det, _, _) ->
      let (q0, j0), (q1, j1) = Hashtbl.find growth det in
      Printf.printf "  %-16s %.1fx, %s\n" det
        (Bench_util.growth_factor q0 q1)
        (if j0 <= 0.0 then "-" else Printf.sprintf "%.1fx" (j1 /. j0)))
    detectors;
  print_newline ()

let run () =
  Bench_util.header "EXP-HB: vector-clock baseline vs sp-order-fused";
  let max_p = Bench_json.scaled_n ~default:4096 in
  let ps = List.filter (fun p -> p <= max_p) [ 64; 256; 1024; 4096 ] in
  let ps = if ps = [] then [ max_p ] else ps in
  family "fork-chain (P forks, join per fork; stresses vector clocks)" "fork-chain"
    (List.map (fun p -> (p, Tree_gen.fork_chain ~forks:p)) ps);
  family "balanced divide-and-conquer (the friendly case)" "balanced"
    (List.map (fun p -> (p, Tree_gen.balanced ~leaves:p)) ps);
  Printf.printf
    "Paper shape: both answer queries in O(1), and sp-order-fused also\n\
     maintains in O(1) amortized per event.  A vector-clock join moves\n\
     Theta(P) words, so hb-vector's joined words/thread grow linearly\n\
     with the fork count.\n"

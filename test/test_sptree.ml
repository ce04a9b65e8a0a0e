(* Tests for parse trees: builder, statistics, walk events, English and
   Hebrew orders (Lemma 1 as a property), the reference relation, the
   paper's worked example, and the dag view. *)

open Spr_sptree
module Rng = Spr_util.Rng

let random_tree seed leaves =
  Tree_gen.random_tree ~rng:(Rng.create seed) ~leaves ~p_prob:0.5

(* ------------------------------------------------------------------ *)
(* Structure and statistics.                                           *)

let counts () =
  let t = random_tree 5 100 in
  Alcotest.(check int) "full binary: nodes = 2n-1" 199 (Sp_tree.node_count t);
  Alcotest.(check int) "leaf count" 100 (Sp_tree.leaf_count t);
  Alcotest.(check int) "work = leaves" 100 (Sp_tree.work t)

let generator_shapes () =
  let deep = Tree_gen.deep_nest ~depth:17 in
  Alcotest.(check int) "deep_nest leaves" 18 (Sp_tree.leaf_count deep);
  Alcotest.(check int) "deep_nest nesting depth" 17 (Sp_tree.nesting_depth deep);
  Alcotest.(check int) "deep_nest forks" 17 (Sp_tree.fork_count deep);
  let chain = Tree_gen.fork_chain ~forks:23 in
  Alcotest.(check int) "fork_chain forks" 23 (Sp_tree.fork_count chain);
  Alcotest.(check int) "fork_chain nesting depth" 1 (Sp_tree.nesting_depth chain);
  Alcotest.(check int) "fork_chain leaves" 46 (Sp_tree.leaf_count chain);
  (* Each fork's two unit threads run in parallel: span = #forks. *)
  Alcotest.(check int) "fork_chain span" 23 (Sp_tree.span chain);
  let serial = Tree_gen.serial_chain ~leaves:31 in
  Alcotest.(check int) "serial_chain forks" 0 (Sp_tree.fork_count serial);
  Alcotest.(check int) "serial_chain span = work" 31 (Sp_tree.span serial);
  let flat = Tree_gen.wide_flat ~leaves:64 in
  Alcotest.(check int) "wide_flat span" 1 (Sp_tree.span flat);
  Alcotest.(check int) "wide_flat forks" 63 (Sp_tree.fork_count flat);
  let bal = Tree_gen.balanced ~leaves:16 in
  Alcotest.(check int) "balanced leaves" 16 (Sp_tree.leaf_count bal)

let deep_tree_no_overflow () =
  (* Degenerate chains with 200k leaves must not blow the stack. *)
  let t = Tree_gen.serial_chain ~leaves:200_000 in
  Alcotest.(check int) "huge chain built" 200_000 (Sp_tree.leaf_count t);
  let events = ref 0 in
  Sp_tree.iter_events t (fun _ -> incr events);
  (* 2n-1 nodes: n Thread + (n-1) * (Enter + Mid + Exit) *)
  Alcotest.(check int) "event count" (200_000 + (3 * 199_999)) !events

let event_stream_wellformed () =
  let t = random_tree 11 200 in
  let open_nodes = Hashtbl.create 64 in
  let phase = Hashtbl.create 64 in
  (* 0 = entered, 1 = mid seen *)
  let threads = ref 0 in
  Sp_tree.iter_events t (fun ev ->
      match ev with
      | Sp_tree.Enter n ->
          Alcotest.(check bool) "enter once" false (Hashtbl.mem open_nodes n.id);
          Hashtbl.add open_nodes n.id ();
          Hashtbl.add phase n.id 0
      | Sp_tree.Mid n ->
          Alcotest.(check int) "mid after enter" 0 (Hashtbl.find phase n.id);
          Hashtbl.replace phase n.id 1
      | Sp_tree.Exit n ->
          Alcotest.(check int) "exit after mid" 1 (Hashtbl.find phase n.id);
          Hashtbl.remove open_nodes n.id
      | Sp_tree.Thread _ -> incr threads);
  Alcotest.(check int) "all nodes closed" 0 (Hashtbl.length open_nodes);
  Alcotest.(check int) "every leaf executed" 200 !threads

(* ------------------------------------------------------------------ *)
(* Orders and the reference relation.                                  *)

let orders_are_permutations () =
  let t = random_tree 3 300 in
  let check_perm name order =
    let n = Sp_tree.leaf_count t in
    let seen = Array.make n false in
    Array.iter
      (fun (leaf : Sp_tree.node) ->
        let v = order.(leaf.id) in
        Alcotest.(check bool) (name ^ " in range") true (v >= 0 && v < n);
        Alcotest.(check bool) (name ^ " no dup") false seen.(v);
        seen.(v) <- true)
      (Sp_tree.leaves t)
  in
  check_perm "english" (Sp_tree.english_order t);
  check_perm "hebrew" (Sp_tree.hebrew_order t)

let english_is_execution_order () =
  let t = random_tree 17 150 in
  let eng = Sp_tree.english_order t in
  Array.iteri
    (fun i (leaf : Sp_tree.node) -> Alcotest.(check int) "English = walk order" i eng.(leaf.id))
    (Sp_tree.leaves t)

(* Lemma 1: ui ≺ uj iff E[ui] < E[uj] and H[ui] < H[uj]; Corollary 2:
   parallel iff the orders disagree. *)
let lemma1 seed leaves =
  let t = random_tree seed leaves in
  let eng = Sp_tree.english_order t in
  let heb = Sp_tree.hebrew_order t in
  let ls = Sp_tree.leaves t in
  Array.iter
    (fun (a : Sp_tree.node) ->
      Array.iter
        (fun (b : Sp_tree.node) ->
          if not (a == b) then begin
            let e = eng.(a.id) < eng.(b.id) and h = heb.(a.id) < heb.(b.id) in
            match Sp_reference.relate a b with
            | Sp_reference.Before ->
                if not (e && h) then Alcotest.fail "Lemma 1 (⇒) violated for Before"
            | Sp_reference.After ->
                if e && h then Alcotest.fail "Lemma 1 violated for After"
            | Sp_reference.Par -> if e = h then Alcotest.fail "Corollary 2 violated"
            | Sp_reference.Same -> Alcotest.fail "distinct leaves reported Same"
          end)
        ls)
    ls

let lemma1_qcheck =
  QCheck2.Test.make ~count:50 ~name:"Lemma 1 on random trees"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 60))
    (fun (seed, leaves) ->
      lemma1 seed leaves;
      true)

let reference_consistency =
  QCheck2.Test.make ~count:50 ~name:"reference relation is consistent"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 40))
    (fun (seed, leaves) ->
      let t = random_tree seed leaves in
      let ls = Sp_tree.leaves t in
      Array.iter
        (fun (a : Sp_tree.node) ->
          Array.iter
            (fun (b : Sp_tree.node) ->
              let ab = Sp_reference.relate a b and ba = Sp_reference.relate b a in
              let ok =
                match (ab, ba) with
                | Sp_reference.Before, Sp_reference.After
                | Sp_reference.After, Sp_reference.Before
                | Sp_reference.Par, Sp_reference.Par ->
                    not (a == b)
                | Sp_reference.Same, Sp_reference.Same -> a == b
                | _ -> false
              in
              if not ok then Alcotest.fail "relate not antisymmetric")
            ls)
        ls;
      true)

(* ------------------------------------------------------------------ *)
(* The paper's worked example (Figures 1, 2, 4).                       *)

let paper_example_orders () =
  let t = Paper_example.tree () in
  Alcotest.(check int) "9 threads" 9 (Sp_tree.leaf_count t);
  let eng = Sp_tree.english_order t in
  let heb = Sp_tree.hebrew_order t in
  for i = 0 to 8 do
    let u = Paper_example.thread t i in
    Alcotest.(check int)
      (Printf.sprintf "E[u%d]" i)
      Paper_example.expected_english.(i)
      eng.(u.id);
    Alcotest.(check int)
      (Printf.sprintf "H[u%d]" i)
      Paper_example.expected_hebrew.(i)
      heb.(u.id)
  done

let paper_example_relations () =
  let t = Paper_example.tree () in
  let u i = Paper_example.thread t i in
  (* The paper's two worked queries. *)
  Alcotest.(check bool) "u1 ≺ u4" true (Sp_reference.precedes (u 1) (u 4));
  Alcotest.(check bool) "u1 ∥ u6" true (Sp_reference.parallel (u 1) (u 6));
  (* lca identities quoted in Section 1. *)
  let s1 = Paper_example.s1 t and p1 = Paper_example.p1 t in
  Alcotest.(check bool) "lca(u1,u4) = S1" true (Sp_reference.lca (u 1) (u 4) == s1);
  Alcotest.(check bool) "S1 is an S-node" true (Sp_tree.kind s1 = Sp_tree.Series);
  Alcotest.(check bool) "lca(u1,u6) = P1" true (Sp_reference.lca (u 1) (u 6) == p1);
  Alcotest.(check bool) "P1 is a P-node" true (Sp_tree.kind p1 = Sp_tree.Parallel);
  (* u0 precedes everything; u8 follows everything except parallels. *)
  for i = 1 to 8 do
    Alcotest.(check bool) "u0 first" true (Sp_reference.precedes (u 0) (u i))
  done

let dag_structure =
  QCheck2.Test.make ~count:60 ~name:"dag structure on random trees"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 50))
    (fun (seed, leaves) ->
      let t = random_tree seed leaves in
      let d = Sp_dag.of_tree t in
      let edges = Sp_dag.edges d in
      (* One edge per thread, in English order. *)
      Array.length edges = leaves
      && Array.for_all (fun i -> edges.(i).Sp_dag.label = i) (Array.init leaves Fun.id)
      && begin
           (* In- and out-degrees: source has no in-edges, sink no
              out-edges, every vertex is touched. *)
           let indeg = Array.make (Sp_dag.vertex_count d) 0 in
           let outdeg = Array.make (Sp_dag.vertex_count d) 0 in
           Array.iter
             (fun (e : Sp_dag.edge) ->
               indeg.(e.Sp_dag.dst) <- indeg.(e.Sp_dag.dst) + 1;
               outdeg.(e.Sp_dag.src) <- outdeg.(e.Sp_dag.src) + 1)
             edges;
           indeg.(Sp_dag.source d) = 0
           && outdeg.(Sp_dag.sink d) = 0
           && Array.for_all (fun v -> indeg.(v) + outdeg.(v) > 0)
                (Array.init (Sp_dag.vertex_count d) Fun.id)
           && List.length (Sp_dag.topological d) = Sp_dag.vertex_count d
         end)

let paper_example_dag () =
  let t = Paper_example.tree () in
  let d = Sp_dag.of_tree t in
  Alcotest.(check int) "9 thread edges" 9 (Array.length (Sp_dag.edges d));
  (* Figure 1's dag under edge composition: source, post-u0 fork (= the
     outer fork), per branch one inner fork and one inner join, and the
     sink (= the outer join): 7 vertices. *)
  Alcotest.(check int) "vertex count" 7 (Sp_dag.vertex_count d);
  let topo = Sp_dag.topological d in
  Alcotest.(check int) "topological covers vertices" (Sp_dag.vertex_count d) (List.length topo);
  Alcotest.(check bool) "source first" true (List.hd topo = Sp_dag.source d)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "spr_sptree"
    [
      ( "structure",
        [
          Alcotest.test_case "counts" `Quick counts;
          Alcotest.test_case "generator shapes" `Quick generator_shapes;
          Alcotest.test_case "deep trees" `Quick deep_tree_no_overflow;
          Alcotest.test_case "event stream" `Quick event_stream_wellformed;
        ] );
      ( "orders",
        [
          Alcotest.test_case "permutations" `Quick orders_are_permutations;
          Alcotest.test_case "english = execution order" `Quick english_is_execution_order;
          Alcotest.test_case "lemma 1 (fixed)" `Quick (fun () -> lemma1 123 40);
          QCheck_alcotest.to_alcotest lemma1_qcheck;
          QCheck_alcotest.to_alcotest reference_consistency;
        ] );
      ( "paper-example",
        [
          Alcotest.test_case "figure 4 orders" `Quick paper_example_orders;
          Alcotest.test_case "section 1 relations" `Quick paper_example_relations;
          Alcotest.test_case "figure 1 dag" `Quick paper_example_dag;
        ] );
      ("dag", [ QCheck_alcotest.to_alcotest dag_structure ]);
    ]

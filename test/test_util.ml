(* Coverage for the utility substrate: growable arrays, deques, the
   seeded PRNG, statistics, and the table renderer. *)

module Varint = Spr_util.Varint
module Vec = Spr_util.Vec
module Deque = Spr_util.Deque
module Rng = Spr_util.Rng
module Stats = Spr_util.Stats

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check (option int)) "last" (Some 99) (Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  Alcotest.(check int) "after pop" 99 (Vec.length v);
  Alcotest.(check int) "fold" (List.fold_left ( + ) 0 (Vec.to_list v)) (Vec.fold_left ( + ) 0 v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 3 out of bounds [0,3)") (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index -1 out of bounds [0,3)") (fun () -> ignore (Vec.get v (-1)))

let vec_model =
  QCheck2.Test.make ~count:100 ~name:"Vec behaves like a list"
    QCheck2.Gen.(list (int_bound 1000))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun x ->
          if x mod 7 = 0 then begin
            (match (Vec.pop v, !model) with
            | Some a, b :: rest ->
                assert (a = b);
                model := rest
            | None, [] -> ()
            | _ -> assert false)
          end
          else begin
            Vec.push v x;
            model := x :: !model
          end)
        ops;
      Vec.to_list v = List.rev !model)

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)

let deque_model =
  QCheck2.Test.make ~count:150 ~name:"Deque behaves like a two-ended list"
    QCheck2.Gen.(list (int_bound 1000))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      (* model: list with head = top (oldest), tail end = bottom *)
      List.iter
        (fun x ->
          match x mod 4 with
          | 0 | 1 ->
              Deque.push_bottom d x;
              model := !model @ [ x ]
          | 2 -> begin
              match (Deque.pop_top d, !model) with
              | Some a, b :: rest ->
                  assert (a = b);
                  model := rest
              | None, [] -> ()
              | _ -> assert false
            end
          | _ -> begin
              match (Deque.pop_bottom d, List.rev !model) with
              | Some a, b :: rest ->
                  assert (a = b);
                  model := List.rev rest
              | None, [] -> ()
              | _ -> assert false
            end)
        ops;
      let out = ref [] in
      Deque.iter_top_to_bottom (fun x -> out := x :: !out) d;
      List.rev !out = !model && Deque.length d = List.length !model)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 10 in
    if x < 0 || x >= 10 then Alcotest.failf "Rng.int out of range: %d" x;
    let y = Rng.int_in rng (-5) 5 in
    if y < -5 || y > 5 then Alcotest.failf "Rng.int_in out of range: %d" y;
    let f = Rng.float rng 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.failf "Rng.float out of range: %f" f
  done

let rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* The two streams should not be identical. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let rng_uniform_ish () =
  let rng = Rng.create 31 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      let expect = n / 10 in
      if abs (c - expect) > expect / 5 then
        Alcotest.failf "bucket %d badly skewed: %d vs %d" i c expect)
    buckets

let rng_shuffle_permutes () =
  let rng = Rng.create 77 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 50 Fun.id)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "variance" 2.5 (Stats.variance xs);
  let mn, mx = Stats.min_max xs in
  Alcotest.(check (float 1e-9)) "min" 1.0 mn;
  Alcotest.(check (float 1e-9)) "max" 5.0 mx;
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0)

(* Sorted-array oracle for quantiles: the textbook linear-interpolation
   definition on a fully sorted copy.  [Stats.quantile] must agree
   despite computing via quickselect without sorting. *)
let quantile_oracle xs q =
  let ys = Array.copy xs in
  Array.sort compare ys;
  let n = Array.length ys in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then ys.(lo) else ys.(lo) +. ((pos -. float_of_int lo) *. (ys.(hi) -. ys.(lo)))

let quantile_model =
  QCheck2.Test.make ~count:300 ~name:"Stats.quantile agrees with sorted-array oracle"
    QCheck2.Gen.(pair (list_size (int_range 1 60) (int_bound 1000)) (int_bound 100))
    (fun (ints, qpct) ->
      let xs = Array.of_list (List.map float_of_int ints) in
      let q = float_of_int qpct /. 100.0 in
      let got = Stats.quantile xs q in
      let want = quantile_oracle xs q in
      if abs_float (got -. want) > 1e-9 then
        QCheck2.Test.fail_reportf "quantile %.2f of %d samples: got %g, oracle %g" q
          (Array.length xs) got want
      else begin
        (* The input must come back untouched (quickselect works on a
           scratch copy). *)
        let orig = Array.of_list (List.map float_of_int ints) in
        xs = orig
      end)

let quantile_counts_model =
  QCheck2.Test.make ~count:300
    ~name:"Stats.quantile_counts agrees with the expanded multiset"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) (pair (int_bound 50) (int_range (-1) 4)))
        (int_bound 100))
    (fun (pairs, qpct) ->
      let q = float_of_int qpct /. 100.0 in
      let pairs = List.map (fun (v, c) -> (float_of_int v, c)) pairs in
      let expanded =
        List.concat_map (fun (v, c) -> List.init (max 0 c) (fun _ -> v)) pairs
      in
      match expanded with
      | [] ->
          (* Empty multiset must be rejected, same as an empty array. *)
          (try
             ignore (Stats.quantile_counts (Array.of_list pairs) q);
             false
           with Invalid_argument _ -> true)
      | _ ->
          let got = Stats.quantile_counts (Array.of_list pairs) q in
          let want = quantile_oracle (Array.of_list expanded) q in
          if abs_float (got -. want) > 1e-9 then
            QCheck2.Test.fail_reportf "quantile_counts %.2f: got %g, oracle %g" q got want
          else true)

let quantile_edges () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty input") (fun () ->
      ignore (Stats.quantile [||] 0.5));
  Alcotest.check_raises "q out of range" (Invalid_argument "Stats.quantile: q out of range")
    (fun () -> ignore (Stats.quantile [| 1.0 |] 1.5));
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Stats.quantile [| 7.0 |] 0.99);
  Alcotest.(check (float 1e-9))
    "matches percentile" (Stats.percentile [| 3.0; 1.0; 2.0 |] 50.0)
    (Stats.quantile [| 3.0; 1.0; 2.0 |] 0.5)

let stats_fits () =
  (* y = 3x + 1 *)
  let pts = Array.init 20 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0)) in
  let slope, intercept = Stats.linear_fit pts in
  Alcotest.(check (float 1e-6)) "slope" 3.0 slope;
  Alcotest.(check (float 1e-6)) "intercept" 1.0 intercept;
  Alcotest.(check (float 1e-6)) "r2" 1.0 (Stats.r_squared pts (slope, intercept));
  (* y = 2 x^1.5 *)
  let pts = Array.init 20 (fun i -> (float_of_int (i + 1), 2.0 *. (float_of_int (i + 1) ** 1.5))) in
  let k, c = Stats.fit_power pts in
  Alcotest.(check (float 1e-6)) "exponent" 1.5 k;
  Alcotest.(check (float 1e-6)) "constant" 2.0 c

(* ------------------------------------------------------------------ *)
(* Varint                                                              *)

(* Exact lengths at each encoding-length boundary and at the extremes
   (negative ints are the full 64-bit two's-complement pattern: ten
   bytes, sign group last), and [Truncated] on every proper prefix —
   among them a two-byte encoding cut after its first byte, where the
   inline two-byte path must defer to the loop.  Each case is decoded
   at offset 0 and after a one-byte lead-in, with a trailing byte that
   must not be consumed. *)
let varint_boundaries () =
  List.iter
    (fun (n, bytes) ->
      let buf = Buffer.create 10 in
      Varint.put buf n;
      let enc = Buffer.contents buf in
      Alcotest.(check int) (Printf.sprintf "%d: encoded length" n) bytes (String.length enc);
      List.iter
        (fun lead ->
          let s = lead ^ enc ^ "\x05" in
          let pos = ref (String.length lead) in
          Alcotest.(check int) (Printf.sprintf "%d: decoded" n) n (Varint.get s pos);
          Alcotest.(check int)
            (Printf.sprintf "%d: pos advance" n)
            (String.length lead + bytes) !pos;
          for cut = 0 to bytes - 1 do
            let s = lead ^ String.sub enc 0 cut in
            let pos = ref (String.length lead) in
            Alcotest.check_raises
              (Printf.sprintf "%d cut to %d byte(s): truncated" n cut)
              Varint.Truncated
              (fun () -> ignore (Varint.get s pos));
            Alcotest.(check int)
              (Printf.sprintf "%d cut to %d byte(s): pos at end" n cut)
              (String.length s) !pos
          done)
        [ ""; "\x7f" ])
    [
      (0, 1);
      (1, 1);
      (127, 1);
      (128, 2);
      (16383, 2);
      (16384, 3);
      (1 lsl 21, 4);
      (max_int, 9);
      (-1, 10);
      (-128, 10);
      (min_int, 10);
    ]

let varint_model =
  QCheck2.Test.make ~count:500 ~name:"Varint roundtrips every int"
    QCheck2.Gen.(
      oneof
        [
          int;
          int_bound 1000;
          map (fun (b, s) -> b lsl s) (pair (int_bound 255) (int_bound 55));
          map Int.neg int;
        ])
    (fun n ->
      let buf = Buffer.create 10 in
      Varint.put buf n;
      let s = Buffer.contents buf in
      let pos = ref 0 in
      Varint.get s pos = n && !pos = String.length s)

let varint_concatenation () =
  (* Streams decode back-to-back with one shared cursor, the way the
     trace codec uses them. *)
  let xs = [ 0; 300; -7; max_int; 42; min_int; 1 ] in
  let buf = Buffer.create 64 in
  List.iter (Varint.put buf) xs;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  let got = List.map (fun _ -> Varint.get s pos) xs in
  Alcotest.(check (list int)) "stream decodes in order" xs got;
  Alcotest.(check int) "cursor at end" (String.length s) !pos

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let table_renders () =
  let t =
    Spr_util.Table.create ~title:"t" [ ("a", Spr_util.Table.Left); ("b", Spr_util.Table.Right) ]
  in
  Spr_util.Table.add_row t [ "x"; "1" ];
  Spr_util.Table.add_sep t;
  Spr_util.Table.add_row t [ "longer"; "22" ];
  let s = Spr_util.Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 't');
  Alcotest.(check bool) "contains cell" true (contains s "longer");
  Alcotest.check_raises "arity checked" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Spr_util.Table.add_row t [ "only-one" ])

let table_formats () =
  Alcotest.(check string) "ns" "12.0ns" (Spr_util.Table.fmt_ns 12.0);
  Alcotest.(check string) "us" "1.50us" (Spr_util.Table.fmt_ns 1_500.0);
  Alcotest.(check string) "ms" "2.35ms" (Spr_util.Table.fmt_ns 2_350_000.0);
  Alcotest.(check string) "int" "1,234,567" (Spr_util.Table.fmt_int 1_234_567);
  Alcotest.(check string) "negative int" "-1,000" (Spr_util.Table.fmt_int (-1000))

let () =
  Alcotest.run "spr_util"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick vec_basics;
          Alcotest.test_case "bounds" `Quick vec_bounds;
          QCheck_alcotest.to_alcotest vec_model;
        ] );
      ("deque", [ QCheck_alcotest.to_alcotest deque_model ]);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "bounds" `Quick rng_bounds;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "uniform-ish" `Quick rng_uniform_ish;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick stats_basics;
          Alcotest.test_case "fits" `Quick stats_fits;
          Alcotest.test_case "quantile edges" `Quick quantile_edges;
          QCheck_alcotest.to_alcotest quantile_model;
          QCheck_alcotest.to_alcotest quantile_counts_model;
        ] );
      ( "varint",
        [
          Alcotest.test_case "boundaries" `Quick varint_boundaries;
          Alcotest.test_case "concatenation" `Quick varint_concatenation;
          QCheck_alcotest.to_alcotest varint_model;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick table_renders;
          Alcotest.test_case "formats" `Quick table_formats;
        ] );
    ]

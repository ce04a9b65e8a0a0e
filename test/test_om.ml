(* Tests for the order-maintenance structures: model-based comparison
   against the naive specification, structural invariants, amortized
   cost bounds, and concurrency stress for Om_concurrent. *)

module Rng = Spr_util.Rng

(* ------------------------------------------------------------------ *)
(* Model-based testing: run the same random operation script against a
   candidate structure and Om_naive, comparing every query result.     *)

type script_op = Insert_after of int | Insert_before of int | Delete of int | Query of int * int

let gen_script ~ops ~seed =
  let rng = Rng.create seed in
  let live = ref 1 in
  (* Element indices refer to the creation-order array of live handles;
     we never reference deleted ones. *)
  let script = ref [] in
  for _ = 1 to ops do
    let pick () = Rng.int rng !live in
    let op =
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          incr live;
          Insert_after (pick ())
      | 4 | 5 ->
          incr live;
          Insert_before (pick ())
      | 6 when !live > 2 ->
          decr live;
          Delete (Rng.int rng 1_000_000)
      | _ -> Query (pick (), pick ())
    in
    script := op :: !script
  done;
  List.rev !script

module Run_script (M : Spr_om.Om_intf.S) = struct
  (* Replays a script on [M] and the naive model simultaneously;
     asserts every query agrees.  Deleted slots are remembered so the
     script's indices can skip them. *)
  let run script =
    let t = M.create () in
    let model = Spr_om.Om_naive.create () in
    let elts = Spr_util.Vec.create () in
    Spr_util.Vec.push elts (Some (M.base t, Spr_om.Om_naive.base model));
    let nth_live i =
      (* i-th live element in creation order *)
      let seen = ref (-1) in
      let found = ref None in
      Spr_util.Vec.iter
        (fun slot ->
          match slot with
          | Some pair when !found = None ->
              incr seen;
              if !seen = i then found := Some pair
          | _ -> ())
        elts;
      Option.get !found
    in
    let live = ref 1 in
    List.iter
      (fun op ->
        match op with
        | Insert_after i ->
            let e, m = nth_live (i mod !live) in
            Spr_util.Vec.push elts (Some (M.insert_after t e, Spr_om.Om_naive.insert_after model m));
            incr live
        | Insert_before i ->
            let e, m = nth_live (i mod !live) in
            Spr_util.Vec.push elts
              (Some (M.insert_before t e, Spr_om.Om_naive.insert_before model m));
            incr live
        | Delete _ when !live < 2 -> ()
        | Delete i ->
            let i = 1 + (i mod (!live - 1)) in
            let e, m = nth_live i in
            M.delete t e;
            Spr_om.Om_naive.delete model m;
            (* blank the slot *)
            let seen = ref (-1) in
            Spr_util.Vec.iteri
              (fun slot_i slot ->
                match slot with
                | Some _ ->
                    incr seen;
                    if !seen = i then Spr_util.Vec.set elts slot_i None
                | None -> ())
              elts;
            decr live
        | Query (i, j) ->
            let ei, mi = nth_live (i mod !live) in
            let ej, mj = nth_live (j mod !live) in
            let got = M.precedes t ei ej in
            let want = Spr_om.Om_naive.precedes model mi mj in
            if got <> want then
              Alcotest.failf "%s: precedes mismatch (got %b, want %b)" M.name got want)
      script;
    Alcotest.(check int) (M.name ^ ": size agrees") (Spr_om.Om_naive.size model) (M.size t)
end

let model_test (module M : Spr_om.Om_intf.S) seed () =
  let module R = Run_script (M) in
  R.run (gen_script ~ops:400 ~seed)

(* ------------------------------------------------------------------ *)
(* Deterministic stress patterns.                                      *)

let insertion_pattern (module M : Spr_om.Om_intf.S) ~n pick_anchor () =
  let t = M.create () in
  let elts = Spr_util.Vec.create () in
  Spr_util.Vec.push elts (M.base t);
  for i = 1 to n do
    let anchor = Spr_util.Vec.get elts (pick_anchor i (Spr_util.Vec.length elts)) in
    Spr_util.Vec.push elts (M.insert_after t anchor)
  done;
  Alcotest.(check int) (M.name ^ ": size") (n + 1) (M.size t)

(* Always insert after the same element: each insert lands in the same
   gap, the worst case for label-based schemes. *)
let hammer_front m ~n = insertion_pattern m ~n (fun _ _ -> 0)

(* Always append at the end. *)
let append_only m ~n = insertion_pattern m ~n (fun _ len -> len - 1)

let om_invariants_after_hammer () =
  let t = Spr_om.Om.create () in
  let anchor = Spr_om.Om.base t in
  for _ = 1 to 5_000 do
    ignore (Spr_om.Om.insert_after t anchor)
  done;
  Spr_om.Om.check_invariants t;
  (* The first-inserted element is now last: base < it, it > later ones *)
  Alcotest.(check int) "size" 5_001 (Spr_om.Om.size t)

let om_order_after_mixed () =
  let t = Spr_om.Om.create () in
  let rng = Rng.create 42 in
  let elts = Spr_util.Vec.create () in
  Spr_util.Vec.push elts (Spr_om.Om.base t);
  (* Random interleavings of after/before inserts; record the expected
     total order in a plain list alongside. *)
  let order = ref [ 0 ] in
  for i = 1 to 2_000 do
    let pos = Rng.int rng (Spr_util.Vec.length elts) in
    let anchor = Spr_util.Vec.get elts pos in
    let before = Rng.bool rng in
    let e =
      if before then Spr_om.Om.insert_before t anchor else Spr_om.Om.insert_after t anchor
    in
    Spr_util.Vec.push elts e;
    let rec insert_pos acc = function
      | [] -> List.rev (i :: acc)
      | x :: rest when x = pos -> begin
          if before then List.rev_append acc (i :: x :: rest)
          else List.rev_append acc (x :: i :: rest)
        end
      | x :: rest -> insert_pos (x :: acc) rest
    in
    order := insert_pos [] !order
  done;
  Spr_om.Om.check_invariants t;
  (* Spot-check 2000 random pairs against the recorded order. *)
  let arr = Array.of_list !order in
  let index = Array.make (Array.length arr) 0 in
  Array.iteri (fun i v -> index.(v) <- i) arr;
  for _ = 1 to 2_000 do
    let a = Rng.int rng (Spr_util.Vec.length elts) in
    let b = Rng.int rng (Spr_util.Vec.length elts) in
    let want = index.(a) < index.(b) in
    let got = Spr_om.Om.precedes t (Spr_util.Vec.get elts a) (Spr_util.Vec.get elts b) in
    if got <> want then Alcotest.failf "order mismatch for (%d, %d)" a b
  done

(* Amortization: elements moved per insert stays bounded even under the
   hammer pattern.  [items_moved] counts both levels — a capacity-2h
   bucket respace charges O(lg n) moves to the O(lg n) inserts that
   filled it, so the two-level amortized cost is a constant a bit above
   the pure top-level rate (empirically ~2.5 under the hammer). *)
let amortized_bound () =
  let t = Spr_om.Om.create () in
  let anchor = Spr_om.Om.base t in
  let n = 50_000 in
  for _ = 1 to n do
    ignore (Spr_om.Om.insert_after t anchor)
  done;
  let st = Spr_om.Om.stats t in
  let per_insert = float_of_int st.items_moved /. float_of_int n in
  if per_insert > 8.0 then
    Alcotest.failf "two-level OM: %.3f elements moved per insert (expected O(1))" per_insert

let one_level_amortized_bound () =
  let t = Spr_om.Om_label.create () in
  let anchor = Spr_om.Om_label.base t in
  let n = 20_000 in
  for _ = 1 to n do
    ignore (Spr_om.Om_label.insert_after t anchor)
  done;
  let st = Spr_om.Om_label.stats t in
  let per_insert = float_of_int st.items_moved /. float_of_int n in
  (* One-level bound is O(lg n) amortized; lg 20000 ~ 14.3. *)
  if per_insert > 64.0 then
    Alcotest.failf "one-level OM: %.3f relabels per insert (expected O(lg n))" per_insert

let multi_insert_order (module M : Spr_om.Om_intf.S) () =
  let t = M.create () in
  let ys = M.insert_many_after t (M.base t) 5 in
  Alcotest.(check int) "five inserted" 5 (List.length ys);
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) (M.name ^ ": multi-insert ordered") true (M.precedes t a b);
        check rest
    | _ -> ()
  in
  check (M.base t :: ys)

(* ------------------------------------------------------------------ *)
(* Om_concurrent specifics.                                            *)

let concurrent_insert_around (module C : Spr_om.Om_intf.CONCURRENT) () =
  let t = C.create () in
  let x = C.base t in
  let befores, afters = C.insert_around t x ~before:2 ~after:2 in
  let all = befores @ [ x ] @ afters in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) (C.name ^ ": insert_around ordered") true (C.precedes t a b);
        check rest
    | _ -> ()
  in
  check all;
  C.check_invariants t

(* One writer domain hammering inserts (forcing rebalances), several
   reader domains querying pairs whose order is known a priori; any
   torn read the validation protocol misses would flip an answer. *)
let concurrent_stress (module C : Spr_om.Om_intf.CONCURRENT) () =
  let t = C.create () in
  let n = 3_000 in
  (* Pre-build a chain whose order we know: chain.(i) precedes
     chain.(j) iff i < j. *)
  let chain = Array.make (n + 1) (C.base t) in
  for i = 1 to n do
    chain.(i) <- C.insert_after t chain.(i - 1)
  done;
  let stop = Atomic.make false in
  let errors = Atomic.make 0 in
  let reader seed () =
    let rng = Rng.create seed in
    while not (Atomic.get stop) do
      let i = Rng.int rng (n + 1) and j = Rng.int rng (n + 1) in
      let got = C.precedes t chain.(i) chain.(j) in
      if got <> (i < j) then Atomic.incr errors
    done
  in
  let readers = [ Domain.spawn (reader 1); Domain.spawn (reader 2) ] in
  (* Writer: hammer one gap to force repeated rebalances (and, for the
     two-level structure, bucket splits) overlapping the chain. *)
  let anchor = chain.(n / 2) in
  for _ = 1 to 3_000 do
    ignore (C.insert_after t anchor)
  done;
  Atomic.set stop true;
  List.iter Domain.join readers;
  C.check_invariants t;
  Alcotest.(check int) (C.name ^ ": no ordering errors") 0 (Atomic.get errors)

(* ------------------------------------------------------------------ *)
(* Deletion hygiene (regression).  [Om.delete] used to leave the
   deleted element's bkt/iprev/inext — and an emptied bucket's
   first/bprev/bnext — pointing into the live structure, so one stale
   handle retained a chain of buckets.  Now deletion fully detaches
   both, which [is_detached] observes and the extended
   [check_invariants] (link-agreement checks) guards. *)

let om_delete_fully_detaches () =
  let t = Spr_om.Om.create () in
  let anchor = Spr_om.Om.base t in
  (* Enough elements for several buckets (capacity 62)... *)
  let es = ref [] in
  for _ = 1 to 300 do
    es := Spr_om.Om.insert_after t anchor :: !es
  done;
  Alcotest.(check bool) "several buckets" true (Spr_om.Om.bucket_count t > 2);
  (* ... then delete all of them, draining and unlinking buckets, with
     the structure checked after every step. *)
  List.iter
    (fun e ->
      Spr_om.Om.delete t e;
      Spr_om.Om.check_invariants t)
    !es;
  Alcotest.(check int) "only base left" 1 (Spr_om.Om.size t);
  List.iter
    (fun e -> Alcotest.(check bool) "deleted handle detached" true (Spr_om.Om.is_detached e))
    !es;
  let live = Spr_om.Om.insert_after t anchor in
  Alcotest.(check bool) "live element not detached" false (Spr_om.Om.is_detached live)

(* insert_before at the head of a bucket, repeatedly: every insert
   relinks the bucket head and, at capacity, splits the bucket. *)
let insert_before_head_splits (module M : Spr_check.Om_script.SUT) () =
  let t = M.create () in
  let head = ref (M.base t) in
  for _ = 1 to 400 do
    head := M.insert_before t !head;
    M.check_invariants t
  done;
  Alcotest.(check int) (M.name ^ ": size after head inserts") 401 (M.size t)

(* Script-based property tests: adversarial op mixes replayed against
   the naive oracle with invariants checked after every mutation. *)
let script_mix (name, sut) (mix, mix_name) =
  QCheck2.Test.make ~count:50
    ~name:(Printf.sprintf "%s: %s scripts vs oracle" name mix_name)
    QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let script =
        Spr_check.Om_script.random_script ~rng:(Rng.create seed) ~mix ~len:250
      in
      match Spr_check.Om_script.replay sut script with
      | None -> true
      | Some d ->
          Alcotest.failf "%s" (Format.asprintf "%a" Spr_check.Om_script.pp_divergence d))

let script_suts : (string * (module Spr_check.Om_script.SUT)) list =
  [
    ("om", (module Spr_om.Om));
    ("om-packed", (module Spr_om.Om_packed));
    ("om-concurrent2", (module Spr_om.Om_concurrent2));
  ]

let script_mixes =
  [
    (Spr_check.Om_script.Delete_heavy, "delete-heavy");
    (Spr_check.Om_script.Head_heavy, "head-heavy");
  ]

(* ------------------------------------------------------------------ *)
(* Om_packed free-list hygiene: deletion recycles slots, so a
   delete/insert churn never grows the item arrays past their
   high-water mark — the packed structure stays proportional to the
   peak live set, not the operation count. *)

let packed_free_list_reuse =
  QCheck2.Test.make ~count:100 ~name:"om-packed: delete/insert churn reuses slots"
    QCheck2.Gen.(pair (0 -- 1_000_000) (10 -- 300))
    (fun (seed, n) ->
      let module P = Spr_om.Om_packed in
      let rng = Rng.create seed in
      let t = P.create () in
      let live = Spr_util.Vec.create () in
      Spr_util.Vec.push live (P.base t);
      for _ = 1 to n do
        let anchor = Spr_util.Vec.get live (Rng.int rng (Spr_util.Vec.length live)) in
        Spr_util.Vec.push live
          (if Rng.bool rng then P.insert_after t anchor else P.insert_before t anchor)
      done;
      let slots = P.item_slots t in
      Alcotest.(check int) "slots = live + free" (P.size t + P.free_items t) slots;
      (* Delete a random half (never the base)... *)
      let deleted = ref 0 in
      while Spr_util.Vec.length live > 1 && !deleted < n / 2 do
        let idx = 1 + Rng.int rng (Spr_util.Vec.length live - 1) in
        P.delete t (Spr_util.Vec.get live idx);
        (match Spr_util.Vec.pop live with
        | Some last -> if idx < Spr_util.Vec.length live then Spr_util.Vec.set live idx last
        | None -> assert false);
        incr deleted
      done;
      P.check_invariants t;
      Alcotest.(check int) "every delete lands on the free list" !deleted (P.free_items t);
      (* ... then insert the same number back: the free list must absorb
         every one of them without touching the high-water mark. *)
      for _ = 1 to !deleted do
        ignore (P.insert_after t (P.base t))
      done;
      P.check_invariants t;
      Alcotest.(check int) "item arrays did not grow" slots (P.item_slots t);
      Alcotest.(check int) "free list drained" 0 (P.free_items t);
      true)

let packed_use_after_delete () =
  let module P = Spr_om.Om_packed in
  let t = P.create () in
  let e = P.insert_after t (P.base t) in
  P.delete t e;
  Alcotest.check_raises "use after delete rejected"
    (Invalid_argument "Om_packed.precedes: deleted element") (fun () ->
      ignore (P.precedes t (P.base t) e))

(* ------------------------------------------------------------------ *)
(* Om_fused: English and Hebrew orders interleaved in one int array.
   The structure must behave exactly like a pair of boxed two-level
   [Om]s driven with the SP-order link discipline — same answers *and*
   bit-identical rebalance counters — while recycling slots like
   Om_packed. *)

(* Mirror of [Om_fused.insert_children]'s link order on a pair of boxed
   structures: English inserts l-then-r after the anchor in both
   planes; the Hebrew plane flips the pair at P-nodes. *)
let fused_link_boxed eng heb x_eng x_heb ~parallel =
  let module O = Spr_om.Om in
  let l_eng = O.insert_after eng x_eng in
  let r_eng = O.insert_after eng l_eng in
  if parallel then
    let r_heb = O.insert_after heb x_heb in
    let l_heb = O.insert_after heb r_heb in
    ((l_eng, l_heb), (r_eng, r_heb))
  else
    let l_heb = O.insert_after heb x_heb in
    let r_heb = O.insert_after heb l_heb in
    ((l_eng, l_heb), (r_eng, r_heb))

let check_same_stats label (got : Spr_om.Om_intf.stats) (want : Spr_om.Om_intf.stats) =
  Alcotest.(check int) (label ^ " inserts") want.inserts got.inserts;
  Alcotest.(check int) (label ^ " relabel passes") want.relabel_passes got.relabel_passes;
  Alcotest.(check int) (label ^ " items moved") want.items_moved got.items_moved;
  Alcotest.(check int) (label ^ " max range") want.max_range got.max_range

(* Anchor policies for [fused_matches_boxed_pair].  [Mixed] picks a
   random live anchor and deletes a quarter of the time.  A [Hammer]
   runs [hammer_rounds] pairs, always after the base or always after
   the newest left child.  Without churn it only inserts: the anchor's
   bucket fills and splits over and over, so a pair lands in buckets of
   60, 61 and 62 items.  With churn it also deletes zero, one or two of
   the newest earlier pairs each round: the bucket's size random-walks
   and seldom splits, so the gap after the anchor keeps shrinking —
   halved after the base, quartered after the newest left child, whose
   gap ends at its right sibling's tag — down to 3, 2, 1 or 0, and is
   respaced, from a different bucket size each time.  Together they
   cover both sides of each bound of the pair fast path in [Om_fused],
   and a wrong tag for either child of a pair shifts a later respace.
   With [singles] a third of the inserts are a lone [insert_after] at
   the same anchor instead of a pair, so bucket sizes and gaps take
   both parities. *)
type anchor_policy = Mixed | Hammer of { at_base : bool; churn : bool }

let anchor_policies =
  [
    Mixed;
    Hammer { at_base = true; churn = false };
    Hammer { at_base = false; churn = false };
    Hammer { at_base = true; churn = true };
    Hammer { at_base = false; churn = true };
  ]

let hammer_rounds = 2_000

let fused_matches_boxed_pair =
  QCheck2.Test.make ~count:60
    ~name:"om-fused: counters bit-identical to boxed English+Hebrew pair"
    QCheck2.Gen.(quad (0 -- 1_000_000) (5 -- 120) (oneofl anchor_policies) bool)
    (fun (seed, rounds, policy, singles) ->
      let module F = Spr_om.Om_fused in
      let module O = Spr_om.Om in
      let rng = Rng.create seed in
      let f = F.create () in
      let eng = O.create () and heb = O.create () in
      (* live.(i) = (fused elt, boxed English elt, boxed Hebrew elt) *)
      let live = Spr_util.Vec.create () in
      Spr_util.Vec.push live (F.base f, O.base eng, O.base heb);
      let delete (fe, be, bh) =
        F.delete f fe;
        O.delete eng be;
        O.delete heb bh
      in
      let newest_left = ref (Spr_util.Vec.get live 0) in
      let rounds = if policy = Mixed then rounds else hammer_rounds in
      for round = 1 to rounds do
        (match Rng.int rng 4 with
        | 3 when policy = Mixed && Spr_util.Vec.length live > 1 ->
            let idx = 1 + Rng.int rng (Spr_util.Vec.length live - 1) in
            delete (Spr_util.Vec.get live idx);
            (match Spr_util.Vec.pop live with
            | Some last -> if idx < Spr_util.Vec.length live then Spr_util.Vec.set live idx last
            | None -> assert false)
        | _ ->
            let fe, be, bh =
              match policy with
              | Mixed -> Spr_util.Vec.get live (Rng.int rng (Spr_util.Vec.length live))
              | Hammer { at_base = true; _ } -> Spr_util.Vec.get live 0
              | Hammer { at_base = false; _ } -> !newest_left
            in
            let inserted =
              if singles && Rng.int rng 3 = 0 then
                [ (F.insert_after f fe, O.insert_after eng be, O.insert_after heb bh) ]
              else
                let parallel = Rng.bool rng in
                let fl, fr = F.insert_children f fe ~parallel in
                let (le, lh), (re, rh) = fused_link_boxed eng heb be bh ~parallel in
                [ (fl, le, lh); (fr, re, rh) ]
            in
            (* A hammer deletes only from the tail (never the base at
               index 0), so the tail elements are the newest. *)
            (match policy with
            | Hammer { churn = true; _ } ->
                for _ = 1 to min (2 * Rng.int rng 3) (Spr_util.Vec.length live - 1) do
                  Option.iter delete (Spr_util.Vec.pop live)
                done
            | Mixed | Hammer _ -> ());
            newest_left := List.hd inserted;
            List.iter (Spr_util.Vec.push live) inserted);
        if policy = Mixed || round mod 100 = 0 then F.check_invariants f
      done;
      F.check_invariants f;
      check_same_stats "English" (F.stats_eng f) (O.stats eng);
      check_same_stats "Hebrew" (F.stats_heb f) (O.stats heb);
      (* ... and the answers agree on every sampled live pair: random
         ones, and siblings (adjacent in [live]), whose tags sit closest
         together in both orders. *)
      let n = Spr_util.Vec.length live in
      for k = 1 to 400 do
        let i = Rng.int rng n in
        let j = if k land 1 = 0 then Rng.int rng n else min (i + 1) (n - 1) in
        let fa, ba, ha = Spr_util.Vec.get live i in
        let fb, bb, hb = Spr_util.Vec.get live j in
        if fa <> fb then begin
          Alcotest.(check bool) "English precedes" (O.precedes eng ba bb) (F.precedes_eng f fa fb);
          Alcotest.(check bool) "Hebrew precedes" (O.precedes heb ha hb) (F.precedes_heb f fa fb);
          Alcotest.(check bool) "sp_precedes = both orders agree"
            (O.precedes eng ba bb && O.precedes heb ha hb)
            (F.sp_precedes f fa fb);
          Alcotest.(check bool) "sp_parallel = orders disagree"
            (O.precedes eng ba bb <> O.precedes heb ha hb)
            (F.sp_parallel f fa fb)
        end
      done;
      true)

let fused_free_list_reuse =
  QCheck2.Test.make ~count:100 ~name:"om-fused: delete/insert churn reuses slots"
    QCheck2.Gen.(pair (0 -- 1_000_000) (5 -- 120))
    (fun (seed, pairs) ->
      let module F = Spr_om.Om_fused in
      let rng = Rng.create seed in
      let t = F.create () in
      let live = Spr_util.Vec.create () in
      Spr_util.Vec.push live (F.base t);
      for _ = 1 to pairs do
        let anchor = Spr_util.Vec.get live (Rng.int rng (Spr_util.Vec.length live)) in
        let l, r = F.insert_children t anchor ~parallel:(Rng.bool rng) in
        Spr_util.Vec.push live l;
        Spr_util.Vec.push live r
      done;
      let slots = F.item_slots t in
      Alcotest.(check int) "slots = live + free" (F.size t + F.free_items t) slots;
      (* Delete an even number of non-base elements (insert_children
         consumes free slots two at a time)... *)
      let target = 2 * (pairs / 2) in
      let deleted = ref 0 in
      while !deleted < target do
        let idx = 1 + Rng.int rng (Spr_util.Vec.length live - 1) in
        F.delete t (Spr_util.Vec.get live idx);
        (match Spr_util.Vec.pop live with
        | Some last -> if idx < Spr_util.Vec.length live then Spr_util.Vec.set live idx last
        | None -> assert false);
        incr deleted
      done;
      F.check_invariants t;
      Alcotest.(check int) "every delete lands on the free list" target (F.free_items t);
      (* ... then insert the same number back: the free list must absorb
         every one of them without touching the high-water mark. *)
      for _ = 1 to target / 2 do
        ignore (F.insert_children t (F.base t) ~parallel:(Rng.bool rng))
      done;
      F.check_invariants t;
      Alcotest.(check int) "item array did not grow" slots (F.item_slots t);
      Alcotest.(check int) "free list drained" 0 (F.free_items t);
      true)

(* [Om_fused.pin] caches one element's labels for [sp_precedes], and
   every mutator clears it.  So a query whose later operand is the last
   pinned element must agree with the two orders whatever ran since the
   pin: pair and single inserts under the hammer policies (splits,
   respaces and top relabels move the pinned element), deletes (of the
   pinned element too, after which the query must raise) and resets
   (after which the pinned slot is stale until a new element reuses
   it).  Pins are sporadic, so most queries run against a pin set
   several mutations ago, some of them only single inserts ago. *)
let fused_pin_matches_orders =
  QCheck2.Test.make ~count:60 ~name:"om-fused: pinned sp_precedes = both orders agree"
    QCheck2.Gen.(pair (0 -- 1_000_000) (oneofl anchor_policies))
    (fun (seed, policy) ->
      let module F = Spr_om.Om_fused in
      let module Vec = Spr_util.Vec in
      let rng = Rng.create seed in
      let f = F.create () in
      let live = Vec.create () and is_live = Hashtbl.create 64 in
      let add e =
        Vec.push live e;
        Hashtbl.replace is_live e ()
      in
      let remove_at idx =
        let e = Vec.get live idx in
        F.delete f e;
        Hashtbl.remove is_live e;
        match Vec.pop live with
        | Some last -> if idx < Vec.length live then Vec.set live idx last
        | None -> assert false
      in
      let pick () = Vec.get live (Rng.int rng (Vec.length live)) in
      add (F.base f);
      let newest_left = ref (F.base f) and pinned = ref (F.base f) in
      F.pin f !pinned;
      let query x =
        let y = !pinned in
        if Hashtbl.mem is_live y then
          Alcotest.(check bool)
            "pinned sp_precedes = English and Hebrew"
            (F.precedes_eng f x y && F.precedes_heb f x y)
            (F.sp_precedes f x y)
        else
          Alcotest.check_raises "query against a dead pinned slot"
            (Invalid_argument "Om_fused.sp_precedes: deleted element") (fun () ->
              ignore (F.sp_precedes f x y))
      in
      let rounds = if policy = Mixed then 300 else hammer_rounds in
      for _ = 1 to rounds do
        let op = Rng.int rng 100 in
        if op < 12 then begin
          pinned := if Hashtbl.mem is_live !newest_left && Rng.bool rng then !newest_left else pick ();
          F.pin f !pinned
        end
        else if op < 14 && policy = Mixed then begin
          F.reset f;
          Vec.clear live;
          Hashtbl.reset is_live;
          add (F.base f);
          newest_left := F.base f
        end
        else if op < 30 && policy = Mixed && Vec.length live > 1 then
          remove_at (1 + Rng.int rng (Vec.length live - 1))
        else begin
          let anchor =
            match policy with
            | Mixed -> pick ()
            | Hammer { at_base = true; _ } -> F.base f
            | Hammer { at_base = false; _ } -> !newest_left
          in
          let inserted =
            if Rng.int rng 3 = 0 then [ F.insert_after f anchor ]
            else
              let l, r = F.insert_children f anchor ~parallel:(Rng.bool rng) in
              [ l; r ]
          in
          (match policy with
          | Hammer { churn = true; _ } ->
              for _ = 1 to min (2 * Rng.int rng 3) (Vec.length live - 1) do
                remove_at (Vec.length live - 1)
              done
          | Mixed | Hammer _ -> ());
          newest_left := List.hd inserted;
          List.iter add inserted
        end;
        query (F.base f);
        if Hashtbl.mem is_live !newest_left then query !newest_left;
        for _ = 1 to 3 do
          query (pick ())
        done
      done;
      F.check_invariants f;
      true)

let fused_use_after_delete () =
  let module F = Spr_om.Om_fused in
  let t = F.create () in
  (* Both SP queries reject a bad handle in either operand position. *)
  let queries_reject what x y =
    List.iter
      (fun (qname, q) ->
        let expect = Invalid_argument ("Om_fused." ^ qname ^ ": deleted element") in
        Alcotest.check_raises (qname ^ " rejects " ^ what) expect (fun () -> ignore (q t x y));
        Alcotest.check_raises (qname ^ " rejects " ^ what ^ " (swapped)") expect (fun () ->
            ignore (q t y x)))
      [ ("sp_precedes", F.sp_precedes); ("sp_parallel", F.sp_parallel) ]
  in
  (* [good] is live.  First with no pin set (every call follows a delete
     or a reset, which clear it), so an unset pin must match no handle,
     not even a negative one; then with [good] pinned, so the swapped
     calls run the pinned path and its checks on the earlier operand. *)
  let rejects_bad good bads =
    List.iter (fun (what, bad) -> queries_reject what good bad) bads;
    F.pin t good;
    List.iter (fun (what, bad) -> queries_reject (what ^ ", live one pinned") good bad) bads
  in
  let l, r = F.insert_children t (F.base t) ~parallel:true in
  F.delete t r;
  rejects_bad l
    [ ("a deleted handle", r); ("a negative handle", -1); ("a very negative handle", min_int) ];
  List.iter
    (fun (what, bad) ->
      Alcotest.check_raises ("insert_after rejects " ^ what)
        (Invalid_argument "Om_fused.insert_after: deleted element") (fun () ->
          ignore (F.insert_after t bad)))
    [ ("a deleted handle", r); ("a negative handle", -1); ("a handle past the slots", 1_000) ];
  Alcotest.(check int) "rejected inserts add nothing" 2 (F.size t);
  List.iter
    (fun (what, bad) ->
      Alcotest.check_raises ("pin rejects " ^ what)
        (Invalid_argument "Om_fused.pin: deleted element") (fun () -> F.pin t bad))
    [ ("a deleted handle", r); ("a negative handle", -1); ("a handle past the slots", 1_000) ];
  Alcotest.check_raises "base cannot be deleted"
    (Invalid_argument "Om_fused.delete: cannot delete base") (fun () -> F.delete t (F.base t));
  (* reset rewinds to the one-element state and invalidates old handles *)
  F.reset t;
  Alcotest.(check int) "reset leaves only the base" 1 (F.size t);
  Alcotest.(check bool) "stale handle is past the slots in use" true (l >= F.item_slots t);
  rejects_bad (F.base t) [ ("a stale handle after reset", l) ];
  Alcotest.check_raises "stale handle rejected after reset"
    (Invalid_argument "Om_fused.delete: deleted element") (fun () -> F.delete t l)

(* ------------------------------------------------------------------ *)

let qcheck_model (module M : Spr_om.Om_intf.S) =
  QCheck2.Test.make ~count:60 ~name:("model:" ^ M.name) QCheck2.Gen.(0 -- 1_000_000)
    (fun seed ->
      let module R = Run_script (M) in
      R.run (gen_script ~ops:200 ~seed);
      true)

let structures : (module Spr_om.Om_intf.S) list =
  [
    (module Spr_om.Om_label);
    (module Spr_om.Om);
    (module Spr_om.Om_packed);
    (module Spr_om.Om_concurrent);
    (module Spr_om.Om_concurrent2);
    (module Spr_om.Om_file);
  ]

let concurrent_structures : (module Spr_om.Om_intf.CONCURRENT) list =
  [ (module Spr_om.Om_concurrent); (module Spr_om.Om_concurrent2) ]

(* Section 8 separation: with a linear tag universe, amortized relabels
   per insert must grow (Ω(lg n) lower bound), in contrast to the flat
   O(1) of the two-level structure. *)
let file_maintenance_growth () =
  let relabels_per_insert n =
    let t = Spr_om.Om_file.create () in
    let anchor = Spr_om.Om_file.base t in
    for _ = 1 to n do
      ignore (Spr_om.Om_file.insert_after t anchor)
    done;
    Alcotest.(check bool) "universe stays O(n)" true (Spr_om.Om_file.universe t <= 16 * n);
    let st = Spr_om.Om_file.stats t in
    float_of_int st.items_moved /. float_of_int n
  in
  let small = relabels_per_insert 2_000 in
  let large = relabels_per_insert 64_000 in
  Alcotest.(check bool)
    (Printf.sprintf "relabels/insert grows (%.2f -> %.2f)" small large)
    true (large > small +. 1.0)

(* ------------------------------------------------------------------ *)
(* Fork_path: bit-packed (depth, fork-path) labels (sp-depa's core).
   Model: a path as an explicit step list, related by scanning for the
   first differing direction.                                          *)

module Fp = Spr_om.Fork_path

let fp_of_steps steps =
  List.fold_left (fun p (parallel, right) -> Fp.extend p ~parallel ~right) Fp.root steps

let naive_relate a b =
  let rec go i a b =
    match (a, b) with
    | (ka, da) :: ta, (kb, db) :: tb ->
        if da = db then begin
          assert (ka = kb);
          go (i + 1) ta tb
        end
        else if ka then `Par i
        else if not da then `Before i
        else `After i
    | _ -> `Ancestor
  in
  go 0 a b

(* Random pair with a shared prefix long enough to cross the 62-bit
   word boundary, then (usually) a divergence with matching kind. *)
let gen_fp_pair =
  QCheck.Gen.(
    let step = pair bool bool in
    let* prefix = list_size (int_bound 140) step in
    let* diverge = bool in
    if not diverge then
      (* One path a strict ancestor of the other. *)
      let* extra = list_size (int_range 1 70) step in
      return (prefix, prefix @ extra)
    else
      let* kind = bool in
      let* ta = list_size (int_bound 70) step in
      let* tb = list_size (int_bound 70) step in
      return (prefix @ ((kind, false) :: ta), prefix @ ((kind, true) :: tb)))

let fp_qcheck_vs_model =
  QCheck.Test.make ~count:2_000 ~name:"fork-path relate matches step-list model"
    (QCheck.make gen_fp_pair) (fun (sa, sb) ->
      let a = fp_of_steps sa and b = fp_of_steps sb in
      match naive_relate sa sb with
      | `Ancestor -> (
          match Fp.relate a b with
          | exception Invalid_argument _ -> true
          | _ -> false)
      | `Par i -> Fp.relate a b = Fp.Par && Fp.divergence_depth a b = i
      | `Before i -> Fp.relate a b = Fp.Before && Fp.divergence_depth a b = i
      | `After i -> Fp.relate a b = Fp.After && Fp.divergence_depth a b = i)

(* The 62-level word boundary: spill must kick in without changing any
   answer, and extending a frozen parent twice must not clobber the
   sibling (persistence across the spill copy). *)
let fp_boundary_depths () =
  List.iter
    (fun d ->
      let spine parallel =
        List.init d (fun _ -> (parallel, false))
      in
      (* Divergence at every level k below an S- and a P-node. *)
      List.iter
        (fun k ->
          let prefix lst = List.filteri (fun i _ -> i < k) lst in
          let par_a = fp_of_steps (spine true) in
          let par_b = fp_of_steps (prefix (spine true) @ [ (true, true) ]) in
          Alcotest.(check bool)
            (Printf.sprintf "P divergence d=%d k=%d" d k)
            true
            (Fp.relate par_a par_b = Fp.Par && Fp.divergence_depth par_a par_b = k);
          let ser_a = fp_of_steps (spine false) in
          let ser_b = fp_of_steps (prefix (spine false) @ [ (false, true) ]) in
          Alcotest.(check bool)
            (Printf.sprintf "S divergence d=%d k=%d" d k)
            true
            (Fp.relate ser_a ser_b = Fp.Before && Fp.relate ser_b ser_a = Fp.After))
        [ 0; d / 2; d - 1 ];
      (* Words accounting at the boundary. *)
      let p = fp_of_steps (spine true) in
      Alcotest.(check int) (Printf.sprintf "depth %d" d) d (Fp.depth p);
      Alcotest.(check int)
        (Printf.sprintf "words at depth %d" d)
        ((d + 61) / 62) (Fp.words p);
      Alcotest.(check int)
        (Printf.sprintf "size_words at depth %d" d)
        (1 + (2 * ((d + 61) / 62)))
        (Fp.size_words p))
    [ 1; 61; 62; 63; 124; 125; 200 ]

let fp_persistence_across_spill () =
  (* Parent exactly at the freeze point: both children must see the
     same frozen prefix, and relate as siblings. *)
  List.iter
    (fun d ->
      let parent = fp_of_steps (List.init d (fun i -> (i mod 3 = 0, i mod 2 = 0))) in
      let l = Fp.extend parent ~parallel:true ~right:false in
      let r = Fp.extend parent ~parallel:true ~right:true in
      Alcotest.(check bool)
        (Printf.sprintf "children at depth %d are Par" (d + 1))
        true
        (Fp.relate l r = Fp.Par && Fp.relate r l = Fp.Par);
      Alcotest.(check bool)
        (Printf.sprintf "grandchildren at depth %d order" (d + 2))
        true
        (let ll = Fp.extend l ~parallel:false ~right:false in
         let lr = Fp.extend l ~parallel:false ~right:true in
         Fp.relate ll lr = Fp.Before && Fp.relate ll r = Fp.Par))
    [ 60; 61; 62; 63; 123; 124 ]

let () =
  let per_structure =
    List.concat_map
      (fun (module M : Spr_om.Om_intf.S) ->
        [
          Alcotest.test_case (M.name ^ " model seed=7") `Quick (model_test (module M) 7);
          Alcotest.test_case (M.name ^ " model seed=99") `Quick (model_test (module M) 99);
          Alcotest.test_case (M.name ^ " hammer front") `Quick (hammer_front (module M) ~n:3_000);
          Alcotest.test_case (M.name ^ " append only") `Quick (append_only (module M) ~n:3_000);
          Alcotest.test_case (M.name ^ " multi-insert") `Quick (multi_insert_order (module M));
          QCheck_alcotest.to_alcotest (qcheck_model (module M));
        ])
      structures
  in
  Alcotest.run "spr_om"
    [
      ("structures", per_structure);
      ( "two-level",
        [
          Alcotest.test_case "invariants after hammer" `Quick om_invariants_after_hammer;
          Alcotest.test_case "order after mixed inserts" `Quick om_order_after_mixed;
          Alcotest.test_case "amortized O(1) top relabels" `Quick amortized_bound;
          Alcotest.test_case "delete fully detaches" `Quick om_delete_fully_detaches;
        ] );
      ( "scripts",
        List.concat_map
          (fun ((name, sut) as s) ->
            Alcotest.test_case (name ^ " insert_before head splits") `Quick
              (insert_before_head_splits sut)
            :: List.map (fun m -> QCheck_alcotest.to_alcotest (script_mix s m)) script_mixes)
          script_suts );
      ( "packed",
        [
          QCheck_alcotest.to_alcotest packed_free_list_reuse;
          Alcotest.test_case "use after delete rejected" `Quick packed_use_after_delete;
        ] );
      ( "fused",
        [
          QCheck_alcotest.to_alcotest fused_matches_boxed_pair;
          QCheck_alcotest.to_alcotest fused_free_list_reuse;
          QCheck_alcotest.to_alcotest fused_pin_matches_orders;
          Alcotest.test_case "use after delete / reset hygiene" `Quick fused_use_after_delete;
        ] );
      ( "fork-path",
        [
          QCheck_alcotest.to_alcotest fp_qcheck_vs_model;
          Alcotest.test_case "spill boundary depths 61/62/63" `Quick fp_boundary_depths;
          Alcotest.test_case "persistence across spill freeze" `Quick fp_persistence_across_spill;
        ] );
      ( "one-level",
        [ Alcotest.test_case "amortized O(lg n) relabels" `Quick one_level_amortized_bound ] );
      ( "file-maintenance",
        [ Alcotest.test_case "linear universe costs grow" `Quick file_maintenance_growth ] );
      ( "concurrent",
        List.concat_map
          (fun (module C : Spr_om.Om_intf.CONCURRENT) ->
            [
              Alcotest.test_case (C.name ^ " insert_around") `Quick
                (concurrent_insert_around (module C));
              Alcotest.test_case (C.name ^ " reader/writer stress") `Quick
                (concurrent_stress (module C));
            ])
          concurrent_structures );
    ]

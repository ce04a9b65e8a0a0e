(* Ingestion-service validation: the streaming server's capture/replay
   pipeline is pinned differentially against [Drivers.detect_serial] —
   same races in the same order, same racy locations, same SP query
   count — over every named workload generator, over random programs
   on a resident reused server, and with the shadow memory sharded
   across real worker domains or a schedtest-controlled hand-off.
   Decoder totality: truncated or corrupted traces yield [Error] with
   a frame-located diagnostic, never an exception, never a partial
   result, and leave the server usable. *)

open Spr_prog
module W = Spr_workloads.Progs
module Fj = Fj_program
module Codec = Spr_ingest.Codec
module Server = Spr_ingest.Server
module Drivers = Spr_race.Drivers
module Control = Spr_schedtest.Control
module Rng = Spr_util.Rng

(* ------------------------------------------------------------------ *)
(* Oracle and comparison plumbing.                                     *)

let oracle p =
  let pt = Prog_tree.of_program p in
  Drivers.detect_serial pt Spr_core.Algorithms.sp_order

let race_repr (r : Spr_race.Detector.race) =
  Printf.sprintf "loc=%d %d(%c)->%d(%c)" r.loc r.earlier
    (if r.earlier_write then 'w' else 'r')
    r.later
    (if r.later_write then 'w' else 'r')

let check_result ctx (want : Drivers.serial_result) (got : Server.program_result) =
  Alcotest.(check (list string))
    (ctx ^ ": races")
    (List.map race_repr want.Drivers.races)
    (List.map race_repr got.Server.races);
  Alcotest.(check (list int)) (ctx ^ ": racy locs") want.Drivers.racy_locs got.Server.racy_locs;
  Alcotest.(check int) (ctx ^ ": sp queries") want.Drivers.sp_queries got.Server.sp_queries

let check_same ctx (want : Server.program_result) (got : Server.program_result) =
  Alcotest.(check (list string))
    (ctx ^ ": races")
    (List.map race_repr want.Server.races)
    (List.map race_repr got.Server.races);
  Alcotest.(check (list int)) (ctx ^ ": racy locs") want.Server.racy_locs got.Server.racy_locs;
  Alcotest.(check int) (ctx ^ ": sp queries") want.Server.sp_queries got.Server.sp_queries

let run_one ?(ctx = "run") srv trace =
  match Server.run_string srv trace with
  | Ok [ r ] -> r
  | Ok rs -> Alcotest.failf "%s: expected 1 program result, got %d" ctx (List.length rs)
  | Error e -> Alcotest.failf "%s: unexpected decode error: %a" ctx Codec.pp_error e

let with_server ?shards ?batch ?runner f =
  let srv = Server.create ?shards ?batch ?runner () in
  Fun.protect ~finally:(fun () -> Server.close srv) (fun () -> f srv)

(* Per-workload sizes keeping each program in the hundreds-to-few-
   thousand-events range (fib/matmul sizes are exponential/cubic). *)
let size_for = function
  | "fib" -> 8
  | "matmul" | "matmul-buggy" -> 8
  | "serial" -> 12
  | "deep" | "locked" | "locked-buggy" -> 16
  | "wide" | "shared-readers" -> 24
  | "dcsum" | "dcsum-buggy" -> 32
  | "random" | "adversarial" -> 60
  | "mergesort" | "mergesort-buggy" -> 64
  | name -> Alcotest.failf "size_for: unknown workload %s" name

(* ------------------------------------------------------------------ *)
(* 1. Capture -> replay differential over the whole registry.          *)

let registry_roundtrip () =
  with_server (fun srv ->
      List.iter
        (fun (name, gen) ->
          let p = gen ~size:(size_for name) ~seed:3 in
          let trace = Codec.capture [ p ] in
          let got = run_one ~ctx:name srv trace in
          check_result name (oracle p) got;
          Alcotest.(check int) (name ^ ": accesses") (Fj.access_count p) got.Server.accesses;
          Alcotest.(check int) (name ^ ": threads") (Fj.thread_count p) got.Server.threads)
        W.named)

(* The buggy variants must actually exercise the race path, or the
   differential above proves nothing about reports. *)
let buggy_variants_report () =
  with_server (fun srv ->
      List.iter
        (fun name ->
          let gen = Option.get (W.find_opt name) in
          let p = gen ~size:(size_for name) ~seed:3 in
          let got = run_one ~ctx:name srv (Codec.capture [ p ]) in
          Alcotest.(check bool) (name ^ ": reports races") true (got.Server.races <> []))
        [ "dcsum-buggy"; "mergesort-buggy"; "matmul-buggy"; "locked-buggy" ])

(* ------------------------------------------------------------------ *)
(* 2. Random programs vs the oracle, one resident server throughout.   *)

let random_matches_oracle =
  let srv = Server.create () in
  QCheck2.Test.make ~count:80 ~name:"ingest replay matches detect_serial on random programs"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 60))
    (fun (seed, threads) ->
      let rng = Rng.create seed in
      let p = W.random_prog ~rng ~threads ~locs:8 ~accesses_per_thread:4 () in
      let want = oracle p in
      let got = run_one srv (Codec.capture [ p ]) in
      List.map race_repr want.Drivers.races = List.map race_repr got.Server.races
      && want.Drivers.racy_locs = got.Server.racy_locs
      && want.Drivers.sp_queries = got.Server.sp_queries)

let adversarial_matches_oracle =
  let srv = Server.create () in
  QCheck2.Test.make ~count:40
    ~name:"ingest replay matches detect_serial on adversarial shapes"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 40))
    (fun (seed, threads) ->
      let rng = Rng.create seed in
      let shape =
        match seed mod 4 with
        | 0 -> `Uniform
        | 1 -> `Spawn_heavy
        | 2 -> `Deep_serial
        | _ -> `Wide
      in
      let p = W.random_adversarial ~rng ~threads ~shape () in
      let want = oracle p in
      let got = run_one srv (Codec.capture [ p ]) in
      List.map race_repr want.Drivers.races = List.map race_repr got.Server.races
      && want.Drivers.racy_locs = got.Server.racy_locs)

(* ------------------------------------------------------------------ *)
(* 3. Sharded shadow memory: real worker domains, byte-identical.      *)

let sharded_workloads =
  [
    "dcsum-buggy";
    "mergesort-buggy";
    "matmul-buggy";
    "locked";
    "locked-buggy";
    "shared-readers";
    "random";
    "adversarial";
  ]

let sharded_matches_serial () =
  (* A small batch forces many mid-program flushes, so the deferred
     drain really interleaves with decoding.  At batch 1 every drain
     runs mid-thread, its one access's thread pinned in the OM; at
     batch 3 a drain also holds accesses of earlier threads, which the
     SPAWN and SYNC frames since have unpinned, and the PROG_END flush
     drains what the last frames left. *)
  List.iter
    (fun batch ->
      with_server ~shards:3 ~batch (fun srv ->
          List.iter
            (fun name ->
              let gen = Option.get (W.find_opt name) in
              let p = gen ~size:(size_for name) ~seed:11 in
              let got = run_one ~ctx:name srv (Codec.capture [ p ]) in
              check_result (Printf.sprintf "sharded batch %d %s" batch name) (oracle p) got)
            sharded_workloads))
    [ 64; 3; 1 ]

let sharded_random_matches_serial =
  let srv = Server.create ~shards:4 ~batch:32 () in
  QCheck2.Test.make ~count:40 ~name:"sharded detection matches serial on random programs"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 50))
    (fun (seed, threads) ->
      let rng = Rng.create seed in
      let p = W.random_prog ~rng ~threads ~locs:8 ~accesses_per_thread:4 () in
      let want = oracle p in
      let got = run_one srv (Codec.capture [ p ]) in
      List.map race_repr want.Drivers.races = List.map race_repr got.Server.races
      && want.Drivers.sp_queries = got.Server.sp_queries)

(* Racy locations through 1, 2 and 4 shards: each shard lists its own
   ascending range, the server concatenates them shifted by the shard
   bases, and the result must equal the single-shard list and the
   sort-and-dedup definition over the merged races. *)
let shard_servers = lazy (List.map (fun shards -> Server.create ~shards ~batch:16 ()) [ 1; 2; 4 ])

let racy_locs_across_shards ctx p =
  let trace = Codec.capture [ p ] in
  match List.map (fun srv -> run_one ~ctx srv trace) (Lazy.force shard_servers) with
  | [] -> assert false
  | serial :: sharded ->
      let want =
        List.sort_uniq compare
          (List.map (fun (r : Spr_race.Detector.race) -> r.loc) serial.Server.races)
      in
      Alcotest.(check (list int)) (ctx ^ ": 1 shard = sort_uniq") want serial.Server.racy_locs;
      List.iter2
        (fun shards (got : Server.program_result) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %d shards" ctx shards)
            want got.Server.racy_locs)
        [ 2; 4 ] sharded

let racy_locs_registry () =
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let p = (Option.get (W.find_opt name)) ~size:(size_for name) ~seed in
          racy_locs_across_shards (Printf.sprintf "%s seed %d" name seed) p)
        [ 1; 2; 3 ])
    W.names

let racy_locs_random =
  QCheck2.Test.make ~count:60 ~name:"racy locs equal across 1, 2 and 4 shards"
    QCheck2.Gen.(triple (0 -- 1_000_000) (2 -- 50) (1 -- 100))
    (fun (seed, threads, locs) ->
      let p = W.random_prog ~rng:(Rng.create seed) ~threads ~locs ~accesses_per_thread:4 () in
      racy_locs_across_shards (Printf.sprintf "seed %d" seed) p;
      true)

(* ------------------------------------------------------------------ *)
(* 4. Residency: in-place reset across programs, stable answers.       *)

let resident_reuse () =
  with_server (fun srv ->
      let a = W.mergesort ~buggy:true ~n:64 () in
      let b = W.dc_sum ~leaves:128 () in
      let first = run_one ~ctx:"A" srv (Codec.capture [ a ]) in
      let _middle = run_one ~ctx:"B" srv (Codec.capture [ b ]) in
      let again = run_one ~ctx:"A again" srv (Codec.capture [ a ]) in
      Alcotest.(check (list string))
        "A's races unchanged after B"
        (List.map race_repr first.Server.races)
        (List.map race_repr again.Server.races);
      Alcotest.(check int) "A's queries unchanged" first.Server.sp_queries again.Server.sp_queries;
      let st = Server.stats srv in
      Alcotest.(check int) "3 programs ingested" 3 st.Server.programs;
      Alcotest.(check int)
        "accesses accumulate"
        (2 * Fj.access_count a + Fj.access_count b)
        st.Server.accesses)

(* A resident server clears only the shadow prefix the next program
   declares.  Alternating wide and narrow racy programs leaves stale
   cells past every narrow program's range, and a wide program after a
   narrow one needs the cells the narrow reset skipped cleared again:
   every result must equal a fresh server's.  Dense accesses make each
   program touch every location it declares. *)
let reset_prefix () =
  let prog ~seed ~locs =
    W.random_prog ~rng:(Rng.create seed) ~threads:40 ~locs ~accesses_per_thread:32 ()
  in
  let cases =
    [
      ("wide", prog ~seed:1 ~locs:64);
      ("narrow", prog ~seed:2 ~locs:8);
      ("wide again", prog ~seed:3 ~locs:64);
      ("narrow again", prog ~seed:4 ~locs:8);
    ]
  in
  with_server (fun srv ->
      List.iter
        (fun (ctx, p) ->
          let trace = Codec.capture [ p ] in
          let fresh = with_server (fun fresh -> run_one ~ctx fresh trace) in
          let got = run_one ~ctx srv trace in
          Alcotest.(check bool) (ctx ^ ": racy") true (got.Server.races <> []);
          check_same ctx fresh got)
        cases)

(* ------------------------------------------------------------------ *)
(* 4b. Deep nesting: the fused driver's walk recurses once per nested
   spawn, the server's frame engine keeps its own stack; both must
   finish 10^5 levels deep and agree.                                  *)

(* A 10^5-deep spawn chain in which every thread reads and writes
   location 0: each level is [[Run; Spawn child; Run]; [Run]], so the
   walk crosses S-splits at every level and races at every level. *)
let deep_chain ~depth =
  let b = Fj.Builder.create () in
  let rw () =
    Fj.Builder.thread b
      ~accesses:
        [ { Fj.loc = 0; write = false; locks = [] }; { Fj.loc = 0; write = true; locks = [] } ]
      ~cost:1 ()
  in
  let p = ref (Fj.Builder.proc b [ [ Fj.Run (rw ()) ] ]) in
  for _ = 2 to depth do
    p := Fj.Builder.proc b [ [ Fj.Run (rw ()); Fj.Spawn !p; Fj.Run (rw ()) ]; [ Fj.Run (rw ()) ] ]
  done;
  Fj.Builder.finish b !p

let deep_nesting () =
  with_server (fun srv ->
      List.iter
        (fun (ctx, p) ->
          check_result ctx (Drivers.detect_serial_fused p) (run_one ~ctx srv (Codec.capture [ p ])))
        [
          ("deep_spawn 10^5", W.deep_spawn ~depth:100_000 ());
          ("rw chain 10^5", deep_chain ~depth:100_000);
        ])

(* ------------------------------------------------------------------ *)
(* 4c. The SP-order construction's OM work, and each of its cases.     *)

(* The fused order's size after a walk of [p] through Sp_stream,
   counted from the program: the base, two elements per spawn (its
   P-node's children), one per block that spawns (the block's
   continuation), and one per thread that does not open a fresh
   context — a thread takes the element it runs at when nothing has
   run there yet: at the start of a procedure, after a RETURN, and
   after a SYNC that ends a spawning block.  [item] and [block] return
   whether the next item's context is fresh. *)
let om_elements p =
  let n = ref 1 in
  let rec proc (pr : Fj.proc) = ignore (Array.fold_left block true pr.Fj.blocks)
  and block fresh blk =
    let spawns = Array.exists (function Fj.Spawn _ -> true | Fj.Run _ -> false) blk in
    if spawns then incr n;
    let fresh = Array.fold_left item fresh blk in
    fresh || spawns
  and item fresh = function
    | Fj.Run _ ->
        if not fresh then incr n;
        false
    | Fj.Spawn c ->
        n := !n + 2;
        proc c;
        true
  in
  proc (Fj.main p);
  !n

let stats_repr (s : Spr_om.Om_intf.stats) =
  Printf.sprintf "inserts=%d passes=%d moved=%d max_range=%d" s.inserts s.relabel_passes
    s.items_moved s.max_range

(* [srv] has just ingested [p]'s trace.  Both detectors drive the one
   construction in Sp_stream, so Drivers.Fused on [p] must leave an OM
   of the same size and the same per-plane relabel counters as the
   server, and the size must be [p]'s own count. *)
let check_om_work ctx srv p =
  let om = Server.om srv in
  let f = Drivers.Fused.create p in
  Drivers.Fused.run f;
  let fom = Drivers.Fused.om f in
  Spr_om.Om_fused.check_invariants om;
  Spr_om.Om_fused.check_invariants fom;
  Alcotest.(check int) (ctx ^ ": OM elements") (om_elements p) (Spr_om.Om_fused.size om);
  Alcotest.(check int) (ctx ^ ": Fused OM elements") (om_elements p) (Spr_om.Om_fused.size fom);
  Alcotest.(check string)
    (ctx ^ ": Fused English relabels")
    (stats_repr (Spr_om.Om_fused.stats_eng om))
    (stats_repr (Spr_om.Om_fused.stats_eng fom));
  Alcotest.(check string)
    (ctx ^ ": Fused Hebrew relabels")
    (stats_repr (Spr_om.Om_fused.stats_heb om))
    (stats_repr (Spr_om.Om_fused.stats_heb fom))

let om_work_registry () =
  with_server (fun srv ->
      List.iter
        (fun name ->
          let p = (Option.get (W.find_opt name)) ~size:(size_for name) ~seed:3 in
          ignore (run_one ~ctx:name srv (Codec.capture [ p ]));
          check_om_work name srv p)
        W.names;
      (* Large enough that both planes relabel, so the counters compare
         real passes, not zeros. *)
      let p = W.random_prog ~rng:(Rng.create 7) ~threads:4000 ~spawn_prob:0.5 ~locs:8 () in
      ignore (run_one ~ctx:"random 4000 threads" srv (Codec.capture [ p ]));
      check_om_work "random 4000 threads" srv p;
      let om = Server.om srv in
      Alcotest.(check bool) "both planes relabeled" true
        ((Spr_om.Om_fused.stats_eng om).relabel_passes > 0
        && (Spr_om.Om_fused.stats_heb om).relabel_passes > 0))

let om_work_random =
  let srv = Server.create () in
  QCheck2.Test.make ~count:80 ~name:"OM elements = the program's own count on random programs"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 60))
    (fun (seed, threads) ->
      let p = W.random_prog ~rng:(Rng.create seed) ~threads ~locs:8 ~accesses_per_thread:4 () in
      ignore (run_one srv (Codec.capture [ p ]));
      check_om_work (Printf.sprintf "seed %d" seed) srv p;
      true)

(* One program per case of the construction.  Every thread reads and
   writes location 0 and writes one location of its own, so a thread
   placed on the wrong side of another shows up as a missing or a false
   race. *)
let construction_cases =
  let build f =
    let b = Fj.Builder.create () in
    let next = ref 0 in
    let rw () =
      incr next;
      Fj.Run
        (Fj.Builder.thread b
           ~accesses:
             [
               { Fj.loc = 0; write = false; locks = [] };
               { Fj.loc = 0; write = true; locks = [] };
               { Fj.loc = !next; write = true; locks = [] };
             ]
           ~cost:1 ())
    in
    let proc blocks = Fj.Spawn (Fj.Builder.proc b blocks) in
    Fj.Builder.finish b (Fj.Builder.proc b (f rw proc))
  in
  [
    ("spawn-free blocks joined by SYNC", W.serial ~n:12 ());
    ("spawn-free blocks, then a spawning one",
      build (fun rw proc -> [ [ rw (); rw () ]; [ rw () ]; [ proc [ [ rw () ] ]; rw () ] ]));
    ("Run; Spawn in one block",
      build (fun rw proc -> [ [ rw (); proc [ [ rw () ] ] ]; [ rw () ] ]));
    ("a block ending in a Spawn, then SYNC",
      build (fun rw proc -> [ [ proc [ [ rw () ] ]; proc [ [ rw () ] ] ]; [ rw () ] ]));
    ("a Run right after RETURN",
      build (fun rw proc ->
          [ [ proc [ [ rw () ] ]; rw (); rw (); proc [ [ rw () ] ] ]; [ rw () ] ]));
    ("a SYNC inside a child procedure",
      build (fun rw proc ->
          let child = proc [ [ rw (); proc [ [ rw () ] ]; rw () ]; [ rw () ] ] in
          [ [ rw (); child; rw () ]; [ rw () ] ]));
  ]

let construction_cases_match () =
  List.iter
    (fun shards ->
      with_server ~shards (fun srv ->
          List.iter
            (fun (name, p) ->
              let ctx = Printf.sprintf "%s, %d shard(s)" name shards in
              check_result ctx (oracle p) (run_one ~ctx srv (Codec.capture [ p ]));
              check_om_work ctx srv p)
            construction_cases))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* 5. Multi-program traces: one stream, per-program results.           *)

let multi_program_trace () =
  let progs =
    [
      W.dc_sum ~leaves:32 ();
      W.mergesort ~buggy:true ~n:32 ();
      W.fib ~n:7 ();
      W.matmul ~buggy:true ~n:6 ();
    ]
  in
  let trace = Codec.capture progs in
  with_server (fun srv ->
      match Server.run_string srv trace with
      | Error e -> Alcotest.failf "multi: %a" Codec.pp_error e
      | Ok results ->
          Alcotest.(check int) "result per program" (List.length progs) (List.length results);
          List.iteri
            (fun i ((p, (r : Server.program_result))) ->
              Alcotest.(check int) "index" i r.Server.index;
              check_result (Printf.sprintf "multi[%d]" i) (oracle p) r)
            (List.combine progs results))

let empty_trace () =
  let buf = Buffer.create 16 in
  Codec.write_header buf;
  with_server (fun srv ->
      match Server.run_string srv (Buffer.contents buf) with
      | Ok [] -> ()
      | Ok rs -> Alcotest.failf "header-only trace: %d results" (List.length rs)
      | Error e -> Alcotest.failf "header-only trace: %a" Codec.pp_error e)

(* ------------------------------------------------------------------ *)
(* 6. Decoder totality on malformed input.                             *)

(* The reference trace plus its only two valid cut points: a prefix
   ending exactly after the header or after the first program is
   itself a well-formed (shorter) trace; every other cut must fail. *)
let reference =
  lazy
    (let buf = Buffer.create 1024 in
     Codec.write_header buf;
     let header_end = Buffer.length buf in
     Codec.encode_program buf (W.mergesort ~buggy:true ~n:32 ());
     let first_end = Buffer.length buf in
     Codec.encode_program buf (W.locked_counter ~mode:`Common_lock ~leaves:8 ());
     (Buffer.contents buf, [ header_end; first_end ]))

let reference_trace = lazy (fst (Lazy.force reference))

let truncation_is_an_error =
  let srv = Server.create () in
  QCheck2.Test.make ~count:120 ~name:"every truncation yields Error, server stays usable"
    QCheck2.Gen.(0 -- 10_000)
    (fun cut ->
      let full, boundaries = Lazy.force reference in
      let cut = cut mod String.length full in
      let prefix = String.sub full 0 cut in
      let truncated_ok =
        match Server.run_string srv prefix with
        | Error e -> (not (List.mem cut boundaries)) && e.Codec.offset <= String.length prefix
        | Ok rs -> List.mem cut boundaries && List.length rs = (if cut = List.hd boundaries then 0 else 1)
      in
      (* The error must not wedge the resident server. *)
      let recovers = match Server.run_string srv full with Ok _ -> true | Error _ -> false in
      truncated_ok && recovers)

let corruption_never_escapes =
  let srv = Server.create () in
  QCheck2.Test.make ~count:200 ~name:"byte corruption yields Ok or Error, never an exception"
    QCheck2.Gen.(pair (0 -- 1_000_000) (0 -- 255))
    (fun (at, byte) ->
      let full = Lazy.force reference_trace in
      let at = at mod String.length full in
      let b = Bytes.of_string full in
      Bytes.set b at (Char.chr byte);
      match Server.run_string srv (Bytes.to_string b) with
      | Ok _ | Error _ -> (
          (* And again: no lingering poisoned state. *)
          match Server.run_string srv full with Ok _ -> true | Error _ -> false))

let diagnostics_locate_the_frame () =
  with_server (fun srv ->
      (match Server.run_string srv "not a trace at all" with
      | Error e ->
          Alcotest.(check int) "bad magic at offset 0" 0 e.Codec.offset;
          Alcotest.(check string) "bad magic message" "bad magic (not a .spr-trace file)" e.Codec.msg
      | Ok _ -> Alcotest.fail "garbage accepted");
      let full = Lazy.force reference_trace in
      (* Flip the PROG_END trailer's event count: the last varint byte
         of the trace. *)
      let b = Bytes.of_string full in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
      match Server.run_string srv (Bytes.to_string b) with
      | Error e ->
          Alcotest.(check bool)
            "event-count mismatch diagnosed" true
            (String.length e.Codec.msg >= 20
            && String.sub e.Codec.msg 0 20 = "event-count mismatch")
      | Ok _ -> Alcotest.fail "corrupted trailer accepted")

(* ------------------------------------------------------------------ *)
(* 7. schedtest-controlled shard hand-off.                             *)

let controlled_handoff () =
  let p = W.random_prog ~rng:(Rng.create 5) ~threads:40 ~locs:8 ~accesses_per_thread:4 () in
  let want = oracle p in
  let trace = Codec.capture [ p ] in
  for seed = 0 to 9 do
    let outcomes = ref [] in
    let runner tasks =
      let r = Control.run (Control.Random seed) ~tasks:(Array.to_list tasks) in
      outcomes := r.Control.outcome :: !outcomes
    in
    with_server ~shards:3 ~batch:16 ~runner (fun srv ->
        let got = run_one ~ctx:(Printf.sprintf "seed %d" seed) srv trace in
        check_result (Printf.sprintf "controlled seed %d" seed) want got;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: flushes completed" seed)
          true
          (!outcomes <> [] && List.for_all (fun o -> o = Control.Completed) !outcomes))
  done

(* ------------------------------------------------------------------ *)
(* The vector-clock oracle: the same five walk events as the SP-order
   construction, and the same verdicts.                                *)

(* A compile-time check only: nothing calls through [WALK]. *)
module type WALK = sig
  [@@@warning "-32"]

  type t

  val create : unit -> t

  val reset : t -> threads:int -> unit

  val thread : t -> int -> unit

  val spawn : t -> unit

  val return_ : t -> unit

  val sync : t -> unit

  val precedes : t -> executed:int -> current:int -> bool
end

module _ : WALK = Spr_core.Sp_stream
module _ : WALK = Spr_hb.Stream_clock

let clock_server = lazy (Server.create ~oracle:Server.Hb_vector ())

let clock_matches_default ctx srv p =
  let trace = Codec.capture [ p ] in
  check_same ctx (run_one ~ctx srv trace) (run_one ~ctx (Lazy.force clock_server) trace)

let clock_registry () =
  with_server (fun srv ->
      List.iter
        (fun name ->
          List.iter
            (fun seed ->
              let p = (Option.get (W.find_opt name)) ~size:(size_for name) ~seed in
              clock_matches_default (Printf.sprintf "%s seed %d" name seed) srv p)
            [ 1; 2; 3 ])
        W.names)

let clock_random =
  let srv = Server.create () in
  QCheck2.Test.make ~count:80 ~name:"hb-vector server = default server on random programs"
    QCheck2.Gen.(pair (0 -- 1_000_000) (2 -- 60))
    (fun (seed, threads) ->
      let p = W.random_prog ~rng:(Rng.create seed) ~threads ~locs:8 ~accesses_per_thread:4 () in
      clock_matches_default (Printf.sprintf "seed %d" seed) srv p;
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "spr_ingest"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "registry differential" `Quick registry_roundtrip;
          Alcotest.test_case "buggy variants report" `Quick buggy_variants_report;
          Alcotest.test_case "multi-program trace" `Quick multi_program_trace;
          Alcotest.test_case "header-only trace" `Quick empty_trace;
          QCheck_alcotest.to_alcotest random_matches_oracle;
          QCheck_alcotest.to_alcotest adversarial_matches_oracle;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "registry differential" `Quick sharded_matches_serial;
          Alcotest.test_case "controlled hand-off" `Quick controlled_handoff;
          QCheck_alcotest.to_alcotest sharded_random_matches_serial;
          Alcotest.test_case "racy locs on every workload" `Quick racy_locs_registry;
          QCheck_alcotest.to_alcotest racy_locs_random;
        ] );
      ( "resident",
        [
          Alcotest.test_case "in-place reuse" `Quick resident_reuse;
          Alcotest.test_case "wide/narrow reset prefix" `Quick reset_prefix;
        ] );
      ("deep", [ Alcotest.test_case "fused walk = server at 10^5 levels" `Quick deep_nesting ]);
      ( "om-walk",
        [
          Alcotest.test_case "OM elements on every workload" `Quick om_work_registry;
          QCheck_alcotest.to_alcotest om_work_random;
          Alcotest.test_case "each case matches detect_serial" `Quick construction_cases_match;
        ] );
      ( "clock",
        [
          Alcotest.test_case "hb-vector = default on every workload" `Quick clock_registry;
          QCheck_alcotest.to_alcotest clock_random;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "diagnostics locate the frame" `Quick diagnostics_locate_the_frame;
          QCheck_alcotest.to_alcotest truncation_is_an_error;
          QCheck_alcotest.to_alcotest corruption_never_escapes;
        ] );
    ]

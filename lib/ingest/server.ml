module V = Spr_util.Varint
module D = Spr_race.Detector
module Sp_stream = Spr_core.Sp_stream
module Stream_clock = Spr_hb.Stream_clock
module Hook = Spr_schedhook.Hook
module Sharded = Spr_obs.Sharded

type runner = (unit -> unit) array -> unit

(* Which happens-before oracle answers the detector's SP queries.  The
   default drives the fused English/Hebrew order; the vector-clock
   oracle tracks happens-before directly on the frame structure
   ({!Spr_hb.Stream_clock}) and exists to pin, byte for byte, that a
   clock reaches the same verdicts through an independent code path. *)
type oracle = Sp_fused | Hb_vector

type program_result = {
  index : int;
  threads : int;
  accesses : int;
  events : int;
  races : D.race list;
  racy_locs : int list;
  sp_queries : int;
}

type stats = {
  programs : int;
  events : int;
  accesses : int;
  races : int;
  sp_queries : int;
  flushes : int;
}

(* All decode-loop state lives in mutable fields (plus the one [int
   ref] the varint reader wants), and the decode functions below are
   top-level and tail-recursive: a steady-state [drive] allocates no
   refs, no closures, no frames. *)
type t = {
  nshards : int;
  batch : int;
  run_tasks : runner;
  pool : Shard.Pool.pool option;
  shard_arr : Shard.t array;  (* empty when nshards = 1 *)
  tasks : (unit -> unit) array;  (* drain thunks, built once *)
  sp : Sp_stream.t;  (* the SP-order construction the structural frames drive *)
  clock : Stream_clock.t option;  (* Some iff the clock oracle *)
  precedes : executed:int -> current:int -> bool;
  mutable det : D.t;  (* the single-shard detector *)
  mutable det_locs : int;
  pos : int ref;
  (* Per-program decode state. *)
  mutable cur_tid : int;  (* -1 between THREAD frames *)
  mutable next : int;  (* node budget used so far *)
  mutable nodes_bound : int;
  mutable p_threads : int;
  mutable p_locs : int;
  mutable width : int;  (* address-partition width (sharded) *)
  mutable p_events : int;
  mutable p_accesses : int;
  mutable frame : int;  (* frame ordinal, for diagnostics *)
  mutable seq : int;  (* global access sequence number *)
  mutable index : int;  (* program ordinal in the current trace *)
  mutable acc : program_result list;  (* collected results, reversed *)
  (* Aggregates since create. *)
  mutable a_programs : int;
  mutable a_events : int;
  mutable a_accesses : int;
  mutable a_races : int;
  mutable a_queries : int;
  mutable a_flushes : int;
  shard_acc : int array;  (* per-shard accesses drained, cumulative *)
  (* Sharded counters, resolved once. *)
  c_programs : Sharded.counter;
  c_events : Sharded.counter;
  c_accesses : Sharded.counter;
  c_races : Sharded.counter;
  c_queries : Sharded.counter;
  c_flushes : Sharded.counter;
  c_shard : Sharded.counter array;
}

let shards t = t.nshards

let om t = Sp_stream.om t.sp

let create ?(shards = 1) ?(batch = 8192) ?(oracle = Sp_fused) ?runner () =
  if shards < 1 || shards > 64 then
    invalid_arg "Server.create: shards must be in [1, 64]";
  if batch < 1 then invalid_arg "Server.create: batch must be positive";
  (* Sharding defers shadow queries into batch drains, but the clock
     oracle answers against the one evolving active clock — by drain
     time it has moved past the access.  The fused order keeps every
     node's label live, so only it supports deferred queries. *)
  if oracle <> Sp_fused && shards > 1 then
    invalid_arg "Server.create: the hb-vector oracle requires shards = 1";
  let sp = Sp_stream.create () in
  let clock = match oracle with Sp_fused -> None | Hb_vector -> Some (Stream_clock.create ()) in
  let precedes =
    match clock with Some c -> Stream_clock.precedes c | None -> Sp_stream.precedes sp
  in
  let shard_arr =
    if shards = 1 then [||]
    else Array.init shards (fun id -> Shard.create ~id ~precedes ())
  in
  let pool, run_tasks =
    if shards = 1 then (None, fun _ -> ())
    else
      match runner with
      | Some f -> (None, f)
      | None ->
          let p = Shard.Pool.create ~workers:(shards - 1) in
          (Some p, Shard.Pool.run p)
  in
  let reg = Sharded.default in
  {
    nshards = shards;
    batch;
    run_tasks;
    pool;
    shard_arr;
    tasks = Array.map (fun sh () -> Shard.drain sh) shard_arr;
    sp;
    clock;
    precedes;
    det = D.create ~locs:1 ~precedes ();
    det_locs = 1;
    pos = ref 0;
    cur_tid = -1;
    next = 0;
    nodes_bound = 0;
    p_threads = 0;
    p_locs = 0;
    width = 1;
    p_events = 0;
    p_accesses = 0;
    frame = 0;
    seq = 0;
    index = 0;
    acc = [];
    a_programs = 0;
    a_events = 0;
    a_accesses = 0;
    a_races = 0;
    a_queries = 0;
    a_flushes = 0;
    shard_acc = Array.make shards 0;
    c_programs = Sharded.counter reg "ingest/programs";
    c_events = Sharded.counter reg "ingest/events";
    c_accesses = Sharded.counter reg "ingest/accesses";
    c_races = Sharded.counter reg "ingest/races";
    c_queries = Sharded.counter reg "ingest/sp_queries";
    c_flushes = Sharded.counter reg "ingest/flushes";
    c_shard =
      Array.init shards (fun i ->
          Sharded.counter reg (Printf.sprintf "ingest/shard%d/accesses" i));
  }

let close t = match t.pool with None -> () | Some p -> Shard.Pool.shutdown p

(* --- Frame checks ----------------------------------------------- *)

(* Structural frames drive {!Spr_core.Sp_stream}, which documents the
   construction and trusts its input; every check on the frames is
   made here, before the walk sees them. *)

let corrupt_here t fmt = Codec.corrupt ~offset:!(t.pos) ~frame:(t.frame - 1) fmt

(* The header's node budget counts two parse-tree ids per thread, spawn
   and sync block.  The walk numbers no nodes; it charges the budget at
   those frames only so the header is checked exactly. *)
let charge t k =
  if t.next + k > t.nodes_bound then
    corrupt_here t "node budget exhausted (header declared %d nodes)" t.nodes_bound;
  t.next <- t.next + k

(* --- The frame loop ----------------------------------------------- *)

let check_access t loc =
  if t.cur_tid < 0 then corrupt_here t "access frame outside a running thread";
  if loc < 0 || loc >= t.p_locs then
    corrupt_here t "access location %d out of range (header declared %d)" loc t.p_locs

let flush t =
  Hook.yield ~layer:"ingest" ~name:"flush-publish" ();
  t.a_flushes <- t.a_flushes + 1;
  t.run_tasks t.tasks;
  Hook.yield ~layer:"ingest" ~name:"flush-join" ()

let record_access t ~loc ~write =
  check_access t loc;
  if t.nshards = 1 then D.access_raw t.det ~current:t.cur_tid ~loc ~write
  else begin
    let sh = t.shard_arr.(loc / t.width) in
    Shard.push sh ~loc ~write ~tid:t.cur_tid ~seq:t.seq;
    if Shard.is_full sh then flush t
  end;
  t.seq <- t.seq + 1;
  t.p_accesses <- t.p_accesses + 1

let skip_locks t s =
  let k = V.get s t.pos in
  if k < 0 || k > Codec.max_locks_held then
    corrupt_here t "implausible lock count %d" k;
  for _ = 1 to k do
    ignore (V.get s t.pos)
  done

(* Decode body frames until PROG_END.  Tail-recursive: the OCaml
   compiler turns this into a loop, so a million-frame program costs
   no stack and no allocation. *)
let rec body t s =
  t.frame <- t.frame + 1;
  let tag = V.get s t.pos in
  if tag = Codec.tag_read then begin
    t.p_events <- t.p_events + 1;
    let loc = V.get s t.pos in
    record_access t ~loc ~write:false;
    body t s
  end
  else if tag = Codec.tag_write then begin
    t.p_events <- t.p_events + 1;
    let loc = V.get s t.pos in
    record_access t ~loc ~write:true;
    body t s
  end
  else if tag = Codec.tag_thread then begin
    t.p_events <- t.p_events + 1;
    let tid = V.get s t.pos in
    let _cost = V.get s t.pos in
    if tid < 0 || tid >= t.p_threads then
      corrupt_here t "thread id %d out of range (header declared %d)" tid t.p_threads;
    if Sp_stream.ran t.sp tid then corrupt_here t "duplicate THREAD frame for tid %d" tid;
    charge t 2;
    (* This pins the thread's element.  Shard drains read the pin only
       while this domain waits in [flush]. *)
    Sp_stream.thread t.sp tid;
    t.cur_tid <- tid;
    (match t.clock with Some c -> Stream_clock.thread c tid | None -> ());
    body t s
  end
  else if tag = Codec.tag_spawn then begin
    t.p_events <- t.p_events + 1;
    charge t 4;
    Sp_stream.spawn t.sp;
    t.cur_tid <- -1;
    (match t.clock with Some c -> Stream_clock.spawn c | None -> ());
    body t s
  end
  else if tag = Codec.tag_return then begin
    t.p_events <- t.p_events + 1;
    if Sp_stream.depth t.sp <= 1 then corrupt_here t "RETURN without a matching SPAWN";
    Sp_stream.return_ t.sp;
    t.cur_tid <- -1;
    (match t.clock with Some c -> Stream_clock.return_ c | None -> ());
    body t s
  end
  else if tag = Codec.tag_sync then begin
    t.p_events <- t.p_events + 1;
    charge t 2;
    Sp_stream.sync t.sp;
    t.cur_tid <- -1;
    (match t.clock with Some c -> Stream_clock.sync c | None -> ());
    body t s
  end
  else if tag = Codec.tag_read_locked || tag = Codec.tag_write_locked then begin
    t.p_events <- t.p_events + 1;
    let loc = V.get s t.pos in
    skip_locks t s;
    (* Locks are carried for future lock-aware modes; the determinacy
       protocol checks the access like any other. *)
    record_access t ~loc ~write:(tag = Codec.tag_write_locked);
    body t s
  end
  else if tag = Codec.tag_prog_end then begin
    let claimed = V.get s t.pos in
    if claimed <> t.p_events then
      corrupt_here t "event-count mismatch (trailer says %d, decoded %d)" claimed
        t.p_events;
    if Sp_stream.depth t.sp <> 1 then
      corrupt_here t "PROG_END with %d unreturned spawn frame(s)" (Sp_stream.depth t.sp - 1);
    if t.next <> t.nodes_bound then
      corrupt_here t "node-budget mismatch (header declared %d, walk used %d)"
        t.nodes_bound t.next;
    if t.nshards > 1 then flush t
  end
  else corrupt_here t "unknown frame tag %d" tag

(* --- Per-program setup and teardown ------------------------------- *)

let start_program t s =
  let threads = V.get s t.pos in
  let locs = V.get s t.pos in
  let nodes = V.get s t.pos in
  (* The thread table and shadow memory are sized from these hints, so
     a corrupted header must not be able to demand gigabytes the body
     can never justify: every thread costs a >= 3-byte THREAD frame,
     and shadow memory gets a 64x sparseness allowance (locations are
     declared as [1 + max_loc], so a short trace may legitimately
     address a moderately larger space than it fills).  The node budget
     sizes nothing; it is part of the format, checked here against the
     body's size (3 + 2*threads + 4*spawns + 2*syncs <= 3 + 4x the body
     bytes) and by [charge] against the walk. *)
  let remaining = String.length s - !(t.pos) in
  if threads < 0 || threads > Codec.max_threads || threads > remaining then
    corrupt_here t "implausible thread count %d" threads;
  if locs < 0 || locs > Codec.max_locs || locs > 64 * remaining then
    corrupt_here t "implausible location count %d" locs;
  if nodes < 1 || nodes > Codec.max_nodes || nodes > (4 * remaining) + 3 then
    corrupt_here t "implausible node budget %d" nodes;
  t.p_threads <- threads;
  t.p_locs <- locs;
  t.nodes_bound <- nodes;
  Sp_stream.reset t.sp ~threads;
  if t.nshards = 1 then begin
    let locs = max 1 locs in
    if locs > t.det_locs then begin
      t.det <- D.create ~locs ~precedes:t.precedes ();
      t.det_locs <- locs
    end
    else
      (* [check_access] rejects every location past [locs], so the
         cells beyond it that a wider program left are never read. *)
      D.reset_prefix t.det ~upto:locs
  end
  else begin
    let width = max 1 ((locs + t.nshards - 1) / t.nshards) in
    t.width <- width;
    Array.iteri
      (fun i sh -> Shard.prepare sh ~base:(i * width) ~width ~batch:t.batch)
      t.shard_arr
  end;
  t.next <- 1;
  t.cur_tid <- -1;
  t.p_events <- 0;
  t.p_accesses <- 0;
  (match t.clock with Some c -> Stream_clock.reset c ~threads | None -> ());
  (* The main procedure's first sync block. *)
  charge t 2

(* Races/queries for the just-finished program, without materializing
   lists (throughput and gate paths). *)
let program_race_count t =
  if t.nshards = 1 then D.race_count t.det
  else Array.fold_left (fun acc sh -> acc + D.race_count (Shard.detector sh)) 0 t.shard_arr

let program_query_count t =
  if t.nshards = 1 then D.query_count t.det
  else
    Array.fold_left (fun acc sh -> acc + D.query_count (Shard.detector sh)) 0 t.shard_arr

(* Merge the per-shard race lists back into serial detection order:
   each report carries the sequence number of the access that exposed
   it; one access lives in exactly one shard, so ordering by
   (sequence, within-shard rank) is total and equals the order the
   single-shard detector reports. *)
let merged_races t =
  if t.nshards = 1 then D.races t.det
  else begin
    let tagged = ref [] in
    Array.iter
      (fun sh ->
        let base = Shard.base sh in
        let seqs = Shard.race_seqs sh in
        List.iteri
          (fun i (r : D.race) ->
            tagged :=
              (Spr_util.Vec.get seqs i, i, { r with D.loc = r.D.loc + base }) :: !tagged)
          (D.races (Shard.detector sh)))
      t.shard_arr;
    List.sort
      (fun (s1, i1, _) (s2, i2, _) ->
        if s1 <> s2 then Int.compare s1 s2 else Int.compare i1 i2)
      !tagged
    |> List.map (fun (_, _, r) -> r)
  end

(* Shard [i] owns [\[i * width, (i + 1) * width)], so the shards'
   sorted location lists, shifted by their bases, concatenate in
   ascending order with no merge. *)
let racy_locs t =
  if t.nshards = 1 then D.racy_locs t.det
  else
    List.concat_map
      (fun sh -> List.map (( + ) (Shard.base sh)) (D.racy_locs (Shard.detector sh)))
      (Array.to_list t.shard_arr)

let finish_program t ~collect =
  let races_n = program_race_count t in
  let queries = program_query_count t in
  t.a_programs <- t.a_programs + 1;
  t.a_events <- t.a_events + t.p_events;
  t.a_accesses <- t.a_accesses + t.p_accesses;
  t.a_races <- t.a_races + races_n;
  t.a_queries <- t.a_queries + queries;
  if t.nshards > 1 then
    Array.iteri
      (fun i sh -> t.shard_acc.(i) <- t.shard_acc.(i) + Shard.accesses_drained sh)
      t.shard_arr;
  if collect then begin
    let races = merged_races t in
    let racy_locs = racy_locs t in
    t.acc <-
      {
        index = t.index;
        threads = t.p_threads;
        accesses = t.p_accesses;
        events = t.p_events;
        races;
        racy_locs;
        sp_queries = queries;
      }
      :: t.acc
  end;
  t.index <- t.index + 1

(* Top-level trace loop: one PROG..PROG_END per iteration. *)
let rec programs t s ~collect =
  if !(t.pos) < String.length s then begin
    t.frame <- t.frame + 1;
    let tag = V.get s t.pos in
    if tag <> Codec.tag_prog then
      corrupt_here t "expected a PROG frame, got tag %d" tag;
    start_program t s;
    body t s;
    finish_program t ~collect;
    programs t s ~collect
  end

let ingest t s ~collect =
  t.acc <- [];
  t.pos := 0;
  t.frame <- 0;
  t.index <- 0;
  Codec.check_header s t.pos;
  try programs t s ~collect
  with V.Truncated ->
    Codec.corrupt ~offset:(String.length s) ~frame:t.frame
      "truncated varint (unexpected end of trace)"

let drive t s = ingest t s ~collect:false

let publish t ~programs0 ~events0 ~accesses0 ~races0 ~queries0 ~flushes0 ~shard0 =
  Sharded.add t.c_programs (t.a_programs - programs0);
  Sharded.add t.c_events (t.a_events - events0);
  Sharded.add t.c_accesses (t.a_accesses - accesses0);
  Sharded.add t.c_races (t.a_races - races0);
  Sharded.add t.c_queries (t.a_queries - queries0);
  Sharded.add t.c_flushes (t.a_flushes - flushes0);
  Array.iteri (fun i c -> Sharded.add c (t.shard_acc.(i) - shard0.(i))) t.c_shard

let run_string ?(collect = true) t s =
  let programs0 = t.a_programs
  and events0 = t.a_events
  and accesses0 = t.a_accesses
  and races0 = t.a_races
  and queries0 = t.a_queries
  and flushes0 = t.a_flushes in
  let shard0 = Array.copy t.shard_acc in
  let out =
    try
      ingest t s ~collect;
      Ok (List.rev t.acc)
    with Codec.Corrupt e -> Error e
  in
  publish t ~programs0 ~events0 ~accesses0 ~races0 ~queries0 ~flushes0 ~shard0;
  out

let run_file ?collect t path =
  match Codec.read_file path with
  | s -> run_string ?collect t s
  | exception Sys_error msg -> Error { Codec.offset = 0; frame = 0; msg }

let stats t =
  {
    programs = t.a_programs;
    events = t.a_events;
    accesses = t.a_accesses;
    races = t.a_races;
    sp_queries = t.a_queries;
    flushes = t.a_flushes;
  }

(* The traced replay.  Each workload's traces are walked one program at
   a time through the layers' public functions, in four phases, each a
   child span of the program's span (the program index is the request
   id):

   1. codec: decode every frame with [Varint.get] into our own arrays;
   2. sp_order: drive [Sp_order_fused.reset]/[enter] with the node
      numbering [Server] uses;
   3. detector: run the accesses through [Detector.access_raw] (or
      [Shard.push]/[Shard.Pool.run] when sharded), with a [precedes]
      that logs each query;
   4. sp_query: replay the logged queries through [precedes_id].

   Running the phases apart is sound for the reason [Shard] is: SP
   precedence between nodes already discovered never changes as the
   walk continues, so a program's whole SP structure can be built
   before its first access is checked.  [inproc] programs also get
   [Drivers.Fused] create/run/result spans.  Spans stay in memory until
   the benchmark writes them out. *)

module V = Spr_util.Varint
module Codec = Spr_ingest.Codec
module Shard = Spr_ingest.Shard
module Sp = Spr_core.Sp_order_fused
module Om = Spr_om.Om_fused
module D = Spr_race.Detector
module Drivers = Spr_race.Drivers

let now = Measure.now

(* Growable int buffer; monomorphic, so stores are plain writes. *)
type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 1024 0; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

type span = { name : string; req : int; dom : int; t0 : float; t1 : float }

(* Sums over one replay pass; the per-layer metrics are ratios of
   these.  Times are in seconds. *)
type pass = {
  mutable programs : int;
  mutable frames : int;
  mutable bytes : int;
  mutable enters : int;
  mutable relabels : int;
  mutable moved : int;
  mutable accesses : int;
  mutable queries : int;  (** as the detector counts them *)
  mutable calls : int;  (** [precedes] calls logged and replayed *)
  mutable races : int;
  mutable flushes : int;
  shard_accesses : int array;
  mutable programs_s : float;  (** program spans *)
  mutable codec_s : float;
  mutable order_s : float;  (** enters only *)
  mutable order_reset_s : float;
  mutable detector_s : float;  (** accesses only; sharded: the whole hand-off *)
  mutable detector_reset_s : float;
  mutable query_s : float;
  mutable flush_s : float;
  mutable drain_s : float;  (** summed over shards *)
  mutable wait_s : float;  (** the coordinator, waiting for other shards' drains *)
  mutable create_s : float;
  mutable run_s : float;
  mutable result_s : float;
}

type t = {
  sp : Sp.t;
  leaf : int array ref;  (* tid -> leaf node id *)
  tags : ints;
  args : ints;  (* loc for an access, tid for THREAD *)
  mutable pctx : int array;
  mutable resume : int array;
  mutable depth : int;
  mutable ictx : int;
  mutable next : int;
  mutable enters : int;
  log : ints;  (* serial query log: pairs of node ids *)
  precedes : executed:int -> current:int -> bool;
  mutable det : D.t;
  mutable det_locs : int;
  shards : Shard.t array;  (* empty unless sharded *)
  logs : ints array;  (* one query log per shard, written only by its drain *)
  pool : Shard.Pool.pool option;
  drains : (unit -> unit) array;
  drain_t : float array;  (* per shard: start and end of its last drain *)
  spans : span Spr_util.Vec.t;
}

exception Infidelity of string

let logging sp leaf log ~executed ~current =
  let a = !leaf.(executed) and b = !leaf.(current) in
  push log a;
  push log b;
  Sp.precedes_id sp a b

let create ~shards =
  let sp = Sp.create_raw () in
  let leaf = ref (Array.make 64 (-1)) in
  let log = ints () in
  let logs = Array.init (if shards > 1 then shards else 0) (fun _ -> ints ()) in
  let shard_arr =
    Array.mapi (fun id l -> Shard.create ~id ~precedes:(logging sp leaf l) ()) logs
  in
  let drain_t = Array.make (2 * Array.length shard_arr) 0.0 in
  let precedes = logging sp leaf log in
  {
    sp;
    leaf;
    tags = ints ();
    args = ints ();
    pctx = Array.make 64 0;
    resume = Array.make 64 0;
    depth = 0;
    ictx = 0;
    next = 0;
    enters = 0;
    log;
    precedes;
    det = D.create ~locs:1 ~precedes ();
    det_locs = 1;
    shards = shard_arr;
    logs;
    pool = (if shards > 1 then Some (Shard.Pool.create ~workers:(shards - 1)) else None);
    drains =
      Array.mapi
        (fun i sh () ->
          let t0 = now () in
          Shard.drain sh;
          drain_t.(2 * i) <- t0;
          drain_t.((2 * i) + 1) <- now ())
        shard_arr;
    drain_t;
    spans = Spr_util.Vec.create ();
  }

let close t = Option.iter Shard.Pool.shutdown t.pool

let span t name ~req ?(dom = 0) t0 t1 = Spr_util.Vec.push t.spans { name; req; dom; t0; t1 }

(* --- 1. codec ------------------------------------------------------ *)

(* One program, from its PROG frame to its PROG_END trailer; returns
   the header's thread, location and node counts. *)
let decode t s pos =
  if V.get s pos <> Codec.tag_prog then raise (Infidelity "expected a PROG frame");
  let threads = V.get s pos in
  let locs = V.get s pos in
  let nodes = V.get s pos in
  t.tags.n <- 0;
  t.args.n <- 0;
  let rec frames () =
    let tag = V.get s pos in
    if tag = Codec.tag_prog_end then ignore (V.get s pos)
    else begin
      if tag = Codec.tag_read || tag = Codec.tag_write then begin
        push t.tags tag;
        push t.args (V.get s pos)
      end
      else if tag = Codec.tag_thread then begin
        push t.tags tag;
        push t.args (V.get s pos);
        ignore (V.get s pos)
      end
      else if tag = Codec.tag_read_locked || tag = Codec.tag_write_locked then begin
        push t.tags (if tag = Codec.tag_read_locked then Codec.tag_read else Codec.tag_write);
        push t.args (V.get s pos);
        for _ = 1 to V.get s pos do
          ignore (V.get s pos)
        done
      end
      else begin
        push t.tags tag;
        push t.args 0
      end;
      frames ()
    end
  in
  frames ();
  (threads, locs, nodes)

(* --- 2. sp_order --------------------------------------------------- *)

(* Node numbering as in [Server]: two fresh ids per enter, a new
   S-split under the procedure context at every SPAWN and SYNC. *)
let enter t ~parent ~parallel =
  let n = t.next in
  t.next <- n + 2;
  t.enters <- t.enters + 1;
  Sp.enter t.sp ~parent ~left:n ~right:(n + 1) ~parallel;
  n

let block_split t =
  let b = enter t ~parent:t.pctx.(t.depth - 1) ~parallel:false in
  t.pctx.(t.depth - 1) <- b + 1;
  t.ictx <- b

let build t ~threads ~nodes =
  if threads > Array.length !(t.leaf) then t.leaf := Array.make (2 * threads) (-1);
  t.depth <- 1;
  t.pctx.(0) <- 0;
  t.next <- 1;
  t.enters <- 0;
  block_split t;
  for i = 0 to t.tags.n - 1 do
    let tag = t.tags.a.(i) in
    if tag = Codec.tag_thread then begin
      let n = enter t ~parent:t.ictx ~parallel:false in
      !(t.leaf).(t.args.a.(i)) <- n;
      t.ictx <- n + 1
    end
    else if tag = Codec.tag_spawn then begin
      let n = enter t ~parent:t.ictx ~parallel:true in
      if t.depth = Array.length t.pctx then begin
        t.pctx <- Array.append t.pctx t.pctx;
        t.resume <- Array.append t.resume t.resume
      end;
      t.pctx.(t.depth) <- n;
      t.resume.(t.depth) <- n + 1;
      t.depth <- t.depth + 1;
      block_split t
    end
    else if tag = Codec.tag_return then begin
      t.depth <- t.depth - 1;
      t.ictx <- t.resume.(t.depth)
    end
    else if tag = Codec.tag_sync then block_split t
  done;
  if t.next <> nodes then
    raise (Infidelity (Printf.sprintf "walk used %d node ids, header declared %d" t.next nodes))

(* --- 3. detector --------------------------------------------------- *)

let detect t =
  let cur = ref (-1) and accesses = ref 0 in
  for i = 0 to t.tags.n - 1 do
    let tag = t.tags.a.(i) in
    if tag = Codec.tag_thread then cur := t.args.a.(i)
    else if tag = Codec.tag_read || tag = Codec.tag_write then begin
      D.access_raw t.det ~current:!cur ~loc:t.args.a.(i) ~write:(tag = Codec.tag_write);
      incr accesses
    end
  done;
  !accesses

let flush t p ~req =
  let t0 = now () in
  Option.iter (fun pool -> Shard.Pool.run pool t.drains) t.pool;
  let t1 = now () in
  p.flushes <- p.flushes + 1;
  p.flush_s <- p.flush_s +. (t1 -. t0);
  p.wait_s <- p.wait_s +. (t1 -. t0) -. (t.drain_t.(1) -. t.drain_t.(0));
  span t "shard.flush" ~req t0 t1;
  Array.iteri
    (fun i _ ->
      let d0 = t.drain_t.(2 * i) and d1 = t.drain_t.((2 * i) + 1) in
      p.drain_s <- p.drain_s +. (d1 -. d0);
      span t "shard.drain" ~req ~dom:i d0 d1)
    t.shards

(* [Server]'s sharded path: batch each access into its address range's
   shard, drain every shard when one fills, and once more at the end. *)
let detect_sharded t p ~width ~req =
  let cur = ref (-1) and seq = ref 0 in
  for i = 0 to t.tags.n - 1 do
    let tag = t.tags.a.(i) in
    if tag = Codec.tag_thread then cur := t.args.a.(i)
    else if tag = Codec.tag_read || tag = Codec.tag_write then begin
      let loc = t.args.a.(i) in
      let sh = t.shards.(loc / width) in
      Shard.push sh ~loc ~write:(tag = Codec.tag_write) ~tid:!cur ~seq:!seq;
      incr seq;
      if Shard.is_full sh then flush t p ~req
    end
  done;
  flush t p ~req;
  !seq

(* --- 4. sp_query --------------------------------------------------- *)

let replay_queries t log =
  let yes = ref 0 in
  for i = 0 to (log.n / 2) - 1 do
    if Sp.precedes_id t.sp log.a.(2 * i) log.a.((2 * i) + 1) then incr yes
  done;
  ignore (Sys.opaque_identity !yes);
  log.n / 2

(* --- One program ---------------------------------------------------- *)

let program t p s pos ~req ~(want : Drivers.serial_result) ~inproc =
  let start = !pos in
  let t0 = now () in
  let threads, locs, nodes = decode t s pos in
  let t1 = now () in
  Sp.reset t.sp ~nodes ~root:0;
  let t2 = now () in
  build t ~threads ~nodes;
  let t3 = now () in
  let locs = max 1 locs in
  let nshards = Array.length t.shards in
  let sharded = nshards > 0 in
  (* [Server]'s partition: equal address ranges, its default batch. *)
  let width = if sharded then max 1 ((locs + nshards - 1) / nshards) else locs in
  if sharded then
    Array.iteri (fun i sh -> Shard.prepare sh ~base:(i * width) ~width ~batch:8192) t.shards
  else if locs > t.det_locs then begin
    t.det <- D.create ~locs ~precedes:t.precedes ();
    t.det_locs <- locs
  end
  else D.reset t.det;
  Array.iter (fun l -> l.n <- 0) t.logs;
  t.log.n <- 0;
  let t4 = now () in
  let accesses = if sharded then detect_sharded t p ~width ~req else detect t in
  let t5 = now () in
  let calls =
    Array.fold_left (fun acc l -> acc + replay_queries t l) (replay_queries t t.log) t.logs
  in
  let t6 = now () in
  let dets = if sharded then Array.map Shard.detector t.shards else [| t.det |] in
  let races = Array.fold_left (fun acc d -> acc + D.race_count d) 0 dets in
  let queries = Array.fold_left (fun acc d -> acc + D.query_count d) 0 dets in
  let check what got expect =
    if got <> expect then
      raise
        (Infidelity
           (Printf.sprintf "program %d: replay %s %d, detector reported %d" req what got expect))
  in
  check "races" races (List.length want.races);
  check "sp_queries" queries want.sp_queries;
  let eng = Om.stats_eng (Sp.om t.sp) and heb = Om.stats_heb (Sp.om t.sp) in
  p.programs <- p.programs + 1;
  p.frames <- p.frames + t.tags.n;
  p.bytes <- p.bytes + (!pos - start);
  p.enters <- p.enters + t.enters;
  p.relabels <- p.relabels + eng.relabel_passes + heb.relabel_passes;
  p.moved <- p.moved + eng.items_moved + heb.items_moved;
  p.accesses <- p.accesses + accesses;
  p.queries <- p.queries + queries;
  p.calls <- p.calls + calls;
  p.races <- p.races + races;
  Array.iteri
    (fun i sh -> p.shard_accesses.(i) <- p.shard_accesses.(i) + Shard.accesses_drained sh)
    t.shards;
  p.codec_s <- p.codec_s +. (t1 -. t0);
  p.order_reset_s <- p.order_reset_s +. (t2 -. t1);
  p.order_s <- p.order_s +. (t3 -. t2);
  p.detector_reset_s <- p.detector_reset_s +. (t4 -. t3);
  p.detector_s <- p.detector_s +. (t5 -. t4);
  p.query_s <- p.query_s +. (t6 -. t5);
  span t "codec" ~req t0 t1;
  span t "sp_order" ~req t1 t3;
  span t "sp_order.reset" ~req t1 t2;
  span t "detector" ~req t3 t5;
  span t "detector.reset" ~req t3 t4;
  span t "sp_query" ~req t5 t6;
  let t_end =
    match inproc with
    | None -> t6
    | Some prog ->
        let f = Drivers.Fused.create prog in
        let t7 = now () in
        Drivers.Fused.run f;
        let t8 = now () in
        let r = Drivers.Fused.result f in
        let t9 = now () in
        check "drivers races" (List.length r.races) (List.length want.races);
        check "drivers sp_queries" r.sp_queries want.sp_queries;
        p.create_s <- p.create_s +. (t7 -. t6);
        p.run_s <- p.run_s +. (t8 -. t7);
        p.result_s <- p.result_s +. (t9 -. t8);
        span t "drivers.create" ~req t6 t7;
        span t "drivers.run" ~req t7 t8;
        span t "drivers.result" ~req t8 t9;
        t9
  in
  p.programs_s <- p.programs_s +. (t_end -. t0);
  span t "program" ~req t0 t_end

(* One replay pass over every program of the workload.  [inproc] also
   runs [Drivers.Fused] on each program in memory. *)
let pass t (input : Workload.input) ~inproc =
  let p =
    {
      programs = 0;
      frames = 0;
      bytes = 0;
      enters = 0;
      relabels = 0;
      moved = 0;
      accesses = 0;
      queries = 0;
      calls = 0;
      races = 0;
      flushes = 0;
      shard_accesses = Array.make (Array.length t.shards) 0;
      programs_s = 0.0;
      codec_s = 0.0;
      order_s = 0.0;
      order_reset_s = 0.0;
      detector_s = 0.0;
      detector_reset_s = 0.0;
      query_s = 0.0;
      flush_s = 0.0;
      drain_s = 0.0;
      wait_s = 0.0;
      create_s = 0.0;
      run_s = 0.0;
      result_s = 0.0;
    }
  in
  Array.iteri
    (fun i s ->
      let pos = ref 0 in
      Codec.check_header s pos;
      program t p s pos ~req:i ~want:input.reference.(i)
        ~inproc:(if inproc then Some input.programs.(i) else None))
    input.traces;
  p

(* Chrome trace_event form, one process per workload and one thread
   per domain. *)
let chrome t ~origin ~pid ~workload =
  let module J = Spr_obs.Json in
  let us x = J.Float ((x -. origin) *. 1e6) in
  List.map
    (fun s ->
      J.Obj
        [
          ("name", J.String s.name);
          ("cat", J.String workload);
          ("ph", J.String "X");
          ("ts", us s.t0);
          ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
          ("pid", J.Int pid);
          ("tid", J.Int s.dom);
          ("args", J.Obj [ ("request", J.Int s.req) ]);
        ])
    (Spr_util.Vec.to_list t.spans)

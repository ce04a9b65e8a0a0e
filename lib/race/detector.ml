open Spr_prog

type race = {
  loc : int;
  earlier : int;
  later : int;
  earlier_write : bool;
  later_write : bool;
}

(* Shadow slots are packed int arrays — a slot holds the recorded tid
   or [empty].  Boxed [int option] cells would allocate a [Some] block
   per assignment, which is exactly the traffic the zero-allocation
   end-to-end pipeline exists to remove; tids are >= 0 so the sentinel
   is unambiguous. *)
let empty = -1

type t = {
  writer : int array;
  reader : int array;  (* first reader slot *)
  reader2 : int array;  (* second reader slot *)
  races : race Spr_util.Vec.t;
  marks : Bytes.t;  (* per location: '\001' only inside [racy_locs] *)
  seen : int Spr_util.Vec.t;  (* [racy_locs]'s first-seen locations, reused *)
  precedes : executed:int -> current:int -> bool;
  mutable queries : int;
  (* Shadow reference counts, for the release protocol. *)
  refs : (int, int) Hashtbl.t;
  on_unreferenced : (int -> unit) option;
  sink : Spr_obs.Sink.t;
}

let create ?on_unreferenced ?(sink = Spr_obs.Sink.null) ~locs ~precedes () =
  {
    writer = Array.make (max 1 locs) empty;
    reader = Array.make (max 1 locs) empty;
    reader2 = Array.make (max 1 locs) empty;
    races = Spr_util.Vec.create ();
    marks = Bytes.make (max 1 locs) '\000';
    seen = Spr_util.Vec.create ();
    precedes;
    queries = 0;
    refs = Hashtbl.create 64;
    on_unreferenced;
    sink;
  }

(* Rewind to the create-time state without allocating (the Hashtbl is
   only touched when the release protocol is armed — [Hashtbl.reset]
   itself allocates a fresh bucket array).  Only the [upto] prefix of
   the shadow is cleared: a resident caller that rejects every
   location past it never reads the stale cells beyond.  [upto] is a
   plain label, not an optional argument: without flambda a caller
   boxes an optional argument in a fresh [Some] block on every call. *)
let reset_prefix t ~upto =
  let n = min upto (Array.length t.writer) in
  Array.fill t.writer 0 n empty;
  Array.fill t.reader 0 n empty;
  Array.fill t.reader2 0 n empty;
  Spr_util.Vec.clear t.races;
  t.queries <- 0;
  if Hashtbl.length t.refs > 0 then Hashtbl.reset t.refs

let reset t = reset_prefix t ~upto:(Array.length t.writer)

(* Drop one reference to [o]; notify when it leaves shadow memory. *)
let unref t o =
  match t.on_unreferenced with
  | None -> ()
  | Some notify ->
      let c = Hashtbl.find t.refs o - 1 in
      if c = 0 then begin
        Hashtbl.remove t.refs o;
        notify o
      end
      else Hashtbl.replace t.refs o c

(* Replace the occupant of a shadow slot, maintaining reference counts
   and notifying when a thread drops out of shadow memory entirely. *)
let assign t slot loc tid =
  let old = slot.(loc) in
  if old <> tid then begin
    (match t.on_unreferenced with
    | None -> ()
    | Some _ ->
        Hashtbl.replace t.refs tid (1 + Option.value ~default:0 (Hashtbl.find_opt t.refs tid)));
    slot.(loc) <- tid;
    if old <> empty then unref t old
  end

let clear t slot loc =
  let o = slot.(loc) in
  if o <> empty then begin
    slot.(loc) <- empty;
    unref t o
  end

let report t loc earlier later earlier_write later_write =
  Spr_util.Vec.push t.races { loc; earlier; later; earlier_write; later_write }

(* "recorded thread e is concurrent with u": e was seen before, so if
   it does not precede u it runs logically in parallel with u. *)
let concurrent t e ~current =
  t.queries <- t.queries + 1;
  e <> current && not (t.precedes ~executed:e ~current)

(* Reader-subsumption check, hoisted to the top level: a local helper
   closing over [t]/[current] would allocate on every read access. *)
let subsumed t r ~current =
  r = current
  || begin
       t.queries <- t.queries + 1;
       t.precedes ~executed:r ~current
     end

let access_raw t ~current ~loc ~write =
  if write then begin
    let w = t.writer.(loc) in
    if w <> empty && concurrent t w ~current then report t loc w current true true;
    let r = t.reader.(loc) in
    if r <> empty && concurrent t r ~current then report t loc r current false true;
    let r2 = t.reader2.(loc) in
    if r2 <> empty && concurrent t r2 ~current then report t loc r2 current false true;
    assign t t.writer loc current
  end
  else begin
    let w = t.writer.(loc) in
    if w <> empty && concurrent t w ~current then report t loc w current true false;
    (* Shadow-reader policy.  A recorded reader that precedes [current]
       is subsumed by it: any later access parallel to that reader would
       be parallel to [current] too (precedence is transitive and
       [current] cannot precede a thread that has already run).  So
       subsumed readers are replaced and up to two pairwise-concurrent
       readers are kept.  Under a serial (left-to-right) execution one
       slot already suffices (Feng–Leiserson); the second slot covers
       the out-of-order observation orders a parallel schedule produces.
       With three or more pairwise-parallel recorded readers the shadow
       is still an approximation — see the .mli. *)
    let r1 = t.reader.(loc) in
    let s1 = r1 = empty || subsumed t r1 ~current in
    if s1 then begin
      assign t t.reader loc current;
      let r2 = t.reader2.(loc) in
      if r2 = empty || subsumed t r2 ~current then clear t t.reader2 loc
    end
    else begin
      let r2 = t.reader2.(loc) in
      if r2 = empty || subsumed t r2 ~current then assign t t.reader2 loc current
    end
  end

let access t ~current (a : Fj_program.access) =
  access_raw t ~current ~loc:a.loc ~write:a.write

let run_thread t (u : Fj_program.thread) =
  let before = t.queries in
  (match Spr_obs.Sink.metrics t.sink with
  | None -> Array.iter (fun a -> access t ~current:u.Fj_program.tid a) u.Fj_program.accesses
  | Some m ->
      let h = Spr_obs.Metrics.histogram m "race/queries_per_access" in
      Array.iter
        (fun a ->
          let q0 = t.queries in
          access t ~current:u.Fj_program.tid a;
          Spr_obs.Metrics.observe h (t.queries - q0))
        u.Fj_program.accesses;
      Spr_obs.Metrics.add (Spr_obs.Metrics.counter m "race/queries") (t.queries - before);
      Spr_obs.Metrics.add
        (Spr_obs.Metrics.counter m "race/accesses")
        (Array.length u.Fj_program.accesses));
  (* The event record would be constructed (allocated) before [emit]
     could ignore it, so skip explicitly when nothing is listening. *)
  if (not (Spr_obs.Sink.is_null t.sink)) && Array.length u.Fj_program.accesses > 0 then
    Spr_obs.Sink.emit t.sink
      (Spr_obs.Trace.Race_query { tid = u.Fj_program.tid; queries = t.queries - before })

let races t = Spr_util.Vec.to_list t.races

let race_count t = Spr_util.Vec.length t.races

(* One pass over the races marks each location and keeps the first
   sighting of each; only those d locations are sorted, listed and
   unmarked, so the cost is O(races + d log d) however wide the
   shadow is. *)
let racy_locs t =
  for i = 0 to Spr_util.Vec.length t.races - 1 do
    let loc = (Spr_util.Vec.get t.races i).loc in
    if Bytes.get t.marks loc = '\000' then begin
      Bytes.set t.marks loc '\001';
      Spr_util.Vec.push t.seen loc
    end
  done;
  let locs = Spr_util.Vec.to_array t.seen in
  Spr_util.Vec.clear t.seen;
  Array.iter (fun loc -> Bytes.set t.marks loc '\000') locs;
  Array.sort Int.compare locs;
  Array.fold_right List.cons locs []

let query_count t = t.queries

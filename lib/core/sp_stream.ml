module Om = Spr_om.Om_fused

type t = {
  om : Om.t;
  handles : Om.elt array ref;  (* tid -> the thread's element, -1 = not yet run *)
  precedes : executed:int -> current:int -> bool;
  mutable resume : Om.elt array;  (* per call frame: the caller's element after RETURN *)
  mutable brest : Om.elt array;  (* per call frame: block continuation, -1 before its first SPAWN *)
  mutable depth : int;
  mutable ictx : Om.elt;  (* the rest of the current block goes right after it *)
  mutable occupied : bool;  (* [ictx] is the last thread's own element *)
}

let create () =
  let om = Om.create () in
  let handles = ref (Array.make 64 (-1)) in
  (* The running thread is the pinned [current], so a query loads only
     [executed]'s labels. *)
  let precedes ~executed ~current =
    let h = !handles in
    Om.sp_precedes om h.(executed) h.(current)
  in
  {
    om;
    handles;
    precedes;
    resume = Array.make 64 0;
    brest = Array.make 64 (-1);
    depth = 1;
    ictx = Om.base om;
    occupied = false;
  }

let reset t ~threads =
  Om.reset t.om;
  if threads > Array.length !(t.handles) then t.handles := Array.make (2 * threads) (-1)
  else Array.fill !(t.handles) 0 threads (-1);
  t.depth <- 1;
  t.brest.(0) <- -1;
  t.ictx <- Om.base t.om;
  t.occupied <- false

let ensure_frames t depth =
  if depth >= Array.length t.resume then begin
    let cap = max 64 (2 * (depth + 1)) in
    let nr = Array.make cap 0 and nb = Array.make cap (-1) in
    Array.blit t.resume 0 nr 0 (Array.length t.resume);
    Array.blit t.brest 0 nb 0 (Array.length t.brest);
    t.resume <- nr;
    t.brest <- nb
  end

(* The walk operations are [@inline]: both callers run one per
   structural event, and an out-of-line call each cost the server's
   frame loop about 10 % on a fork-heavy trace. *)
let[@inline] thread t tid =
  let e = if t.occupied then Om.insert_after t.om t.ictx else t.ictx in
  !(t.handles).(tid) <- e;
  (* The OM holds still until the next structural event, so every query
     this thread's accesses make can reuse its labels. *)
  Om.pin t.om e;
  t.ictx <- e;
  t.occupied <- true

let[@inline] spawn t =
  let f = t.depth - 1 in
  if t.brest.(f) < 0 then t.brest.(f) <- Om.insert_after t.om t.ictx;
  let lr = Om.insert_children_packed t.om t.ictx ~parallel:true in
  ensure_frames t t.depth;
  t.resume.(t.depth) <- Om.packed_right lr;
  t.brest.(t.depth) <- -1;
  t.depth <- t.depth + 1;
  t.ictx <- Om.packed_left lr;
  t.occupied <- false

let[@inline] return_ t =
  t.depth <- t.depth - 1;
  t.ictx <- t.resume.(t.depth);
  t.occupied <- false

let[@inline] sync t =
  let f = t.depth - 1 in
  let b = t.brest.(f) in
  if b >= 0 then begin
    t.ictx <- b;
    t.occupied <- false;
    t.brest.(f) <- -1
  end

let depth t = t.depth

let[@inline] ran t tid = !(t.handles).(tid) >= 0

let precedes t = t.precedes

let om t = t.om

(* A vector clock over the `.spr-trace` frame stream.

   The ingest server normally answers SP queries from the fused
   English/Hebrew order; this oracle skips the order entirely and
   tracks happens-before directly on the fork-join frame structure:

   - SPAWN   saves a snapshot of the active clock (the continuation's
             view) and lets the child run on the active clock;
   - RETURN  folds the child's leftover pending joins into its final
             clock, accumulates that final into the parent's pending
             set, and restores the continuation snapshot;
   - SYNC    joins the accumulated pending clocks of the current proc
             into the active clock (Cilk semantics: sync joins every
             spawn of the preceding block);
   - THREAD  ticks a fresh slot for the executing thread and records
             its epoch.

   Only threads own slots, so the vector width is at most the thread
   count.  Verdict equivalence with the SP-order path is checked by
   the cram tests and the ingest tests. *)

type t = {
  eng : Vec_clock.t;
  mutable cur : Vec_clock.clock;
  mutable depth : int;
  mutable snaps : Vec_clock.clock option array;  (* by parent depth *)
  mutable pending : Vec_clock.clock option array;  (* by proc depth *)
  mutable slot_of : int array;  (* tid -> slot, -1 until it runs *)
  mutable epoch_of : int array;
  mutable next_slot : int;
}

let create () =
  let eng = Vec_clock.create () in
  {
    eng;
    cur = Vec_clock.alloc eng;
    depth = 0;
    snaps = Array.make 16 None;
    pending = Array.make 16 None;
    slot_of = Array.make 64 (-1);
    epoch_of = Array.make 64 0;
    next_slot = 0;
  }

let grow_depth t d =
  if d >= Array.length t.snaps then begin
    let n = max 16 (max (d + 1) (2 * Array.length t.snaps)) in
    let g a = Array.append a (Array.make (n - Array.length a) None) in
    t.snaps <- g t.snaps;
    t.pending <- g t.pending
  end

let release_opt t a i =
  match a.(i) with
  | Some c ->
      Vec_clock.release t.eng c;
      a.(i) <- None
  | None -> ()

let reset t ~threads =
  Vec_clock.release t.eng t.cur;
  for i = 0 to Array.length t.snaps - 1 do
    release_opt t t.snaps i;
    release_opt t t.pending i
  done;
  if threads > Array.length t.slot_of then begin
    t.slot_of <- Array.make (2 * threads) (-1);
    t.epoch_of <- Array.make (2 * threads) 0
  end
  else Array.fill t.slot_of 0 threads (-1);
  t.next_slot <- 0;
  t.depth <- 0;
  t.cur <- Vec_clock.alloc t.eng

let thread t tid =
  let slot = t.next_slot in
  t.next_slot <- slot + 1;
  t.slot_of.(tid) <- slot;
  t.epoch_of.(tid) <- Vec_clock.tick t.cur slot

let spawn t =
  grow_depth t (t.depth + 1);
  t.snaps.(t.depth) <- Some (Vec_clock.snapshot t.eng t.cur);
  (* A proc's pending set is consumed by its RETURN, so the slot at
     the child's depth is necessarily free here. *)
  t.depth <- t.depth + 1

let sync t =
  match t.pending.(t.depth) with
  | None -> ()
  | Some p ->
      Vec_clock.join t.eng ~into:t.cur p;
      Vec_clock.release t.eng p;
      t.pending.(t.depth) <- None

let return_ t =
  if t.depth = 0 then invalid_arg "Stream_clock: RETURN at depth 0";
  (* Implicit sync at proc end: unsynced grandchildren flow into the
     child's final clock and become joinable at the parent's next
     SYNC — matching the SP tree, where the parent's sync is serial-
     after the child's whole subtree. *)
  sync t;
  let final = t.cur in
  t.depth <- t.depth - 1;
  (match t.pending.(t.depth) with
  | None -> t.pending.(t.depth) <- Some final  (* steal the buffer *)
  | Some p ->
      Vec_clock.join t.eng ~into:p final;
      Vec_clock.release t.eng final);
  match t.snaps.(t.depth) with
  | Some snap ->
      t.snaps.(t.depth) <- None;
      t.cur <- snap
  | None -> invalid_arg "Stream_clock: RETURN without matching SPAWN"

let precedes t ~executed ~current =
  executed = current
  ||
  let slot = t.slot_of.(executed) in
  if slot < 0 then invalid_arg "Stream_clock.precedes: executed tid has not run";
  Vec_clock.get t.cur slot >= t.epoch_of.(executed)

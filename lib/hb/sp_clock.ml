(* The vector-clock happens-before maintainer, a serial SP-maintenance
   algorithm (structurally matching [Spr_core.Sp_maintainer.S] — this
   library sits below [spr_core], so the signature cannot be named
   here).  The walk keeps exactly one active clock:

   - [Enter] of a P-node snapshots the active clock (the fork copies
     the forker's knowledge to the spawned branch);
   - [Mid] of a P-node swaps the finished left branch's clock with the
     stored snapshot, so the right branch starts from the fork point;
   - [Exit] of a P-node joins the left branch's final clock back in
     (the join synchronizes both branches into the continuation);
   - S-nodes are free: serial composition just keeps executing on the
     same clock.

   Threads tick a fresh slot each (every leaf executes exactly once in
   this IR, so epochs are all 1 and queries degenerate to presence
   checks — {!Vec_clock} implements general epochs anyway, for the
   futures extension).  [precedes x y] with [y] the currently
   executing thread is then one [get]: x's slot is in the active clock
   iff x happened before the current thread.

   The walk is LIFO over P-nodes, so a single clock stack suffices and
   every snapshot is consumed exactly once — clocks pool cleanly. *)

module Sp_tree = Spr_sptree.Sp_tree

module Vector = struct
  type t = {
    eng : Vec_clock.t;
    mutable cur : Vec_clock.clock;
    stack : Vec_clock.clock Spr_util.Vec.t;
    slot_of : int array;  (* leaf id -> clock slot, -1 until executed *)
    epoch_of : int array;
    mutable next_slot : int;
    mutable threads : int;
    mutable sum_words : int;
    (* Planted faults for the differential oracle (see {!Faulty} in
       lib/check): skip the Exit join, or keep the left branch's clock
       across Mid instead of restoring the fork-point snapshot. *)
    no_join : bool;
    no_restore : bool;
  }

  let name = "hb-vector"

  let make ~no_join ~no_restore tree =
    let n = Sp_tree.node_count tree in
    let eng = Vec_clock.create () in
    {
      eng;
      cur = Vec_clock.alloc eng;
      stack = Spr_util.Vec.create ();
      slot_of = Array.make (max 1 n) (-1);
      epoch_of = Array.make (max 1 n) 0;
      next_slot = 0;
      threads = 0;
      sum_words = 0;
      no_join;
      no_restore;
    }

  let create tree = make ~no_join:false ~no_restore:false tree

  let unbalanced () = invalid_arg (name ^ ": unbalanced P-node events")

  let on_event t (ev : Sp_tree.event) =
    match ev with
    | Enter x ->
        (match Sp_tree.kind x with
        | Series -> ()
        | Parallel -> Spr_util.Vec.push t.stack (Vec_clock.snapshot t.eng t.cur))
    | Mid x ->
        (match Sp_tree.kind x with
        | Series -> ()
        | Parallel ->
            if not t.no_restore then begin
              match Spr_util.Vec.pop t.stack with
              | Some snap ->
                  Spr_util.Vec.push t.stack t.cur;
                  t.cur <- snap
              | None -> unbalanced ()
            end)
    | Exit x ->
        (match Sp_tree.kind x with
        | Series -> ()
        | Parallel -> (
            match Spr_util.Vec.pop t.stack with
            | Some left ->
                if not t.no_join then Vec_clock.join t.eng ~into:t.cur left;
                Vec_clock.release t.eng left
            | None -> unbalanced ()))
    | Thread u ->
        let slot = t.next_slot in
        t.next_slot <- slot + 1;
        let e = Vec_clock.tick t.cur slot in
        t.slot_of.(u.Sp_tree.id) <- slot;
        t.epoch_of.(u.Sp_tree.id) <- e;
        t.threads <- t.threads + 1;
        t.sum_words <- t.sum_words + Vec_clock.live_words t.cur

  let precedes t (x : Sp_tree.node) (y : Sp_tree.node) =
    (not (x == y))
    &&
    let sx = t.slot_of.(x.Sp_tree.id) in
    if sx < 0 then invalid_arg (name ^ ".precedes: operand has not executed");
    Vec_clock.get t.cur sx >= t.epoch_of.(x.Sp_tree.id)

  let parallel t x y = (not (x == y)) && not (precedes t x y)

  let requires_current_operand = true

  let leaves_only = true

  (* Mean active-clock footprint observed at thread execution — the
     Figure-3 "space per node" analog for clock detectors. *)
  let avg_label_words t =
    if t.threads = 0 then 0.0 else float_of_int t.sum_words /. float_of_int t.threads

  (* Counter taps for the EXP-HB bench (not part of the maintainer
     signature; reached by calling [Vector] directly). *)
  let copied_words t = Vec_clock.copied_words t.eng

  let joined_words t = Vec_clock.joined_words t.eng
end

(* Deliberately broken variants for proving the three-way differential
   oracle actually discriminates.  [Vector_no_join] forgets the Exit
   join: threads after a join look parallel to the joined branch —
   false positives on race-free programs.  [Vector_no_restore] leaks
   the left branch's clock into the right branch: siblings look
   ordered — false negatives on planted races. *)
module Vector_no_join = struct
  include Vector

  let name = "hb-vector-nojoin"

  let create tree = make ~no_join:true ~no_restore:false tree
end

module Vector_no_restore = struct
  include Vector

  let name = "hb-vector-norestore"

  let create tree = make ~no_join:false ~no_restore:true tree
end

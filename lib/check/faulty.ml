module Sp_bags_flipped = struct
  include Spr_core.Sp_bags

  let name = "sp-bags-flipped"

  (* The planted bug: the bag-kind comparison in the query path is
     flipped, so the two answers trade places. *)
  let precedes t x y = Spr_core.Sp_bags.parallel t x y

  let parallel t x y = Spr_core.Sp_bags.precedes t x y
end

let sp_bags_flipped : Sp_check.algo =
  ( "sp-bags-flipped",
    fun tree ->
      Spr_core.Sp_maintainer.Instance ((module Sp_bags_flipped), Sp_bags_flipped.create tree) )

module Om_broken_insert_before = struct
  include Spr_om.Om

  let name = "om-broken-insert-before"

  let insert_before = Spr_om.Om.insert_after
end

let om_broken_insert_before : (module Om_script.SUT) = (module Om_broken_insert_before)

module Om_concurrent_unvalidated = struct
  include Spr_om.Om_concurrent

  let name = "om-concurrent-unvalidated"

  (* The planted ordering bug: a query that reads each label once and
     skips the stamp-validation protocol entirely.  Serially (and on
     any schedule where no relabel lands between the two reads) the
     answers are right; a writer rebalancing between [uq-read-x] and
     [uq-read-y] can leave a stale label of one element compared
     against a fresh label of the other, flipping the answer.  Bug
     depth 2: one preemption of the reader at the right point
     suffices, so PCT with d >= 2 finds it and the DFS explorer hits
     it on every enumeration of a rebalancing script. *)
  let precedes _t x y =
    Spr_schedhook.Hook.yield ~kind:Spr_schedhook.Hook.Read ~layer:name ~name:"uq-read-x" ();
    let xl = debug_label x in
    Spr_schedhook.Hook.yield ~kind:Spr_schedhook.Hook.Read ~layer:name ~name:"uq-read-y" ();
    let yl = debug_label y in
    xl < yl
end

let om_concurrent_unvalidated : (module Spr_om.Om_intf.CONCURRENT) =
  (module Om_concurrent_unvalidated)

(* The planted clock bugs: each disables exactly one maintenance step
   of the happens-before clocks, so each of the three oracles in the
   [Fuzz.run_hb] differential independently proves it can catch a
   fault in the others. *)

let hb_vector_no_join : Sp_check.algo =
  ( "hb-vector-nojoin",
    fun tree ->
      Spr_core.Sp_maintainer.Instance
        ( (module Spr_hb.Sp_clock.Vector_no_join),
          Spr_hb.Sp_clock.Vector_no_join.create tree ) )

let hb_vector_no_restore : Sp_check.algo =
  ( "hb-vector-norestore",
    fun tree ->
      Spr_core.Sp_maintainer.Instance
        ( (module Spr_hb.Sp_clock.Vector_no_restore),
          Spr_hb.Sp_clock.Vector_no_restore.create tree ) )

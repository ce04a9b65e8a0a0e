(** Deliberately broken variants for harness self-tests (fault
    injection).  A checker that cannot catch a planted bug proves
    nothing; these are the planted bugs — see the [--inject-fault]
    flag of [spfuzz] and the harness tests. *)

val sp_bags_flipped : Sp_check.algo
(** SP-bags with the S-bag/P-bag membership test flipped: [precedes]
    and [parallel] answers are swapped — the effect of flipping the
    one bag-kind comparison in the query path.  Invisible on a
    single-thread program, caught on the first parallel pair. *)

val om_broken_insert_before : (module Om_script.SUT)
(** The two-level {!Spr_om.Om} with [insert_before] silently replaced
    by [insert_after] — the classic wrong-neighbor bug.  Caught by any
    script that queries around an [Insert_before]. *)

val om_concurrent_unvalidated : (module Spr_om.Om_intf.CONCURRENT)
(** {!Spr_om.Om_concurrent} with [precedes] replaced by a single
    unvalidated read of each label (no stamp double-check, no retry).
    Correct under serial execution; wrong whenever a relabel pass lands
    between its two reads — an ordering bug of depth 2, the target the
    schedule-exploration harness ([spfuzz --sched pct --inject-fault
    om-unvalidated]) must find and shrink.  The extra yield between the
    reads is in the faulty code itself, so the controller can place a
    writer there. *)

val hb_vector_no_join : Sp_check.algo
(** The vector-clock detector with the join at every [Exit] skipped:
    the continuation never learns what the completed subtree did, so
    serialized accesses look concurrent — false positives on race-free
    programs.  Caught by the three-way differential the moment a
    spawned procedure's effects matter. *)

val hb_vector_no_restore : Sp_check.algo
(** The vector-clock detector with the snapshot restore at every [Mid]
    skipped: the right subtree inherits the left subtree's clock, so
    genuinely parallel accesses look ordered — false negatives on
    planted races.  The dual failure mode to [hb_vector_no_join]. *)

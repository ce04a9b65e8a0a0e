(** Ready-made detection pipelines.

    [detect_serial] replays the program's serial (left-to-right)
    execution, driving any serial SP-maintenance algorithm and the
    Nondeterminator protocol — the configuration of Corollary 6.

    [detect_hybrid] runs the program on the work-stealing simulator
    with SP-hybrid as the oracle, issuing the detector's queries from
    each thread's execution hook — the parallel, on-the-fly
    configuration of Sections 3–7.

    [detect_serial_locked] is the All-Sets-style pipeline. *)

type serial_result = {
  races : Detector.race list;
  racy_locs : int list;
  sp_queries : int;  (** queries issued to the SP oracle *)
}

val detect_serial :
  Spr_prog.Prog_tree.t ->
  (Spr_sptree.Sp_tree.t -> Spr_core.Sp_maintainer.instance) ->
  serial_result
(** Detect with the given serial algorithm (e.g.
    {!Spr_core.Algorithms.sp_order}). *)

type releasing_result = {
  result : serial_result;
  peak_om_nodes : int;  (** high-water mark of the SP-order structures *)
  final_om_nodes : int;
  released : int;  (** threads deleted after leaving shadow memory *)
}

val detect_serial_releasing : Spr_prog.Prog_tree.t -> releasing_result
(** Like [detect_serial] with SP-order, but threads that drop out of
    shadow memory are {e deleted} from the order-maintenance
    structures ({!Spr_core.Sp_order.release}): the structure tracks the
    live frontier, not the whole execution history.  Race reports are
    identical to the non-releasing run. *)

(** The fully packed serial pipeline: fused English/Hebrew SP-order
    ({!Spr_om.Om_fused}) + packed shadow cells, created once and
    rewound in place per run.  {!Fused.run} walks the program's own
    recursion and reports its serial execution to
    {!Spr_core.Sp_stream}, the construction the ingestion [Server]
    drives from trace frames (its header documents the shape), so its
    OM work equals the server's on the program's trace, and no tree is
    built.  Each thread's element is pinned while its accesses run.
    A steady-state {!Fused.run} — replay the fork/join walk, issue
    every access and SP query — allocates zero minor words on a
    race-free program (recording a race allocates its report);
    [regress --alloc-gate --ingest] pins this, and the test suite pins
    answer equality with {!detect_serial}. *)
module Fused : sig
  type t

  val create : Spr_prog.Fj_program.t -> t
  (** Allocate the pipeline for the program, its shadow sized from
      {!Spr_prog.Fj_program.max_loc}; the fused structure grows to the
      program's size on the first {!run}. *)

  val run : t -> unit
  (** One full detection pass, in place.  Idempotent across calls —
      each run rewinds and replays.  The rewind clears only the
      shadow cells of the program's own locations. *)

  val detector : t -> Detector.t

  val om : t -> Spr_om.Om_fused.t
  (** The fused structure the last run built (size, relabel
      counters, invariants). *)

  val result : t -> serial_result
  (** Snapshot of the last run (allocates; call outside any probed
      region). *)
end

val detect_serial_fused : Spr_prog.Fj_program.t -> serial_result
(** [Fused.run] + [result] on a pipeline resident in the calling
    domain — drop-in comparison point for
    [detect_serial pt Algorithms.sp_order], with the same answers as a
    fresh [Fused.create] + [run] + [result].

    Each domain keeps one pipeline, created by its first call and
    retargeted at each later call's program: the fused structure, tid
    table and frame stacks stay at the largest program that domain has
    run, and the shadow at the widest (it is recreated only when a
    program is wider), so a call costs its own program's walk, not a
    create-and-grow.  It keeps no results — every call's lists are
    fresh — only a reference to the last program until the next call.
    A call holds the pipeline for its whole run; a concurrent call on
    the same domain (another systhread), or one after a run that
    raised, finds none and creates its own, so calls never share
    state. *)

type locked_result = { lock_races : Lockset.race list; racy_locs : int list }

val detect_serial_locked :
  Spr_prog.Prog_tree.t ->
  (Spr_sptree.Sp_tree.t -> Spr_core.Sp_maintainer.instance) ->
  locked_result

type hybrid_result = {
  races : Detector.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
  hybrid_stats : Spr_hybrid.Sp_hybrid.stats;
}

val detect_hybrid : ?seed:int -> ?procs:int -> Spr_prog.Fj_program.t -> hybrid_result

type hybrid_locked_result = {
  lock_races : Lockset.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
}

val detect_hybrid_locked :
  ?seed:int -> ?procs:int -> Spr_prog.Fj_program.t -> hybrid_locked_result
(** The All-Sets-style detector with SP-hybrid as the oracle: parallel,
    on-the-fly, lock-aware — the full configuration the paper's
    abstract promises improved bounds for. *)

(** The differential fuzzer: random programs and OM op-scripts through
    every registered implementation, cross-validated against the
    oracles, with automatic shrinking of anything that diverges.

    Every iteration derives its own RNG from [(seed, iteration)], so a
    failure found at [--seed S --iters N] replays with the same seed
    regardless of how many earlier iterations ran — and the shrinking
    predicate re-runs the exact same battery on each candidate. *)

type config = {
  seed : int;
  iters : int;
  max_threads : int;  (** thread-count ceiling for generated programs *)
  schedules : int;  (** simulated hybrid schedules (procs, steal seed) per program *)
  algos : Sp_check.algo list;  (** serial maintainers under test *)
  sp_pairs : (Sp_check.algo * Sp_check.algo) list;
      (** maintainer cross-validation pairs run through
          {!Sp_check.check_pair} on every generated program *)
  hb_algos : Sp_check.algo list;
      (** independent voters for the three-way race differential
          ({!run_hb}): each replaces the SP oracle inside
          {!Spr_race.Drivers.detect_serial} and its full output is
          compared against the sp-order-fused baseline *)
  om_suts : (string * (module Om_script.SUT)) list;
  om_pairs : (string * (module Om_script.SUT) * (module Om_script.SUT)) list;
      (** cross-validation pairs [(label, candidate, oracle)] replayed
          via {!Om_script.replay_vs} on every script *)
  log : string -> unit;  (** progress lines (e.g. [print_endline], or [ignore]) *)
  sink : Spr_obs.Sink.t;
      (** observability sink threaded into the hybrid schedule checks
          ([sched/], [hybrid/], OM events) and bumped with [fuzz/]
          iteration counters; {!Spr_obs.Sink.null} disables. *)
}

val default_om_suts : (string * (module Om_script.SUT)) list
(** Every OM implementation in the repo: [Om], [Om_packed], [Om_label],
    [Om_file], [Om_concurrent], [Om_concurrent2] — structures without a
    native [check_invariants] get a no-op one.  ([Om_naive] is the
    oracle, not a SUT.) *)

val default_om_pairs : (string * (module Om_script.SUT) * (module Om_script.SUT)) list
(** The packed backend cross-validated against the boxed two-level
    structure as oracle (same algorithm, answers must agree op for
    op). *)

val default_sp_pairs : (Sp_check.algo * Sp_check.algo) list
(** [sp-depa] cross-validated against [sp-order]: immutable fork-path
    labels vs a live OM structure, answers compared query for query on
    the same walk. *)

val default_hb_algos : Sp_check.algo list
(** The two independent voters — the vector-clock detector [hb-vector]
    ({!Spr_hb.Vec_clock}) and DePa's fork-path labels [sp-depa] —
    compared against the [sp-order-fused] baseline by {!run_hb}. *)

val default : seed:int -> iters:int -> config
(** All maintainers ({!Spr_core.Algorithms.all}), the [sp-depa] vs
    [sp-order] pair, all OM SUTs and cross-validation pairs,
    [max_threads = 32], [schedules = 3], silent log, null sink. *)

type sp_failure = {
  sp_iter : int;
  sp_spec : Prog_spec.t;  (** shrunk to a local minimum *)
  sp_threads : int;  (** thread count of the shrunk repro *)
  sp_divergence : Sp_check.divergence;
}

type om_failure = {
  om_iter : int;
  om_structure : string;
  om_script : Om_script.script;  (** shrunk to a local minimum *)
  om_divergence : Om_script.divergence;
}

val pp_sp_failure : Format.formatter -> sp_failure -> unit
(** Replayable report: divergence, seed arithmetic, and the shrunk
    program as an OCaml literal. *)

val pp_om_failure : Format.formatter -> om_failure -> unit

val run_sp : config -> sp_failure option
(** Fuzz the SP maintainers: per iteration, one random program (shape
    cycling through {!Spr_workloads.Progs.random_adversarial}) through
    {!Sp_check.check_program} — serial walk for every algo, random
    legal unfoldings for SP-order, [schedules] simulated work-stealing
    schedules through SP-hybrid.  The first divergence is shrunk and
    returned. *)

type hb_failure = {
  hb_iter : int;
  hb_algo : string;  (** the clock detector that diverged *)
  hb_seed : int;  (** access-decoration seed of the repro *)
  hb_spec : Prog_spec.t;  (** shrunk to a local minimum *)
  hb_threads : int;
  hb_detail : string;  (** which field diverged, with both values *)
}

val pp_hb_failure : Format.formatter -> hb_failure -> unit

val run_hb : config -> hb_failure option
(** The three-way differential race oracle: per iteration, one random
    program (shape cycling as in {!run_sp}) is decorated with seeded
    shared-memory accesses and pushed through
    {!Spr_race.Drivers.detect_serial} once per oracle — the
    [sp-order-fused] baseline plus every entry of [hb_algos] (vector
    clocks and DePa labels by default).  Race reports (in order), racy
    locations and SP query counts must all be identical; the first
    divergence is shrunk (over the spec, with the decoration held
    fixed as a function of the seed) and returned. *)

val run_om : config -> om_failure option
(** Fuzz the OM structures: per iteration, one random script (mix
    cycling uniform / delete-heavy / head-heavy) replayed against the
    {!Spr_om.Om_naive} oracle by every SUT, invariants checked after
    every mutation.  The first divergence is shrunk and returned. *)

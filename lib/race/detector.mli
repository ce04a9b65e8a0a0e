(** Determinacy-race detector — the Nondeterminator protocol
    (Feng–Leiserson 1997), parameterised by an SP-maintenance oracle.

    Shadow memory keeps, per location, the last writer and up to {e
    two} readers.  When the currently executing thread [u] performs an
    access, the detector issues O(1) SP queries against the recorded
    threads:

    - {e read}: a recorded writer not preceding [u] races with [u];
      afterwards every recorded reader that precedes [u] is {e
      subsumed} by it and replaced — this is sound because a later
      access parallel to a subsumed reader is parallel to [u] too
      (precedence is transitive, and [u] cannot precede a thread that
      already ran).  Readers concurrent with [u] are kept, up to two;
      a third pairwise-parallel reader is dropped.
    - {e write}: a recorded writer or reader not preceding [u] races
      with [u]; [u] becomes the recorded writer.

    Over a serial (left-to-right) execution one reader slot already
    reports a race on a location iff the program has one there
    (Feng–Leiserson); the second slot extends that per-location
    guarantee to the out-of-order observation orders of a parallel
    schedule whenever at most two recorded readers of the location are
    pairwise parallel — in particular to every 3-thread program.  With
    three or more pairwise-parallel readers recorded before a
    conflicting write, the bounded shadow remains an approximation
    (full generality needs unbounded read sets); reported races are
    always real.  The [precedes] oracle is whatever SP-maintenance
    algorithm is plugged in — with SP-order, the whole detection pass
    costs O(T{_1}) (Corollary 6). *)

type race = {
  loc : int;
  earlier : int;  (** tid recorded in shadow memory *)
  later : int;  (** tid of the access that exposed the race *)
  earlier_write : bool;
  later_write : bool;
}

type t

val create :
  ?on_unreferenced:(int -> unit) ->
  ?sink:Spr_obs.Sink.t ->
  locs:int ->
  precedes:(executed:int -> current:int -> bool) ->
  unit ->
  t
(** [locs] bounds the shadow-memory address space; [precedes] answers
    "did [executed] logically precede [current]?" for threads already
    seen.

    [sink] (default {!Spr_obs.Sink.null}) receives one [Race_query]
    event per accessing thread run through {!run_thread} and, when a
    metric registry is attached, [race/] counters plus a
    [race/queries_per_access] histogram.

    [on_unreferenced tid] fires when a thread that had entered shadow
    memory loses its last reference (every slot it occupied has been
    overwritten): the detector will never query it again, so an
    SP-maintenance structure that supports deletion (SP-order) can
    release it and track the live frontier instead of the full
    history — see {!Drivers.detect_serial_releasing}. *)

val reset : t -> unit
(** Rewind to the create-time state — empty shadow memory, no recorded
    races, zero query count — reusing every internal array.  In steady
    state (release protocol unarmed) this allocates nothing, which is
    what lets the end-to-end pipeline re-run a program with zero minor
    words. *)

val reset_prefix : t -> upto:int -> unit
(** {!reset}, clearing only the shadow cells of locations
    [\[0, upto)], so that it costs O([upto]) instead of O([locs]).
    The cells past [upto] keep whatever an earlier run left in them:
    until the next reset that covers them, the caller must access no
    location [>= upto].  A resident server passes the next program's
    declared location count and rejects every access beyond it.
    Allocates nothing, like {!reset}.  @raise Invalid_argument if
    [upto < 0]. *)

val access : t -> current:int -> Spr_prog.Fj_program.access -> unit
(** Record one access by the currently executing thread.  The shadow
    slots are packed [int] arrays, so an access allocates only when a
    race is recorded. *)

val access_raw : t -> current:int -> loc:int -> write:bool -> unit
(** {!access} without the record: the streaming-ingestion hot path
    decodes (loc, write) straight out of a binary frame and must not
    box them. *)

val run_thread : t -> Spr_prog.Fj_program.thread -> unit
(** All accesses of a thread, in order. *)

val races : t -> race list
(** Every reported race, in detection order. *)

val race_count : t -> int
(** [List.length (races t)], without building the list. *)

val racy_locs : t -> int list
(** Sorted, deduplicated locations involved in reported races — equal
    to [List.sort_uniq compare (List.map (fun r -> r.loc) (races t))].
    One pass over the races marks each location in a per-detector
    byte array sized at {!create}; the d distinct locations are then
    sorted and their marks cleared, so a call costs
    O(races + d log d), independent of [locs], and leaves the
    detector as it found it. *)

val query_count : t -> int
(** SP queries issued (for Corollary 6 accounting). *)

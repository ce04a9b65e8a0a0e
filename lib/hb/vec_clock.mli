(** Vector clocks over (array, valid-length) buffers: Θ(width)
    snapshot and join, O(1) epoch queries.  A clock maps thread slots
    to logical times; the engine value [t] owns a buffer pool and the
    two counters EXP-HB reports: [copied_words] (words written by
    snapshots — every fork copies the forker's knowledge) and
    [joined_words] (words examined by joins — every join merges a
    finished branch back). *)

type t
(** Pool + counters, shared by every clock it hands out. *)

type clock

val create : unit -> t

val alloc : t -> clock
(** An empty clock (pooled: may reuse a released buffer). *)

val snapshot : t -> clock -> clock
(** A pooled copy; bumps [copied_words] by the source's width. *)

val join : t -> into:clock -> clock -> unit
(** Pointwise-max merge of the second clock into [into]; bumps
    [joined_words] by the source's width. *)

val release : t -> clock -> unit
(** Return a clock to the pool.  The caller must not use it again. *)

val tick : clock -> int -> int
(** [tick c slot] advances [slot]'s component in [c] and returns the
    new value — the slot's epoch.  In the fork-join IR every thread
    runs once, so each slot is ticked once and every epoch is 1; the
    operation stays general (futures would re-tick). *)

val get : clock -> int -> int
(** Component read; 0 for a slot the clock has never seen. *)

val live_words : clock -> int
(** Current width in words (the Figure-3 "space per node" analog). *)

val copied_words : t -> int

val joined_words : t -> int

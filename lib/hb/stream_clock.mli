(** A vector-clock happens-before oracle over the `.spr-trace` frame
    stream.  It takes the same five walk events as {!Spr_core.Sp_stream},
    in serial execution order, and answers tid-level precedence from the
    active clock, so the ingest server can swap it in for the SP-order
    construction with byte-identical verdicts.  Clocks are pooled. *)

type t

val create : unit -> t
(** Call {!reset} before the first program. *)

val reset : t -> threads:int -> unit
(** Rewind for a program whose thread ids lie in [\[0, threads)]: every
    clock back to the pool, every tid unset (the tables grow only past
    the largest count seen). *)

val thread : t -> int -> unit
(** [thread t tid]: thread [tid] starts running and ticks a fresh
    slot.  The caller checks that [tid] is in range and has not run. *)

val spawn : t -> unit
(** The running procedure spawns a child, which runs next. *)

val return_ : t -> unit
(** The running child returns to its caller. *)

val sync : t -> unit
(** The current sync block ends, joining everything it spawned. *)

val precedes : t -> executed:int -> current:int -> bool
(** [executed] happened before [current].  Must only be asked while
    [current] is the running thread. *)

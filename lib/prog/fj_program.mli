(** Fork-join programs in canonical Cilk form (paper, Figure 10).

    A {e program} is a tree of procedures.  A procedure is a sequence
    of {e sync blocks}; a sync block is a sequence of items — [Run] a
    thread (a serial block of [cost] instructions, possibly touching
    shared memory) or [Spawn] a child procedure — terminated by an
    implicit [sync] that joins every child spawned in the block.

    This is the input representation for the work-stealing simulator
    ({!Spr_sched.Sim}) and SP-hybrid; {!Prog_tree} derives the
    corresponding SP parse tree (with canonical shape: a [Spawn]
    becomes a P-node whose left subtree is the child procedure and
    whose right subtree is the continuation of the block), which is
    what the serial algorithms and the reference relation consume. *)

type access = {
  loc : int;
  write : bool;
  locks : int list;  (** locks held at the access (sorted; for the All-Sets-style detector) *)
}
(** One shared-memory access performed by a thread. *)

type thread = {
  tid : int;  (** dense id within the program *)
  cost : int;  (** instruction count; >= 1 *)
  accesses : access array;  (** accesses, in program order *)
}

type item = Run of thread | Spawn of proc

and proc = { pid : int; blocks : item array array }

type t

(** Programs are assembled bottom-up; ids are dense per program. *)
module Builder : sig
  type b

  val create : unit -> b

  val thread : b -> ?accesses:access list -> cost:int -> unit -> thread
  (** A fresh thread.  @raise Invalid_argument if [cost < 1]. *)

  val proc : b -> item list list -> proc
  (** A procedure from its sync blocks.  Blocks must be non-empty and
      there must be at least one block. *)

  val finish : b -> proc -> t
  (** Close the builder; [proc] becomes the main procedure. *)
end

val main : t -> proc

val thread_count : t -> int

val proc_count : t -> int

val threads : t -> thread array
(** All threads indexed by [tid]. *)

val max_loc : t -> int
(** Largest location any thread accesses, -1 if none: shadow memory
    for the program needs [max_loc t + 1] cells.  {!Builder.thread}
    tracks it as it sees each access, so this is O(1). *)

val work : t -> int
(** T{_1}: total instruction count of all threads. *)

val access_count : t -> int
(** Total shared-memory accesses across all threads (the event count
    the ingestion benchmarks normalize by). *)

val span : t -> int
(** T{_∞}: critical-path instruction count (computed on the canonical
    parse tree: S adds, P maxes). *)

val spawn_count : t -> int
(** Total number of [Spawn] items (= P-nodes in the canonical parse
    tree). *)

val iter_threads : t -> (thread -> unit) -> unit

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: threads, procs, work, span, parallelism. *)

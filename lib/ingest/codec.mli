(** The [.spr-trace] wire format: a stream of fork-join execution
    events as LEB128-varint frames ({!Spr_util.Varint}).

    A trace file is

    {v magic "SPRTRACE1\n" · version · program · program · ... v}

    and each program is one [PROG] header frame (thread count and
    location count — the decoder's sizing hints — and a parse-tree node
    budget, which the decoder checks exactly), a body
    of structural and access frames emitted in serial (left-to-right)
    execution order, and a [PROG_END] trailer carrying the body's frame
    count as a corruption tripwire:

    - [THREAD tid cost] — the thread starts executing; subsequent
      access frames belong to it
    - [READ loc] / [WRITE loc] — a shared-memory access by the current
      thread
    - [READL loc k l1..lk] / [WRITEL ...] — ditto, holding [k] locks
    - [SPAWN] — push a child procedure (its frames follow inline)
    - [RETURN] — the child procedure ended; resume the parent block
    - [SYNC] — join everything spawned in the current block; a new
      sync block begins

    The body is exactly a pre-order serialization of the program's
    canonical parse-tree walk, which is why the streaming server can
    rebuild SP relationships on the fly with no lookahead: every frame
    advances the English/Hebrew orders at once, and they answer every
    query as the in-process serial driver's do.

    Encoding and decoding are allocation-free per frame ([put]/[get]
    are pure-int; capture appends to one scratch [Buffer]).  All
    decode-side errors — truncation, bad magic, unknown tags, hint or
    budget mismatches — surface as {!Corrupt} with the byte offset and
    frame ordinal, never as partial silent results. *)

val magic : string
(** ["SPRTRACE1\n"]. *)

val version : int

(** Frame tags.  Part of the on-disk format; never renumber. *)

val tag_prog : int

val tag_thread : int

val tag_read : int

val tag_write : int

val tag_read_locked : int

val tag_write_locked : int

val tag_spawn : int

val tag_return : int

val tag_sync : int

val tag_prog_end : int

(** Sanity caps on [PROG] header hints, so a corrupted or hostile
    header cannot make the decoder allocate unbounded arrays before
    the body betrays it. *)

val max_threads : int

val max_locs : int

val max_nodes : int

val max_locks_held : int

type error = {
  offset : int;  (** byte offset into the trace where decoding failed *)
  frame : int;  (** 0-based ordinal of the frame being decoded *)
  msg : string;
}

exception Corrupt of error

val corrupt : offset:int -> frame:int -> ('a, unit, string, 'b) format4 -> 'a
(** [corrupt ~offset ~frame fmt ...] raises {!Corrupt}. *)

val pp_error : Format.formatter -> error -> unit
(** ["offset N (frame K): msg"]. *)

val check_header : string -> int ref -> unit
(** Verify magic + version at [!pos], advancing past them.
    @raise Corrupt on mismatch or truncation. *)

val write_header : Buffer.t -> unit

val encode_program : Buffer.t -> Spr_prog.Fj_program.t -> unit
(** Append one program (header + body + trailer) in serial execution
    order. *)

val capture : Spr_prog.Fj_program.t list -> string
(** A complete trace: header + each program in order. *)

val capture_file : string -> Spr_prog.Fj_program.t list -> int
(** Write {!capture} to a file; returns the byte count. *)

val read_file : string -> string
(** Slurp a trace file ([Sys_error] propagates). *)

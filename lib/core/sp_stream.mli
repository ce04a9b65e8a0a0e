(** SP-order by element, straight from a fork-join walk: the one
    construction both race detectors drive — [Drivers.Fused] from an
    in-memory program, the ingestion [Server] from trace frames.

    The walk reports five events, in serial execution order: a thread
    runs ({!thread}), a procedure is spawned ({!spawn}) or returns
    ({!return_}), and a sync block ends in a [sync] ({!sync}; a
    procedure's last block ends at its {!return_}, or at the end of the
    program, with none).  No event needs lookahead — whether a thread is
    the last item of its block, or a block the last of its procedure —
    which a streamed trace cannot give.  Internal parse-tree nodes get
    no ids, only the elements a later splice needs, because SP queries
    compare threads only, the parse tree's leaves (Figure 5, lines
    10–12; Corollary 2).

    The rest of the current block goes right after [ictx], whose
    region (it and everything placed after it since) holds everything
    earlier in the block; [occupied] says a thread already holds
    [ictx].  Each call frame keeps [brest], the block's continuation,
    unset until the block's first spawn, and [resume], the caller's
    element after the return.
    - {!reset}: [ictx] is the base, fresh.
    - {!thread}: the thread takes [ictx] if it is fresh, else a new
      element [insert_after ictx].  Either way the element is pinned
      and becomes [ictx], occupied.
    - {!spawn}: the block's first one sets [brest] to
      [insert_after ictx]; then [ictx] gets P-children
      ([insert_children ~parallel:true]), the callee running at the left
      one, fresh, and the caller resuming at the right one.  A thread's
      own element may be that P-node's parent: internal nodes are never
      queried.
    - {!return_}: the caller resumes at its right child, fresh.
    - {!sync}: if [brest] is set, the block continues there, fresh,
      and [brest] is unset; a block that spawned nothing ends where it
      stands.

    {b Why it is correct.}  [insert_after x] puts its element right
    after [x] in both orders, and [insert_children] puts its two right
    after [x] (flipped in Hebrew).  Every insert lands right after an
    element whose region holds everything earlier in its block.  So a
    later item follows every earlier item of its block in both orders;
    a callee and its caller's continuation sit between the P-node's
    parent and [brest] in opposite Hebrew order; and whatever follows a
    sync comes after [brest], after both.  These are the orders of a
    re-association of the canonical parse tree's S-compositions, with
    each thread on its parent's element, and Lemma 1 answers every
    query on two threads as it does on the canonical tree.

    {b What it costs.}  The base, two elements per spawn, one per block
    that spawns (its continuation), and one per thread whose context is
    not fresh — a thread runs at a fresh element at the start of a
    procedure, after a return, and after a sync that ends a spawning
    block.  Everything here is allocation-free once the tid table and
    the frame stacks have grown to the largest program seen. *)

type t

val create : unit -> t
(** A walk over a fresh {!Spr_om.Om_fused} structure; call {!reset}
    before the first program. *)

val reset : t -> threads:int -> unit
(** Rewind for a program whose thread ids lie in [\[0, threads)]: O(1)
    {!Spr_om.Om_fused.reset}, every tid unset (the table grows only past
    the largest count seen), one call frame, [ictx] at the base. *)

val thread : t -> int -> unit
(** [thread t tid]: thread [tid] starts running; its element goes into
    the tid table and is pinned as the later operand of the queries its
    accesses make.  The caller checks that [tid] is in range and has not
    run. *)

val spawn : t -> unit
(** The running procedure spawns a child, which runs next. *)

val return_ : t -> unit
(** The running child returns to its caller.  The caller checks that a
    spawn is open ([depth t > 1]). *)

val sync : t -> unit
(** The current sync block ends, joining everything it spawned. *)

val depth : t -> int
(** Open call frames: 1 for the main procedure, plus one per spawn not
    yet returned. *)

val ran : t -> int -> bool
(** [ran t tid]: thread [tid] has run since the last {!reset}. *)

val precedes : t -> executed:int -> current:int -> bool
(** Lemma 1 on two threads that have run: [executed]'s element
    precedes [current]'s in both orders
    ({!Spr_om.Om_fused.sp_precedes}).  [precedes t] is one closure,
    built by {!create}, so a detector can hold it. *)

val om : t -> Spr_om.Om_fused.t
(** The fused English/Hebrew order the walk drives (size, relabel
    counters, invariants).  It holds the last program's elements until
    the next {!reset}. *)

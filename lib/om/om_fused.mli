(** Fused packed English/Hebrew order maintenance.

    SP-order (paper Fig. 5) maintains {e two} total orders — English
    and Hebrew — over the {e same} parse-tree nodes.  {!Om_packed}
    removed per-operation allocation for one order; this structure goes
    the rest of the way and stores both orders in a single
    struct-of-arrays: one [int] handle denotes a node in both orders,
    and its English and Hebrew tags/links/bucket indices are
    interleaved in one stride-8 record, so a fork touches one record
    per node and an SP query reads both labels of both operands from
    the same cache lines.

    Each order runs the identical two-level algorithm as {!Om} /
    {!Om_packed} (capacity-62 buckets, Bender-style top-level
    relabeling over the 60-bit universe), and the insertions exposed
    here ({!insert_children}, which issues exactly {!Sp_order}'s
    sequence, and {!insert_after}) are per plane a boxed
    {!Om.insert_after}, so the per-plane relabel counters are
    bit-identical to running a boxed English {!Om} and Hebrew {!Om}
    side by side (pinned by qcheck).  Insert, query and delete
    allocate nothing; {!reset} rewinds to a fresh single-element
    structure without touching the GC, which is what lets an
    end-to-end [sp-order-fused] run hold steady at zero minor words. *)

type t

type elt = int
(** Element handle, valid in both orders at once. *)

val name : string
(** ["om-fused"]. *)

val create : unit -> t
(** Fresh structure containing only {!base}. *)

val base : t -> elt
(** The initial element (always [0]); never deletable.  Maps to the
    parse-tree root's position in both orders. *)

val reset : t -> unit
(** Rewind to the create-time state — single base element, empty free
    lists, zeroed counters — without allocating or releasing arrays.
    O(1).  Existing handles other than {!base} become invalid. *)

val insert_children : t -> elt -> parallel:bool -> elt * elt
(** [insert_children t x ~parallel] allocates two fresh elements (the
    left and right children of parse-tree node [x]) and splices them
    into both orders: English always [x; left; right]; Hebrew
    [x; left; right] when [parallel] is [false] (S-node) and
    [x; right; left] when [true] (P-node) — the direction flip of the
    paper's Corollary 2.  Returns [(left, right)].  Allocates the
    result tuple only; use {!insert_children_packed} on zero-alloc
    paths.
    @raise Invalid_argument if [x] was deleted. *)

val insert_children_packed : t -> elt -> parallel:bool -> int
(** Allocation-free variant: result is [(left lsl 31) lor right];
    unpack with {!packed_left} / {!packed_right}. *)

val insert_after : t -> elt -> elt
(** [insert_after t x] allocates one fresh element and splices it
    immediately after [x] in both orders — an S-child of [x] placed
    right after it in English and Hebrew alike.  Each plane runs
    {!Om.insert_after}'s split/respace steps, so the counters stay
    bit-identical to a boxed pair driven the same way.  Allocation-free.
    @raise Invalid_argument if [x] was deleted. *)

val packed_left : int -> elt

val packed_right : int -> elt

val precedes_eng : t -> elt -> elt -> bool
(** Strict English order.  O(1), allocation-free.
    @raise Invalid_argument on a deleted operand. *)

val precedes_heb : t -> elt -> elt -> bool
(** Strict Hebrew order. *)

val sp_precedes : t -> elt -> elt -> bool
(** Both orders agree: [x] precedes [y] in English {e and} Hebrew —
    the paper's serial-before relation.  When [y] is the {!pin}ned
    element its labels come from the pin, so only [x]'s are loaded; the
    answer and the checks on [x] are the same either way.
    @raise Invalid_argument on a deleted operand. *)

val pin : t -> elt -> unit
(** [pin t y] caches [y]'s labels in both orders for {!sp_precedes}
    queries whose later operand is [y] — the running thread, in a race
    detector.  {!reset}, {!insert_children}, {!insert_after} and
    {!delete} clear the pin; while none is set, no handle matches it.
    @raise Invalid_argument if [y] is deleted. *)

val sp_parallel : t -> elt -> elt -> bool
(** The orders disagree — the two nodes are logically parallel. *)

val delete : t -> elt -> unit
(** Remove [e] from both orders and recycle its slot through the free
    list.
    @raise Invalid_argument on double delete or on {!base}. *)

val size : t -> int
(** Live elements (counting {!base}). *)

val stats_eng : t -> Om_intf.stats
(** English-plane relabel accounting — bit-identical to a boxed
    English {!Om} driven with the same sequence. *)

val stats_heb : t -> Om_intf.stats
(** Hebrew-plane relabel accounting. *)

val item_slots : t -> int
(** Item slots ever allocated (high-water mark); free-list reuse keeps
    this flat across delete/re-insert churn. *)

val free_items : t -> int
(** Item slots currently on the free list. *)

val bucket_counts : t -> int * int
(** Live bucket counts, [(english, hebrew)]. *)

val set_sink : t -> Spr_obs.Sink.t -> unit
(** Route relabel/bucket-split events to an observability sink
    (no-op-by-default). *)

val check_invariants : t -> unit
(** Verify both planes end-to-end: strictly increasing bucket and
    local tags, consistent prev/next links, bucket membership, size
    and free-list accounting, and that no dead slot is linked in
    either order.  Test hook; O(n).
    @raise Failure on violation. *)

(** SP-order over the fused packed English/Hebrew structure
    ({!Spr_om.Om_fused}).

    Behaviourally identical to {!Sp_order} — Figure 5's algorithm with
    Corollary 2 queries — but a node's position in {e both} orders is a
    single [int] handle into one struct-of-arrays, so Enter performs
    one fused allocation-free child-pair insertion and a query touches
    two interleaved records instead of four boxed elements across two
    structures.  Cross-validated pairwise against [sp-order] by
    [Sp_check.check_pair] / [Fuzz.sp_pairs].

    Besides the standard {!Spr_core.Sp_maintainer.S} surface, this
    module exposes a raw-node-id API ([enter] / [precedes_id] /
    [parallel_id]) and O(1) [reset] for a walk that numbers the nodes
    it creates: no {!Spr_sptree.Sp_tree.node} records, no event
    constructors, no queries through option boxes.  Its one user is the
    benchmark's traced replay.  The detectors need no ids: the serial
    [Drivers.Fused] pipeline and the streaming ingestion [Server] both
    drive {!Sp_stream}, which documents their construction. *)

include Sp_maintainer.S

val create_raw : unit -> t
(** A maintainer with no tree attached yet; call {!reset} before use. *)

val reset : t -> nodes:int -> root:int -> unit
(** Rewind for a fresh walk of a tree with node ids in [0, nodes) and
    the given root id.  Reuses all internal arrays (grows the id map
    only if [nodes] exceeds every previous walk) — steady-state resets
    allocate nothing. *)

val enter : t -> parent:int -> left:int -> right:int -> parallel:bool -> unit
(** Raw-id Enter (Figure 5 lines 4-7): splice [left]/[right] after
    [parent] in both orders, Hebrew-flipped when [parallel].
    Allocation-free.
    @raise Invalid_argument if [parent] is undiscovered. *)

val precedes_id : t -> int -> int -> bool
(** [precedes]/[parallel] on raw node ids (allocation-free). *)

val parallel_id : t -> int -> int -> bool

val release : t -> Spr_sptree.Sp_tree.node -> unit
(** Delete a node from both orders and recycle its slot; the structure
    stays proportional to the live frontier. *)

val om_size : t -> int
(** Live elements in the fused structure. *)

val om : t -> Spr_om.Om_fused.t
(** The underlying fused structure (stats/invariant introspection). *)

val set_sink : t -> Spr_obs.Sink.t -> unit

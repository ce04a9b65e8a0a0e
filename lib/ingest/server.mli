(** Resident streaming race detector: many programs' traces, one
    detector.

    The server decodes a [.spr-trace] stream frame by frame and
    maintains the SP relationships {e online}: THREAD, SPAWN, RETURN
    and SYNC frames drive {!Spr_core.Sp_stream}, the lookahead-free
    SP-order construction that {!Spr_race.Drivers.Fused} also drives
    and whose header documents it, while the server keeps every frame
    check and diagnostic.  Access frames are checked against shadow
    memory immediately (single-shard) or batched into address-range
    shards and drained across domains ({!Shard}).  A [PROG] frame
    rewinds everything in place (O(1) {!Spr_om.Om_fused.reset},
    shadow/batch clears), which is what makes the server resident:
    steady state across programs allocates nothing on the decode path.

    Race reports are byte-identical to
    {!Spr_race.Drivers.detect_serial} on the original program — same
    races in the same order, same racy locations, same SP query count
    — for any shard count.  The test suite pins this differentially
    over every workload generator. *)

type t

type runner = (unit -> unit) array -> unit
(** How to execute one drain thunk per shard "concurrently".  The
    default is a persistent {!Shard.Pool} of domains; tests substitute
    [Spr_schedtest.Control.run] to schedule the hand-off
    adversarially. *)

type program_result = {
  index : int;  (** 0-based position in the trace *)
  threads : int;
  accesses : int;
  events : int;  (** body frames decoded *)
  races : Spr_race.Detector.race list;  (** serial detection order *)
  racy_locs : int list;
  sp_queries : int;
}

type stats = {
  programs : int;
  events : int;
  accesses : int;
  races : int;
  sp_queries : int;
  flushes : int;
}
(** Totals since {!create}. *)

type oracle = Sp_fused | Hb_vector
(** Which happens-before oracle answers the detector's SP queries.
    [Sp_fused] (the default) is the fused English/Hebrew order;
    [Hb_vector] ({!Spr_hb.Stream_clock}) tracks a vector clock directly
    on SPAWN/RETURN/SYNC/THREAD frames — an independent code path whose
    verdicts must stay byte-identical. *)

val create : ?shards:int -> ?batch:int -> ?oracle:oracle -> ?runner:runner -> unit -> t
(** [shards] (default 1) partitions the address space across that many
    domains ([shards - 1] worker domains are spawned unless [runner]
    is given); [batch] (default 8192) is the per-shard batch capacity
    in accesses.  @raise Invalid_argument if [shards] is outside
    [1, 64], [batch < 1], or [Hb_vector] is combined with
    [shards > 1] (sharding defers queries past the evolving clock). *)

val shards : t -> int

val run_string : ?collect:bool -> t -> string -> (program_result list, Codec.error) result
(** Ingest a complete trace.  With [collect:false] race lists are not
    materialized (throughput mode; totals still accumulate in
    {!stats}).  With [collect:true] (the default) each program's
    result costs, on top of detecting it, O(races + d log d) for its d
    distinct racy locations: the race list in detection order, plus
    {!Spr_race.Detector.racy_locs} per shard, concatenated shifted by
    each shard's base (shards own ascending address ranges, so no merge
    is needed).  With [shards > 1] the race lists are merged back into
    detection order by a sort on access sequence numbers,
    O(races log races).  Any malformed input yields [Error] — never an
    exception, never a partial result — and leaves the server ready
    for the next trace.  Publishes [ingest/*] counters to
    {!Spr_obs.Sharded.default}, including per-shard
    [ingest/shard<i>/accesses]. *)

val run_file : ?collect:bool -> t -> string -> (program_result list, Codec.error) result
(** {!run_string} on a file's contents; unreadable files surface as
    [Error] too. *)

val drive : t -> string -> unit
(** The allocation-gate entry: {!run_string} with no result
    collection, no counter publication and no [result] boxing — a
    steady-state call allocates zero minor words on a race-free trace.
    @raise Codec.Corrupt on malformed input. *)

val stats : t -> stats

val om : t -> Spr_om.Om_fused.t
(** The fused English/Hebrew order the walk drives (size, relabel
    counters and invariants, for introspection).  It holds the last
    program's elements until the next [PROG] frame rewinds it. *)

val close : t -> unit
(** Join the worker domains.  Idempotent. *)

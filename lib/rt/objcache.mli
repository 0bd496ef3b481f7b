(** Direct-mapped object-lookup cache in front of a splay tree.

    The paper's own evaluation (Section 7.1.3) observes that SVA-Safe
    overhead concentrates in the run-time checks, every one of which
    funnels through a splay-tree lookup, and names cheaper lookups as the
    first future performance improvement.  This cache is that improvement:
    a small direct-mapped table of recently hit object ranges, keyed by
    address bucket and consulted before {!Splay.find_containing}.

    Only {e positive} results are cached.  Because registered ranges are
    disjoint, inserting a new object can never make a cached range stale,
    so registration needs no invalidation; removal does (see
    {!invalidate_start}) and pool destruction clears the table.

    Hits and misses are counted in {!Stats} ([cache_hits]/[cache_misses]);
    the interpreter's cycle model charges a hit far less than the
    per-comparison splay charge (see DESIGN.md Section 6). *)

type 'a t

val create : unit -> 'a t
(** A fresh empty cache at epoch 0.

    There is deliberately {e no} global kill switch: whether to consult a
    cache at all is per-metapool state ([Metapool_rt.set_cached]), so
    toggling one SVM instance (or one A/B measurement) can never change
    the behaviour of another instance in the same process. *)

val epoch : 'a t -> int
(** Coherence tag for per-CPU cache shards.  The owning metapool bumps
    its pool epoch on every object removal; a shard whose stored epoch
    lags the pool's is wholesale-cleared before use ({!clear}) and then
    re-tagged with {!set_epoch}.  The cache itself never interprets the
    value. *)

val set_epoch : 'a t -> int -> unit

val find : 'a t -> 'a Splay.t -> int -> 'a Splay.node option
(** [find cache tree addr] answers "which registered range contains
    [addr]?", consulting the cache first and filling it from the splay
    tree on a miss.  Byte-identical to [Splay.find_containing tree addr]
    in all circumstances — the cache is invisible except to the
    hit/miss counters and the splay's comparison counter. *)

val invalidate_start : 'a t -> int -> unit
(** Drop every cached entry for the range starting at the given address.
    Must be called whenever a range is removed from the backing tree. *)

val clear : 'a t -> unit
(** Drop everything (backing tree was cleared). *)

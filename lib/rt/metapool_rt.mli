(** Metapool run-time state and the SVA run-time checks (Section 4.5).

    A metapool is the run-time representation of one points-to graph
    partition: the set of memory objects that the safety-checking compiler
    proved may be reached through pointers of that partition.  Each
    metapool owns a splay tree of registered object ranges; the inserted
    checks consult it:

    - {!boundscheck} — getelementptr results must stay within the object
      of the source pointer (Jones-Kelly object bounds);
    - {!lscheck} — loads/stores through pointers of non-type-homogeneous
      pools must target a registered object;
    - {!funccheck_hashed} — indirect calls must hit a function in the
      compiler-computed target set.

    Incomplete metapools (partitions exposed to unanalyzed code,
    Section 4.5 "Reduced checks") silence load/store checks entirely and
    downgrade bounds checks to fire only when both pointers are found in
    registered objects.  This is the sole source of false negatives. *)

(** Memory class of a registered object. *)
type memclass =
  | Heap
  | Stack  (** stack objects registered/deregistered per function *)
  | Global
  | Userspace  (** all of userspace as one object (Section 4.6) *)
  | Bios  (** manufactured addresses registered via [pseudo_alloc] (§4.7) *)

type obj = { ob_class : memclass; ob_live : bool ref }

type t = {
  mp_name : string;
  mutable mp_type_homog : bool;
      (** all objects share one inferred type — enables check elision *)
  mutable mp_complete : bool;
      (** no unanalyzed code can put unregistered objects in this pool *)
  mutable mp_elem_size : int;
      (** inferred element size for TH pools (alignment contract, §4.4) *)
  mp_objects : obj Splay.t;
  mp_smp : Smp.t;  (** the owning SVM instance's CPU context *)
  mp_caches : obj Objcache.t array;
      (** per-CPU direct-mapped lookup cache shards consulted before the
          splay tree (one per modeled CPU of [mp_smp]) *)
  mutable mp_cached : bool;  (** whether this pool uses its caches at all *)
  mutable mp_epoch : int;
      (** coherence epoch: bumped on every object removal; a shard whose
          {!Objcache.epoch} lags is wholesale-flushed before use *)
  mutable mp_peak : int;  (** high-water mark of live objects *)
  mutable mp_regs : int;  (** registrations performed on this pool *)
  mutable mp_drops : int;  (** deregistrations performed on this pool *)
  mutable mp_lookups : int;  (** containment queries (checks + getbounds) *)
  mutable mp_hits : int;  (** lookups answered by this pool's cache *)
  mutable mp_flushes : int;  (** stale shards wholesale-cleared on access *)
}

val create :
  ?smp:Smp.t -> ?type_homog:bool -> ?complete:bool -> ?elem_size:int ->
  ?cached:bool -> string -> t
(** [cached] (default true) wires the per-pool object-lookup cache shards
    in front of the splay tree.  The caches are semantically invisible —
    an uncached pool gives byte-identical verdicts and bounds — and exist
    purely to short-circuit the splay lookup on repeated hits (the cheaper
    lookups Section 7.1.3 proposes).

    [smp] (default a fresh 1-CPU context) selects which shard a lookup
    consults and sizes the shard array.  Coherence is the ownership/epoch
    protocol (DESIGN.md §16): drops bump [mp_epoch], the dropping CPU
    repairs its own shard precisely (so a 1-CPU pool never
    wholesale-flushes and is bit-identical to the unsharded cache), and
    other CPUs lazily clear a lagging shard on next access. *)

val set_cached : t -> bool -> unit
(** Toggle cache use for this pool only (A/B measurement).  Replaces the
    old process-global [Objcache.enabled] switch, which silently coupled
    every SVM instance in the process.  Deterministic: only redirects
    lookups; an uncached pool bumps neither cache counter. *)

val register : t -> cls:memclass -> start:int -> len:int -> unit
(** [pchk.reg.obj]: record a live object.  Registering a range that
    overlaps a live object indicates a broken allocator contract and
    raises [Invalid_argument] (except for the whole-userspace object,
    which may enclose nothing else). *)

val drop : t -> start:int -> unit
(** [pchk.drop.obj]: remove an object.  Raises a {!Violation.Double_free}
    violation if no live object starts at [start]. *)

val drop_if_present : t -> start:int -> bool
(** Deregistration for pool destruction paths; never raises. *)

val getbounds : t -> int -> (int * int) option
(** [getbounds mp addr] is [Some (start, len)] of the registered object
    containing [addr] (splay lookup), or [None]. *)

val boundscheck : t -> src:int -> dst:int -> access_len:int -> unit
(** Verify [src] and the whole accessed range [dst .. dst+access_len-1]
    fall within one registered object.  For an incomplete pool where
    neither pointer is registered, the check is "reduced" and passes.
    @raise Violation.Safety_violation on failure. *)

val boundscheck_known : start:int -> len:int -> dst:int -> access_len:int ->
  pool:string -> unit
(** Bounds check with statically known object bounds — no splay lookup
    (the fast path at line 19 of Figure 2). *)

val lscheck : t -> addr:int -> access_len:int -> unit
(** Load/store check.  Elided (counted as reduced) if the pool is
    incomplete; otherwise the accessed range must be inside one live
    object.  A null/uninitialized address raises [Uninit_pointer]. *)

val funccheck_hashed : allowed:(int, string) Hashtbl.t -> target:int -> unit
(** Indirect call check against the call-graph-derived target set, an
    address -> name table the interpreter's pre-decoded fast path builds
    once per call site.  @raise Violation.Safety_violation on miss. *)

val live_objects : t -> int
(** Number of currently registered objects. *)

(** {1 Per-metapool metrics}

    Observability counters maintained unconditionally — they are plain
    integer bumps on paths that already mutate pool state, never consulted
    by any check, and invisible to the cycle model.  The trace/profile
    layer reads them out; nothing in the TCB does. *)

type metrics = {
  m_name : string;
  m_live : int;  (** objects currently registered *)
  m_peak : int;  (** high-water mark of live objects *)
  m_regs : int;  (** total registrations *)
  m_drops : int;  (** total deregistrations *)
  m_depth : int;  (** current splay-tree height *)
  m_lookups : int;  (** containment queries issued *)
  m_cache_hits : int;  (** queries answered by this pool's cache *)
  m_flushes : int;
      (** stale cache shards wholesale-cleared on access (epoch lag);
          always 0 on a 1-CPU pool *)
}

val metrics : t -> metrics
(** Snapshot this pool's counters (live count and splay depth are read
    from the tree at call time). *)

val metrics_hit_rate : metrics -> float
(** Pool-local object-cache hit rate in percent (0 with no lookups). *)

val reset_metrics : t -> unit
(** Zero the cumulative counters; the peak restarts at the current live
    count.  Registered objects are untouched — measurement boundaries
    must not alter pool contents. *)

val reset : t -> unit
(** Drop all objects (pool destruction). *)

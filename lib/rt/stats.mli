(** Run-time check accounting.

    Global counters for every kind of dynamic event the SVA runtime
    performs, in three families (check, execution tier, concurrency),
    each with its own snapshot record, read, reset and printer.  Every
    counter is a slot of one flat array: a bump is one array increment
    and a family reset is one fill over its slots.  The benchmark
    harness snapshots these to attribute overhead
    (Section 7.1.2 observes that cheap syscalls are dominated by SVA-OS
    cost while heavier ones are dominated by run-time checks), and the
    tests use them to assert that checks are actually exercised or
    correctly elided. *)

type snapshot = {
  bounds_checks : int;  (** [boundscheck] executions *)
  getbounds : int;  (** splay-tree bound fetches *)
  ls_checks : int;  (** [lscheck] executions *)
  funcchecks : int;  (** indirect call checks *)
  registrations : int;  (** [pchk.reg.obj] *)
  drops : int;  (** [pchk.drop.obj] *)
  reduced_checks : int;  (** checks skipped because the pool is incomplete *)
  violations : int;  (** safety violations raised *)
  cache_hits : int;  (** object lookups answered by the per-pool cache *)
  cache_misses : int;  (** object lookups that fell through to the splay *)
}

val bump_bounds : unit -> unit
val bump_getbounds : unit -> unit
val bump_ls : unit -> unit
val bump_funccheck : unit -> unit
val bump_reg : unit -> unit
val bump_drop : unit -> unit
val bump_reduced : unit -> unit
val bump_violation : unit -> unit
val bump_cache_hit : unit -> unit
val bump_cache_miss : unit -> unit

val cache_hits : unit -> int
(** Current value of the cache-hit counter — cheap accessor for the cycle
    model, which charges a hit far less than a splay comparison. *)

val checks_now : unit -> int
(** Current bounds + load/store + indirect-call check count, without
    allocating a snapshot — the profiler samples this on every function
    entry/exit. *)

val read : unit -> snapshot

val reset : unit -> unit
(** Reset the check counters only.  Tier and concurrency counters are
    separate families with their own resets; use {!reset_all} when a full
    reset is intended. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — per-field subtraction. *)

val total_checks : snapshot -> int
(** Bounds + load/store + indirect-call checks. *)

val hit_rate : snapshot -> float
(** Object-cache hit rate in percent (0 when no lookups were made). *)

val to_string : snapshot -> string

(** {1 Execution-tier counters}

    Accounting for the SVM's compiled engine (closure-compiled functions
    with a signed translation cache, Section 3.4).  Kept in a separate
    snapshot: AOT leaves every field of {!snapshot} identical to the
    interpreter's — the differential tests rely on that — while these
    counters differ by design. *)

type tier_snapshot = {
  promotions : int;  (** functions translated to compiled code *)
  tcache_hits : int;  (** translations reused from the signed cache *)
  tcache_misses : int;
      (** fresh translations (cold cache or rejected signature) *)
  sig_verifications : int;
      (** signature re-verifications performed on cache probes *)
  tcache_disk_hits : int;
      (** translations reused from the persistent on-disk store *)
  tcache_disk_stale : int;
      (** on-disk entries rejected (tampered, truncated or stale) *)
  tcache_disk_writes : int;
      (** fresh signed entries persisted to the on-disk store *)
  superblocks : int;
      (** always 0: the closure compiler dispatches every block through
          one loop and forms no trace superblocks (they measured slower,
          EXPERIMENTS.md).  The field stays only because [bench/perf]
          reports it; it goes when that code moves onto the pipeline's
          public interface (ROADMAP item 2b). *)
}

val tier_zero : tier_snapshot
val bump_promotion : unit -> unit
val bump_tcache_hit : unit -> unit
val bump_tcache_miss : unit -> unit
val bump_sig_verification : unit -> unit
val bump_tcache_disk_hit : unit -> unit
val bump_tcache_disk_stale : unit -> unit
val bump_tcache_disk_write : unit -> unit
val read_tier : unit -> tier_snapshot

val reset_tier : unit -> unit
(** Independent of {!reset}: check counters and tier counters are reset
    separately. *)

val tier_to_string : tier_snapshot -> string

(** {1 Concurrency counters}

    Dynamic accounting for the SVA-OS concurrency primitives: interrupt
    masking and the spinlock operations.  Before this family existed,
    [sva_cli]/[sva_sti] were the only SVA-OS operations invisible to the
    profiler.  A separate snapshot for the usual reason: builds that add
    explicit critical sections change these counts by design while
    {!snapshot} must stay comparable across configurations. *)

type conc_snapshot = {
  cli_count : int;  (** [sva_cli] executions *)
  sti_count : int;  (** [sva_sti] executions *)
  lock_acquires : int;  (** [sva_lock_acquire] executions *)
  lock_releases : int;  (** [sva_lock_release] executions *)
  ipis_sent : int;  (** [sva_ipi_send] executions *)
  ipis_delivered : int;  (** IPI vectors delivered on a target CPU *)
}

val bump_cli : unit -> unit
val bump_sti : unit -> unit
val bump_lock_acquire : unit -> unit
val bump_lock_release : unit -> unit
val bump_ipi_sent : unit -> unit
val bump_ipi_delivered : unit -> unit
val read_conc : unit -> conc_snapshot
val reset_conc : unit -> unit
val diff_conc : conc_snapshot -> conc_snapshot -> conc_snapshot
val conc_to_string : conc_snapshot -> string

val reset_all : unit -> unit
(** {!reset} + {!reset_tier} + {!reset_conc}: clear every counter
    family.  This is what "reset the statistics" should almost always
    mean at a measurement boundary; forgetting a companion reset (the
    original [ukern_boot] bug) leaves stale tier counts in the report.
    Build-time certification counts are not counters: they are read
    from the built image ([Pipeline.range_counts],
    [Pipeline.poolcert_counts]). *)

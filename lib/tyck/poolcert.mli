(** The trusted pool-safety certificate checker (Section 5 discipline
    applied to the points-to layer).

    {!Sva_analysis.Pointsto} is a complex, interprocedural, untrusted
    analysis; every run-time check the verifier elides on its word —
    load/store checks skipped on type-homogeneous pools, "reduced
    checks" on incomplete pools, and indirect-call checks elided on
    either ground — is backed by an explicit certificate in a
    {!Sva_safety.Poolev.bundle}.  This module re-verifies the whole
    bundle against an independent scan of the (instrumented) IR, so the
    analysis need not be trusted:

    - {e membership}: the per-value metapool maps must satisfy the same
      purely local flow rules {!Tyck.check} enforces (gep preserves
      pool, phi/select never mix pools, loads/stores follow the pool's
      points-to edge, direct calls match callee qualifiers);
    - {e type homogeneity}: for each TH certificate the checker re-scans
      every load, store, gep, allocation and global of the pool and
      confirms all type evidence agrees with the claimed type, that at
      least one piece of evidence exists, that the witness's member list
      equals the checker's own use scan in both directions, that the
      pool never reaches the escape frontier, and that no
      memcpy/user-copy call could have collapsed it;
    - {e completeness}: the checker re-derives the escape frontier
      (arguments to and results of unanalyzed external calls,
      manufactured and untracked int-to-pointer casts, with the same
      call classification the analysis uses: allocators, copy and
      user-copy functions, known externs, SVA-OS operations and resolved
      internal syscalls do not leak), re-seeds userspace exposure from
      the registered syscall handlers, closes the seeds over the pool
      points-to edges, and requires every completeness certificate's
      verdict to match exactly — a pool falsely claimed complete loses
      its full checks elsewhere, and a pool falsely claimed incomplete
      silently drops to reduced checks, so both directions are errors —
      and its recorded frontier to equal the checker's site set;
    - {e elisions}: every recorded elision must name a real site of the
      right shape (a load/store/atomic for [lscheck] elisions, an
      indirect call for [funccheck] elisions) whose pointer maps to the
      named pool, backed by the matching certificate kind.

    Known over-approximations (they can reject sound bundles, never
    accept unsound ones the rules cover): direct calls to a declared
    allocator size function are never treated as escapes (the verifier
    inserts such calls after analysis), and a user-copy call whose peer
    pool has no type evidence blocks TH certificates on both sides.

    {!Inject} extends this with pool-certificate bug injection; every
    injected bug must be rejected here. *)

open Sva_ir
open Sva_analysis
open Sva_safety

val check :
  ?config:Pointsto.config -> Irmod.t -> Poolev.bundle -> Cert.error list
(** Verify every membership fact, certificate and elision record in the
    bundle against the given module (normally the instrumented module
    the pipeline just produced).  [config] must be the same porting
    configuration the analysis ran with — the allocator, copy-function
    and syscall declarations are part of the trusted porting step
    (Section 4.4) and decide how the checker classifies call sites.
    An empty result means every points-to-justified elision is
    independently justified. *)

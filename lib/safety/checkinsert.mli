(** Run-time check insertion — the verifier's instrumentation step
    (Section 4.5).

    For every analyzed function the pass inserts:

    - [pchk_reg_obj] / [pchk_drop_obj] around heap allocator calls, the
      SVA-Core [malloc]/[free] instructions, and aggregate stack slots
      (registered at [alloca], dropped at returns);
    - stack-to-heap promotion for slots whose address may outlive the
      frame (escaping allocas become [malloc] + [free]-at-return);
    - [pchk_bounds] after every [getelementptr] that cannot be proven safe
      at compile time (constant in-range indexing is safe; variable
      indexing is not);
    - [pchk_lscheck] before loads/stores through pointers of
      non-type-homogeneous pools (TH pools need no load/store checks;
      incomplete pools get none — "reduced checks");
    - [pchk_funccheck] before indirect calls, against the call-graph
      target set (elided when the function pointer comes from a TH pool);
    - a [__sva_register_globals] function registering every global in its
      metapool, called from every {!Sva_ir.Func.attr.Kernel_entry}
      function;
    - rewrites of [sva_pseudo_alloc] into metapool registrations
      (manufactured addresses, Section 4.7).

    The returned summary is the static-metrics source for Table 9. *)

open Sva_ir
open Sva_analysis

type options = {
  static_bounds : bool;
      (** prove constant in-range geps safe at compile time (on in the
          baseline; turning it off is the ablation for the Section 7.1.3
          discussion) *)
  th_elides_lscheck : bool;
      (** elide load/store checks on type-homogeneous pools *)
}

val default_options : options

type summary = {
  ls_inserted : int;
  ls_elided_th : int;  (** load/store checks skipped: TH pool *)
  ls_reduced_incomplete : int;  (** skipped: incomplete pool (§4.5) *)
  bounds_inserted : int;
  bounds_static : int;  (** geps proven safe statically *)
  funcchecks_inserted : int;
  funcchecks_elided : int;
  regs_inserted : int;  (** object registration points *)
  drops_inserted : int;
  stack_promoted : int;  (** allocas promoted to the heap *)
  ls_proved_static : int;
      (** load/store checks elided on a static lint proof (would have
          been inserted otherwise — TH/incomplete elisions are counted
          under their own fields first) *)
  bounds_static_range : int;
      (** variable-index geps whose bounds check was elided on a
          verified interval-analysis certificate (the [ranges] oracle);
          the constant-index cases are counted under [bounds_static] *)
}

val static_safe : Ty.ctx -> Value.t -> Value.t list -> bool
(** Is a constant-indexed gep provably in bounds of the base's static
    type?  The first index must be 0 (a pointer is treated as one
    object); array indexes must lie within the static array length.
    Shared with the lint layer's safe-access prover so both agree on
    what "statically safe indexing" means. *)

val gep_access_len : Ty.ctx -> Instr.t -> int
(** The byte size accessed through a gep's result (the scalar or
    aggregate the result points to); 1 when unsized. *)

val run :
  ?options:options ->
  ?proofs:(fname:string -> int -> bool) ->
  ?ranges:(fname:string -> Instr.t -> bool) ->
  ?poolcert:Poolev.bundle ->
  Irmod.t ->
  Pointsto.result ->
  Metapool.t ->
  Allocdecl.t list ->
  summary
(** Instrument the module in place.  The module must verify before and
    will verify after.  Functions with {!Func.attr.Noanalyze} are left
    untouched.

    [proofs] is the static lint layer's safe-access oracle: when it
    returns [true] for a load/store instruction, the [pchk_lscheck]
    that would have been inserted is elided and counted in
    [ls_proved_static].  Proofs are consulted only for checks that
    survive the TH/incompleteness elisions, so the count measures
    genuinely new elisions.

    [ranges] is the interval analysis's certificate oracle
    ({!Sva_analysis.Interval.elide} partially applied): when it returns
    [true] for a variable-index gep, the [pchk_bounds] that would have
    been inserted is elided and counted in [bounds_static_range].  The
    oracle is expected to materialize a certificate for each elision it
    grants, so the trusted checker can re-verify every one.

    [poolcert] is the pool-safety evidence bundle: when present, every
    TH/incompleteness [lscheck] elision and every [funccheck] elision
    appends an {!Poolev.elision} record naming its site and metapool, so
    the trusted checker ([Sva_tyck.Poolcert]) can tie each skipped check
    to a verified certificate.  Recording is pure observation — the
    instrumentation decisions and the summary are bit-identical with and
    without it. *)

val runtime_pools :
  ?smp:Sva_rt.Smp.t -> ?user_range:int * int -> Metapool.t ->
  (int * Sva_rt.Metapool_rt.t) list
(** Build the run-time pools for the inferred metapools, keyed by metapool
    id for the interpreter.  [smp] threads the owning SVM instance's CPU
    context into each pool so its lookup-cache shards follow the executing
    CPU (default: a private 1-CPU context per pool).  [user_range =
    (base, size)] registers all of userspace as a single object in every
    pool reachable from syscall arguments (Section 4.6). *)

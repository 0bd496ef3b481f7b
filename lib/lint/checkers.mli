(** The sanitizer passes: four static checkers built on
    {!Sva_analysis.Dataflow}.

    Three produce {!Report.finding}s — user-pointer taint, definite
    null/uninitialized dereference (the static side of guarantee T4),
    and interrupt-context allocation safety.  The fourth is a prover:
    it emits per-instruction proofs that a load/store cannot fault,
    which {!Sva_safety.Checkinsert} consumes to elide the corresponding
    run-time checks (Section 7.1.3). *)

open Sva_ir
open Sva_analysis

type config = {
  lc_trusted : string list;
      (** functions allowed to dereference user pointers
          (copy_from_user/copy_to_user style); their bodies are skipped
          and taint does not propagate into them *)
  lc_sleeping : string list;
      (** allocators that may sleep, forbidden in interrupt context *)
  lc_interrupt_register : string;
      (** SVA-OS operation registering interrupt handlers *)
  lc_free_functions : string list;
      (** deallocation functions (kfree, ...): passing a global-derived
          pointer to one disqualifies that global from safety proofs *)
}

val default_config : config

type ctx
(** Shared checker state: the module, points-to results, call graph and
    a per-function CFG cache. *)

val make_ctx : ?config:config -> Irmod.t -> Pointsto.result -> ctx

val iterations : ctx -> int
(** Total dataflow block visits performed so far, over all checkers. *)

val user_taint : ctx -> Report.finding list
(** Dereferences of pointers derived from syscall-handler arguments
    outside the trusted user-copy functions.  Interprocedural: a call
    passing a tainted value taints the callee's parameter. *)

val null_deref : ctx -> Report.finding list
(** Loads/stores through provably-null or uninitialized pointers.
    Branch-sensitive ([p == 0] refines the facts on each edge) and
    deliberately definite-only: a clean kernel reports nothing. *)

val irq_sleep : ctx -> Report.finding list
(** Calls to sleeping allocators in functions reachable from registered
    interrupt handlers. *)

type proof = { pr_func : string; pr_instr : int }

val safe_access :
  ?ranges:(fname:string -> Instr.t -> bool) -> ctx -> proof list
(** Loads/stores provably inside a known-size, known-live object:
    non-escaping constant-size allocas and (module-wide never-freed)
    globals, through statically-in-bounds geps.  [ranges] widens the
    in-bounds test to variable-index geps the interval analysis
    certified in extent ({!Sva_analysis.Interval}); each [true] answer
    is expected to be backed by a certificate the trusted checker
    re-verifies. *)

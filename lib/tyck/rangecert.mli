(** The trusted range-certificate checker (Section 5 discipline applied
    to bounds proofs).

    {!Sva_analysis.Interval} is a complex, interprocedural, untrusted
    analysis; every check it elides is backed by a certificate — a chain
    of per-register interval {e facts}, each carrying a justification
    checkable with purely local rules (the defining instruction's
    operands, a dominating branch edge, or a module-level claim).  This
    module re-verifies the whole bundle from scratch: it re-derives
    control flow, dominance, call sites and address escapes itself, and
    shares only the pure arithmetic kernel ({!Sva_analysis.Interval}'s
    transfer functions, exercised by its selftest against {!Constfold})
    with the producer.  Only this checker and that kernel are in the
    trusted computing base — exactly how {!Tyck} keeps the points-to
    analysis out of the TCB for metapool qualifiers.

    {!inject} perturbs certificate bundles with six bug kinds; {!check}
    must reject every one of them. *)

open Sva_ir
module I = Sva_analysis.Interval

val check : ?entries:(string -> bool) -> Irmod.t -> I.bundle -> Cert.error list
(** Verify every fact, module-level claim and certificate in the
    bundle.  [entries] must be the same trusted configuration the
    analysis ran with ({!Sva_analysis.Interval.entry_config}): functions
    callable from outside the module, whose parameter claims are
    therefore unverifiable.  Facts claiming [top] are vacuous and
    accepted.  An empty result means every range-based elision is
    justified. *)

(** {1 Certificate-bug injection}

    The Section 5 experiment transposed to range certificates: each
    injector perturbs a {e copy} of the bundle at a concrete site
    (deterministically selected by [seed]) in a way that makes the
    bundle unsound or ill-formed, and the checker must reject it. *)

type bug =
  | Shrink_fact  (** a fact claims a strictly narrower interval *)
  | Wrong_reg  (** a premise rewired to a fact about another register *)
  | Wrong_edge  (** a guard fact cites a branch edge it doesn't hold on *)
  | Drop_dep  (** a load-bearing premise removed *)
  | Tighten_param  (** a parameter claim excludes a passed argument *)
  | Tighten_ret  (** a return claim excludes a returned value *)

val bug_name : bug -> string
val all_bugs : bug list

val copy_bundle : I.bundle -> I.bundle
(** Deep copy (injection never mutates the original bundle). *)

val inject :
  Irmod.t -> I.bundle -> bug -> seed:int -> (I.bundle * string) option
(** Produce a buggy bundle copy and a description of the injected bug,
    or [None] if no suitable site exists for this seed (the experiment
    driver then tries the next seed). *)

val cert : entries:(string -> bool) -> I.bundle Cert.t
(** The checker under the trusted configuration [entries], with the six
    injectors above. *)

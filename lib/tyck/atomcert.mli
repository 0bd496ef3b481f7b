(** The trusted atomicity-certificate checker (Section 5 discipline
    applied to concurrency proofs).

    {!Sva_analysis.Lockset} is a complex, interprocedural, untrusted
    analysis; every race obligation it discharges is backed by a
    certificate — claimed block-entry protection facts per function plus
    a protection claim per shared access.  This module re-verifies the
    whole bundle with purely local rules: block claims must be inductive
    under the one-instruction transfer kernel, entry claims must be
    justified by the trusted root configuration and by every direct call
    site (replayed from the caller's own checked claims; address-taken
    non-roots and calls from uncertified callers are assumed worst-case
    unprotected), and each access certificate must name a real
    load/store of the claimed global whose replayed fact justifies the
    claim.  Only this checker and the shared transfer kernel are in the
    TCB — exactly the {!Rangecert} split.

    {!inject} perturbs certificate bundles with six bug kinds; {!check}
    must reject every one of them. *)

open Sva_ir
module L = Sva_analysis.Lockset

val check :
  ?entries:(string -> L.prot option) -> Irmod.t -> L.bundle -> Cert.error list
(** Verify every function certificate and access certificate in the
    bundle.  [entries] must be the trusted root configuration the
    analysis ran with ({!Sva_analysis.Lockset.entry_config}): handlers
    invoked by the SVM dispatcher and the boundary protection the
    dispatcher establishes.  An empty result means every discharged
    atomicity obligation is justified. *)

(** {1 Certificate-bug injection}

    Each injector perturbs a {e copy} of the bundle at a concrete site
    (deterministically selected by [seed]) in a way that makes it
    unsound or ill-formed, and the checker must reject it. *)

type bug =
  | Claim_mask  (** an access claims interrupts masked where they are not *)
  | Claim_lock  (** an access claims a lock it does not hold *)
  | Inflate_block  (** a block-entry claim strengthened beyond the fixpoint *)
  | Inflate_entry  (** a function entry claim stronger than its entries *)
  | Wrong_instr  (** an access certificate rewired to another instruction *)
  | Wrong_global  (** an access certificate naming the wrong global *)

val bug_name : bug -> string
val all_bugs : bug list

val copy_bundle : L.bundle -> L.bundle
(** Injection never mutates the original bundle. *)

val inject : Irmod.t -> L.bundle -> bug -> seed:int -> (L.bundle * string) option
(** Produce a buggy bundle copy and a description of the injected bug,
    or [None] if no suitable site exists. *)

val cert : entries:(string -> L.prot option) -> L.bundle Cert.t
(** The checker under the trusted root configuration [entries], with the
    six injectors above. *)

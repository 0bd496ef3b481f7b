(** The SVA safety type system and its checker (Section 5).

    The safety-checking compiler's results are encoded as {e metapool
    qualifiers} on pointer values: a pointer [int *M1 Q] targets objects
    in metapool [M1]; a pointer [int *M2 *M3 P] targets objects in [M3]
    whose pointer fields target [M2].  The full annotation is therefore a
    per-value metapool assignment plus a points-to edge [succ] per
    metapool, plus type-homogeneity claims.

    The {e proof producer} ({!extract}) derives the annotations from the
    (complex, interprocedural, untrusted) points-to analysis.  The
    {e checker} ({!check}) verifies them with purely local rules — just
    the operands of each instruction — so only the checker is in the
    trusted computing base.  The rules, following the paper's example: if
    [Q : int *M1] is assigned [*P] where [P : int *M2 *M3], the checker
    requires [succ(M3) = M2 = M1].

    {!Inject} perturbs annotations with the four bug kinds of the
    Section 5 experiment; {!check} must reject all of them. *)

open Sva_ir
open Sva_analysis
open Sva_safety

type annot = {
  an_value_mp : (string * int, int) Hashtbl.t;
      (** (function, register id) -> metapool qualifier *)
  an_global_mp : (string, int) Hashtbl.t;  (** global symbol -> metapool *)
  an_fn_mp : (string, int) Hashtbl.t;  (** function symbol -> metapool *)
  an_ret_mp : (string, int) Hashtbl.t;  (** function -> metapool of result *)
  an_succ : (int, int) Hashtbl.t;  (** metapool -> metapool its cells target *)
  an_th : (int, Ty.t) Hashtbl.t;  (** type-homogeneity claims *)
}

val extract : Irmod.t -> Pointsto.result -> Metapool.t -> annot
(** The proof producer: encode the analysis results as annotations. *)

val check : ?trusted:string list -> Irmod.t -> annot -> Cert.error list
(** The trusted checker.  Purely intraprocedural and local; empty result
    means the annotations are consistent.

    [trusted] names the functions declared to the compiler during porting
    (allocators and their size/free functions, the memcpy-style and
    user-copy functions, the SVA-OS registration operations): calls to
    them are governed by those declarations rather than by the
    argument-qualifier rule, exactly as the paper places the allocator
    declarations inside the trusted porting step (Section 4.4). *)

val trusted_of_config : Sva_analysis.Pointsto.config -> string list
(** The trusted-interface set implied by an analysis configuration. *)

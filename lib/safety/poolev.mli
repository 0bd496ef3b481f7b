(** Pool-safety evidence bundle — the untrusted half of the poolcert
    split (Section 5's proof-carrying discussion applied to the points-to
    layer, the same producer/checker seam as the range and atomicity
    certificates).

    {!create} distills the Pointsto/Metapool classification into
    per-value metapool membership tables plus explicit certificates:

    - a {e TH certificate} per pool the analysis claims type-homogeneous,
      carrying the claimed type τ and every recorded member access site;
    - a {e completeness certificate} per pool, carrying the claimed
      complete/incomplete verdict and the escape-frontier witness (the
      external-call / int-to-pointer sites that expose it);

    and {!Checkinsert.run} appends one {!elision} record for every check
    it leaves out on points-to grounds.  Nothing in this module is
    trusted: [Sva_tyck.Poolcert] re-verifies the whole bundle against an
    independent IR scan, so [Pointsto] stays out of the TCB. *)

open Sva_ir

type site = { s_func : string; s_instr : int }
(** An instruction, identified stably across instrumentation (inserted
    checks get fresh ids; existing ids are never renumbered). *)

type th_cert = {
  tc_mp : int;  (** metapool id *)
  tc_ty : Ty.t;  (** claimed homogeneous (array-reduced) type *)
  tc_members : site list;
      (** every load/store/gep/atomic access site recorded for the pool —
          the checker's independent use-scan must find exactly these *)
}

type comp_cert = {
  cc_mp : int;
  cc_complete : bool;
  cc_frontier : site list;
      (** direct escape sites (external calls, manufactured pointers)
          exposing the pool; must be exhaustive per the checker's scan *)
}

(** Why a [funccheck] was elided at an indirect call. *)
type fc_just =
  | Fc_th  (** the callee pool is type-homogeneous *)
  | Fc_incomplete  (** the callee pool is incomplete (reduced checks) *)

type elision =
  | El_th of site * int  (** [lscheck] elided: TH pool (site, mp) *)
  | El_reduced of site * int  (** [lscheck] skipped: incomplete pool *)
  | El_func of site * int * fc_just  (** [funccheck] elided *)

type bundle = {
  pb_value_mp : (string * int, int) Hashtbl.t;  (** (func, reg) → mp *)
  pb_global_mp : (string, int) Hashtbl.t;
  pb_fn_mp : (string, int) Hashtbl.t;
  pb_ret_mp : (string, int) Hashtbl.t;
  pb_succ : (int, int) Hashtbl.t;  (** points-to edge, mp level *)
  mutable pb_th : th_cert list;
  mutable pb_comp : comp_cert list;
  mutable pb_elisions : elision list;
}

val create : Irmod.t -> Sva_analysis.Pointsto.result -> Metapool.t -> bundle
(** Extract membership maps and TH/completeness certificates from the
    analysis results.  Pure observation: building a bundle never changes
    classification, instrumentation or run-time behaviour. *)

val mp_of_value : bundle -> string -> Value.t -> int option
(** Metapool of a value occurring in the named function, per the
    membership tables (not per the live points-to graph). *)

val sort_sites : site list -> site list
(** Sort and dedupe by (function, instr). *)

val record_elision : bundle -> elision -> unit

val cert_count : bundle -> int
(** TH + completeness certificates. *)

val elision_count : bundle -> int

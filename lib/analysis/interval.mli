(** Value-range abstract interpretation over the SVA IR, with
    exportable range certificates.

    The analysis is {e untrusted} in the Section 5 sense: it computes
    per-register intervals (widening/narrowing at loop heads,
    branch-sensitive refinement on [icmp]-guarded edges, interprocedural
    argument/return summaries over the call graph) and, for every
    variable-index [getelementptr] it can prove in-extent, emits a
    {!cert} whose {!fact} chain the small trusted checker
    ({!Sva_tyck.Rangecert}) re-verifies with purely local rules.  A
    producer-side validation pass replays those rules and widens any
    fact it cannot re-establish, so every emitted certificate passes the
    checker verbatim. *)

open Sva_ir

(** {1 The interval domain} *)

(** [Iv (lo, hi)] with [None] as the infinite bound; values are the
    SVM's canonical (sign-extended) register representation. *)
type ival = Bot | Iv of int64 option * int64 option

val top : ival
val const : int64 -> ival

val range : int64 -> int64 -> ival
(** [range lo hi]; [Bot] if [lo > hi]. *)

val is_top : ival -> bool
val equal_ival : ival -> ival -> bool

val join_ival : ival -> ival -> ival
(** Least upper bound.  [join_ival], {!meet_ival} and {!widen_ival}
    return an argument itself whenever the result equals it. *)

val meet_ival : ival -> ival -> ival

val widen_ival : ival -> ival -> ival
(** [widen_ival old cur]: an upper bound of both in which each bound of
    [cur] that moved past [old]'s is infinite. *)

val subset : ival -> ival -> bool
(** Inclusion order of the lattice. *)

val contains : ival -> int64 -> bool

val width_range : int -> ival
(** The canonical value range of a [w]-bit register. *)

val wrap : int -> ival -> ival
(** Sound post-operation clamp at a bit width: identity if the interval
    fits the representable range, else the full width range. *)

val eval_binop : Instr.binop -> int -> ival -> ival -> ival
(** Abstract transfer of {!Constfold.eval_binop} at the given width. *)

val refine : Instr.icmp -> [ `Left | `Right ] -> ival -> ival
(** [refine op side other]: constraint on the subject operand given that
    the comparison evaluated to TRUE ([`Left]: subject is the left
    operand).  Meet it with the subject's current interval. *)

val ival_to_string : ival -> string

val eval_def : Instr.t -> ival list -> ival
(** Abstract result of a defining instruction over its operand
    intervals (in {!Instr.operands} order; top for unmodeled kinds) —
    the rule the trusted checker replays for [Jdef] facts. *)

val branch_cond :
  lookup:(int -> Instr.t option) ->
  Value.t ->
  pos:bool ->
  (Instr.icmp * Value.t * Value.t) option
(** Resolve a branch condition to the comparison that decides it,
    peeling the int-cast and boolean-retest chains the frontend
    produces; [pos] is true on the then-edge.  Shared with the trusted
    checker so producer and checker agree on guard semantics. *)

val gep_extents : Ty.ctx -> Instr.t -> (int * int * int) list option
(** [(operand position, index register, array length)] per variable
    index of a gep whose constant parts are statically in extent
    (leading zero index, in-range constants, valid struct fields);
    [None] when the gep has no variable index or is out of shape. *)

(** {1 Facts and certificates} *)

(** How a fact is justified; each constructor has a local re-checking
    rule in {!Sva_tyck.Rangecert}. *)
type just =
  | Jwide  (** full canonical range of the register's width *)
  | Jdef  (** re-evaluate the defining instruction over the dep facts *)
  | Jphi  (** inductive: every incoming value inside the claim *)
  | Jguard of { jg_src : string; jg_dst : string }
      (** meet with the branch constraint of edge [jg_src -> jg_dst]
          (the unique predecessor edge of [jg_dst]) *)
  | Jparam of int  (** module-level parameter claim *)
  | Jret of string  (** module-level return claim of the named callee *)

type fact = {
  fa_reg : int;
  mutable fa_ival : ival;
  fa_just : just;
  mutable fa_deps : int option list;
      (** indices of premise facts in the same function's fact array *)
  fa_valid : string;
      (** block where the fact holds (and every block it dominates) *)
}

type cert_kind = Cbounds | Cls

type cert = {
  ce_func : string;
  ce_block : string;
  ce_gep : int;  (** instruction id of the certified gep *)
  ce_kind : cert_kind;
  ce_idx : (int * int) list;
      (** (gep operand position, fact index) per variable index *)
}

type bundle = {
  cb_facts : (string, fact array) Hashtbl.t;
  cb_params : (string * int, ival) Hashtbl.t;
      (** verified parameter claims: (function, param index) -> range *)
  cb_rets : (string, ival) Hashtbl.t;  (** verified return claims *)
  cb_certs : cert list;
}

(** {1 Running the analysis} *)

type result

val run :
  ?entries:(string -> bool) -> Irmod.t -> Pointsto.result -> result
(** [run m pa] analyzes every [Noanalyze]-free function.  [entries]
    (default: every function) marks functions callable from outside the
    module: their parameters are only known to be width-canonical.
    Address-escaping, varargs and [Kernel_entry] functions are treated
    as entries regardless. *)

val certifiable : result -> fname:string -> Instr.t -> bool
(** Does a verified in-extent certificate exist for this gep? *)

val elide : result -> fname:string -> Instr.t -> cert_kind -> bool
(** Like {!certifiable}, and on success idempotently materializes the
    certificate into the bundle (call it when an elision is taken). *)

val certify_all : result -> Irmod.t -> unit
(** {!elide} every certifiable gep of the module as a bounds check:
    materializes the certificates the self-tests and dumps report. *)

val bundle : result -> bundle
(** Everything the trusted checker needs: facts, module-level claims and
    the materialized certificates. *)

val cert_counts : result -> int * int
(** Materialized certificates: [(bounds, lscheck)]. *)

val fact_count : result -> int
val iterations : result -> int

val entry_config : result -> string -> bool
(** The [entries] predicate the analysis ran with (the checker must be
    given the same trusted configuration). *)

val plain_facts : result -> fname:string -> (int * ival) list
(** Guard-free per-register fixpoint (non-top entries only). *)

val func_summary : result -> string -> (ival array * ival) option
(** Interprocedural (parameter ranges, return range) summary. *)

val analyzed_funcs : result -> string list
val just_to_string : just -> string
val cert_kind_to_string : cert_kind -> string

val selftest : unit -> int
(** Deterministic soundness check of the arithmetic kernel against
    {!Constfold} on sampled intervals and concrete values; returns the
    number of checks performed.  @raise Failure on any violation. *)

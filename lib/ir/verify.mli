(** Module and SSA verifier.

    Checks the structural well-formedness that the SVM relies on before
    translating bytecode (Section 3.4): unique SSA definitions, uses
    dominated by definitions, type-correct instructions, branch targets
    that exist, calls that match their callee signatures, and phi nodes
    consistent with the CFG.  This is distinct from — and a prerequisite
    of — the safety type checker of Section 5 ({!Sva_tyck}). *)

type error = { ve_func : string; ve_block : string; ve_msg : string }

val string_of_error : error -> string

val verify_module : Irmod.t -> error list
(** Verify every defined function plus module-level invariants (no
    duplicate symbols, extern/definition type agreement). *)

val check : Irmod.t -> unit
(** @raise Failure with a readable report if {!verify_module} finds
    errors. *)

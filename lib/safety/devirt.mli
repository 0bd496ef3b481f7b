(** Devirtualization of indirect calls (Section 4.8).

    "With a small enough target set, it is profitable to 'devirtualize'
    the call, i.e., to replace the indirect function call with an explicit
    switch or branch, which also allows the called functions to be
    inlined."

    For an indirect call whose points-to target set is complete,
    signature-compatible and of at most 4 functions, the call is rewritten
    into a compare-and-branch chain of direct calls with a trapping
    default (the control-flow-integrity guarantee is then enforced by
    construction, with no run-time set lookup).  Applied only inside
    functions carrying {!Sva_ir.Func.attr.Callsig_assert}, as in the
    paper. *)

open Sva_ir
open Sva_analysis

val run : ?poolcert:Poolev.bundle -> Irmod.t -> Pointsto.result -> int
(** Rewrite eligible call sites; returns how many were devirtualized.
    Re-verifies the module.  When [poolcert] is given, each
    rewritten site appends a {!Poolev.dv_cert} naming the callee's pool
    and claimed target set for the trusted checker to re-verify against
    the generated dispatch blocks and the module's address-taken
    functions. *)

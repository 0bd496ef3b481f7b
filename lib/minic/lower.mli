(** Lowering MiniC to SVA IR.

    This is the "front-end compiler translates source code to SVA bytecode"
    step of Section 2.  Lowering is deliberately naive — every local lives
    in an [alloca]'d stack slot and every access goes through loads and
    stores — because SSA construction belongs to {!Sva_ir.Mem2reg}, exactly
    as a production C front end leaves SSA to the optimizer.

    Calls to functions whose names begin with ["llva."], ["sva."] or
    ["pchk."] lower to {!Sva_ir.Instr.kind.Intrinsic} operations; their
    signatures must be introduced by [extern] declarations. *)

exception Lower_error of string

val compile_string : name:string -> string -> Sva_ir.Irmod.t
(** Parse and lower a single source string. *)

val compile_strings : name:string -> string list -> Sva_ir.Irmod.t
(** Parse and lower several source strings as one program (signatures
    are collected across all of them first, so definition order does not
    matter).  The result is verified with {!Sva_ir.Verify.check}.
    @raise Lower_error on type errors. *)

(** Pass pipelines modelling the code generators compared in Section 7.1.

    The paper measures four kernels; two of the axes are the C compiler
    used (GCC vs the LLVM C compiler) and whether the safety-checking
    passes run.  Here the compiler axis is modelled by two optimization
    pipelines over SVA IR; the safety axis lives in {!Sva_safety}. *)

type pipeline =
  | Gcc_like  (** mem2reg + constant folding + DCE *)
  | Llvm_like  (** mem2reg + constant folding + local CSE + DCE, to fixpoint *)

val run : pipeline -> Irmod.t -> unit
(** Run the pipeline over the module and re-verify the result.
    @raise Failure if a pass breaks IR well-formedness (a compiler bug). *)

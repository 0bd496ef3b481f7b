(** Promotion of stack slots to SSA registers.

    The MiniC front end lowers every local variable to an [alloca] plus
    loads and stores; this pass rewrites promotable slots into pure SSA
    form (phi placement at iterated dominance frontiers followed by
    renaming over the dominator tree).  Running it gives the analyses the
    "infinite virtual register set in SSA form" the paper relies on
    (Section 3.1) and removes spurious memory objects from the points-to
    graph.

    An alloca is promotable when it allocates a single scalar (integer,
    float or pointer) and its address is used only as the pointer operand
    of loads and stores — never stored itself, passed to a call, indexed,
    or cast. *)

val run_func : Func.t -> int
(** Promote all promotable allocas of a function; returns the number of
    slots promoted. *)

val run : Irmod.t -> int
(** Run over every defined function; returns total promotions. *)

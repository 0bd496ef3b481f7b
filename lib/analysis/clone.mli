(** Function cloning to reduce spurious points-to merging (Section 4.8).

    "Different objects passed into the same function parameter from
    different call sites appear aliased and are therefore merged into a
    single partition... Cloning the function so that different copies are
    called for the different call sites eliminates this merging.  Of
    course, cloning must be done carefully to avoid a large code blowup."

    Heuristic (as in the paper, "chosen intuitively"): clone a defined,
    non-recursive function that has at least one pointer parameter, at
    most 40 instructions, and between 2 and 4 direct call sites; every
    call site after the first calls its own copy.  Applied {e before} the
    points-to analysis. *)

open Sva_ir

val run : Irmod.t -> int
(** Clone per the heuristic; returns the number of clones created.
    Re-verifies the module. *)

val clone_function : Irmod.t -> Func.t -> string -> Func.t
(** [clone_function m f name] — a deep copy of [f] under a new name,
    added to the module.  @raise Invalid_argument on duplicate name. *)

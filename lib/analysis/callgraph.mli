(** Call graph construction over the points-to results.

    The control-flow-integrity guarantee (T1) requires that indirect calls
    only reach functions in the compiler-computed call graph; the verifier
    inserts indirect call checks against exactly these target sets
    (Section 4.5).  Direct calls are trivially resolved; indirect-call
    targets come from the function sets of the callee's points-to node,
    optionally narrowed by the call-signature assertions of Section 4.8. *)

open Sva_ir

type t

type callsite = {
  cs_func : string;  (** calling function *)
  cs_instr : int;  (** call instruction id *)
  cs_direct : string option;  (** [Some callee] for direct calls *)
  cs_targets : string list;  (** possible callees (singleton for direct) *)
}

val build : Irmod.t -> Pointsto.result -> t

val callsites : t -> callsite list

val callees : t -> string -> string list
(** All functions possibly called (directly or indirectly) by [fname]. *)

val callers : t -> string -> string list
(** All functions that may call [fname]. *)

val indirect_fanout : t -> (callsite * int) list
(** Indirect call sites with their target-set sizes — the metric the
    devirtualization discussion of Section 4.8 reports (1189 callees
    falling to 3-61 with signature assertions). *)

val reachable_from : t -> string list -> string list
(** Functions reachable from the given roots (for dead-function metrics). *)

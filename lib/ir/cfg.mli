(** Control-flow graph utilities: successor/predecessor maps, reachability,
    reverse postorder, dominator tree (Cooper-Harvey-Kennedy), and loop
    back edges (the widening points of the interval analysis). *)

type t

val build : Func.t -> t
(** Compute the CFG of a function.  The function is not mutated; rebuild
    after transforming. *)

val successors : t -> string -> string list
val predecessors : t -> string -> string list

val reachable : t -> string list
(** Labels reachable from the entry, in reverse postorder. *)

val is_reachable : t -> string -> bool

val idom : t -> string -> string option
(** Immediate dominator; [None] for the entry block. *)

val dominates : t -> string -> string -> bool
(** [dominates cfg a b] — does block [a] dominate block [b]?  Reflexive. *)

val back_edges : t -> (string * string) list
(** Edges [(src, dst)] where [dst] dominates [src] — loop back edges. *)

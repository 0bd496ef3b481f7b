(** Control-flow graph utilities: successor/predecessor maps, reachability,
    reverse postorder, dominator tree (Cooper-Harvey-Kennedy), and loop
    back edges (the widening points of the interval analysis).

    A graph is dense: its nodes are numbered, the function's distinct
    block labels first in [f_blocks] order (node 0 is the entry), then
    any label a terminator names that no block carries.  Every answer of
    the label API is computed once per graph. *)

type t

val build : Func.t -> t
(** The CFG of a function.  The function is not mutated.  While
    [f.f_blocks] is physically the same list and every terminator names
    the same successor labels in the same order, [build f] returns the
    graph it built for [f] before, so a pass that rewrites instructions
    or terminator operands keeps it.  Changing the block list or any
    branch target gets a fresh graph.  The reuse is held weakly by [f]:
    it dies with the function. *)

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

(** {2 Node API}

    The same graph by node number, for solvers that keep their facts in
    arrays. *)

val size : t -> int
(** Number of nodes. *)

val index : t -> string -> int
(** @raise Not_found for a label the function never names. *)

val label : t -> int -> string

val block : t -> int -> Func.block
(** The first block carrying the node's label.
    @raise Not_found for a label no block carries. *)

val find_block : t -> string -> Func.block
(** [block t (index t label)]: {!Func.find_block} without the list scan. *)

val rpo : t -> int array
(** Reachable nodes in reverse postorder (do not mutate). *)

val succ : t -> int -> int array
(** Distinct successors, in the order the terminator names them. *)

val pred : t -> int -> int array
(** Distinct predecessors, in block order (the order of {!predecessors}). *)

val reachable_at : t -> int -> bool
val dominates_at : t -> int -> int -> bool

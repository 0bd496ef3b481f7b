(** A generic iterative dataflow framework over {!Sva_ir.Cfg}.

    The solver is a forward worklist algorithm on basic blocks: block
    facts are joined over the incoming edges, pushed through a client
    transfer function, and the block's successors are revisited until
    the facts stop changing.  Blocks are visited in reverse post-order,
    which makes convergence fast on reducible flow graphs and the result
    order-deterministic.

    The lattice is a client module: the solver only needs [bottom],
    [join] and [equal].  Monotone transfer functions over a
    finite-height lattice terminate; the solver additionally caps the
    number of sweeps as a defence against a buggy client and reports the
    iteration count so tests can assert convergence behaviour.

    Three extension points cover the clients' needs:

    - [edge]: an optional refinement applied to a fact as it flows along
      one CFG edge — how conditional-branch information ("[p] is null on
      the true edge", "[i < n] here") enters the analysis;
    - [widen]: an optional extrapolation applied on block revisits, so
      infinite-height lattices (e.g. {!Interval}) converge;
    - {!Summaries}: a worklist fixpoint over function names used for
      interprocedural propagation through {!Callgraph} summaries. *)

open Sva_ir

module type LATTICE = sig
  type t

  val bottom : t
  (** The "no information yet" element; the initial in-fact of every
      block except the entry. *)

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) : sig
  type result = {
    input : string -> L.t;  (** fact at block entry *)
    output : string -> L.t;  (** fact at block exit *)
    iterations : int;
        (** total block visits performed before the fixpoint *)
  }

  val solve :
    ?entry:L.t ->
    ?edge:(src:string -> dst:string -> L.t -> L.t) ->
    ?widen:(label:string -> old:L.t -> cur:L.t -> L.t) ->
    transfer:(Func.block -> L.t -> L.t) ->
    Func.t ->
    Cfg.t ->
    result
  (** [solve ~transfer f cfg] computes the fixpoint over [f]'s reachable
      blocks.  [entry] (default [L.bottom]) is the boundary fact of the
      entry block.  [edge] (default identity) refines a fact flowing
      along a specific edge {e before} it is joined into the
      destination.  [widen] (default none) is applied on revisits of a
      block to the previously stored input ([old]) and the freshly
      computed one ([cur]); it must return an upper bound of both, and
      for an infinite-height lattice it must stabilize every ascending
      chain (typically applied at loop headers only). *)
end

(** Interprocedural summary fixpoint: each function owns a summary value;
    [transfer] recomputes one function's view and may update any other
    function's summary through [update] (e.g. a caller tainting its
    callee's parameters).  Every function whose summary changes is
    re-queued, as are its callers, until nothing moves. *)
module Summaries : sig
  type 'a t

  val solve :
    Callgraph.t ->
    funcs:string list ->
    init:(string -> 'a) ->
    equal:('a -> 'a -> bool) ->
    transfer:(get:(string -> 'a) -> update:(string -> 'a -> unit) ->
              string -> unit) ->
    'a t

  val get : 'a t -> string -> 'a
  (** @raise Not_found for names outside [funcs]. *)
end

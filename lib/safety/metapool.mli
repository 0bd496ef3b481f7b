(** Metapool inference (Section 4.3).

    A {e metapool} is the run-time representation of one points-to graph
    partition.  Inference correlates the kernel's own pools with the
    partitions:

    - all allocation sites drawing from one kernel pool (one
      [kmem_cache_t]) must land in one metapool — if they map to several
      partitions, those partitions are merged (losing precision but
      staying correct);
    - an ordinary allocator ([kmalloc]) has full internal reuse, so all of
      its allocation sites share one metapool — unless the allocator's
      internal size classes are exposed (Section 6.2), in which case sites
      are grouped by the class their constant size falls into (sites with
      a non-constant size share a single variable-size group);
    - every remaining partition gets its own metapool.

    Each metapool records whether its partition is type-homogeneous and
    complete, which decides the checks the verifier inserts
    ({!Checkinsert}) and elides. *)

open Sva_ir
open Sva_analysis

type decl = {
  mp_id : int;
  mp_name : string;  (** "MP<n>", as in Figure 2 *)
  mp_node : Pointsto.node;  (** representative partition *)
  mp_th : bool;  (** type-homogeneous *)
  mp_complete : bool;
  mp_elem_size : int;  (** object size for TH pools; 0 when unknown *)
  mp_userspace : bool;
      (** userspace must be registered as one object in this pool (§4.6) *)
}

type t

val infer : Irmod.t -> Pointsto.result -> Allocdecl.t list -> t
(** Perform the merging steps above (mutating the points-to graph) and
    assign metapool ids. *)

val decls : t -> decl list

val of_node : t -> Pointsto.node -> decl option
(** The metapool of a partition ([None] for partitions that ended up with
    no memory role, e.g. pure function sets). *)

val of_value : t -> Pointsto.result -> fname:string -> Value.t -> decl option
(** Metapool targeted by a pointer value. *)

val to_string : t -> string

(** Unification-based (Steensgaard-style) points-to analysis with memory
    classes, type-homogeneity inference and completeness tracking — the
    interprocedural analysis underlying the SVA safety-checking compiler
    (Sections 4.1, 4.3, 4.8).

    Every pointer value in the analyzed module is mapped to a {e node} of
    the points-to graph; a node abstracts the partition of memory objects
    that pointer may target.  Unification keeps each pointer pointing to a
    unique node.  Nodes carry:

    - {e memory class flags} (Heap / Stack / Global / Function / Unknown /
      Userspace / Bios), as in the H/G/S/U markings of Figure 2;
    - an inferred {e homogeneous type}: pools whose accesses all agree on
      one type (or arrays thereof) are type-homogeneous (TH), enabling the
      compile-time type-safety argument of Section 4.1;
    - a {e completeness} bit: nodes exposed to unanalyzed code are
      incomplete and receive only "reduced checks" (Section 4.5).

    Kernel-specific refinements implemented here (Section 4.8):
    small-integer-to-pointer casts treated as null, pointer-sized integer
    tracking, internal syscalls resolved through [sva.register.syscall],
    and the userspace-copy merge heuristic. *)

open Sva_ir

(** Memory class flags. *)
type flag = Heap | Stack | Global | Unknown | Funcs | Userspace | Bios

type node
(** An equivalence class of memory objects (a points-to graph node).
    Mutable: unification may merge nodes at any time; always compare with
    {!same_node} and query through accessors. *)

(** How an instruction accesses memory — the classification used by the
    static safety metrics of Table 9. *)
type access_kind =
  | Acc_load
  | Acc_store
  | Acc_struct_index  (** getelementptr with constant field indexing *)
  | Acc_array_index  (** getelementptr with a variable or non-zero index *)

type access = {
  acc_func : string;
  acc_instr : int;  (** instruction id within the function *)
  acc_kind : access_kind;
  acc_node : node;  (** partition of the pointer operand's targets *)
}

type alloc_site = {
  al_func : string;
  al_instr : int;
  al_alloc : string;  (** allocator function name, or "malloc"/"alloca" *)
  al_node : node;  (** partition the allocated object belongs to *)
  al_pool_node : node option;  (** pool descriptor partition (pool allocs) *)
  al_size_class : int option;  (** exposed size class (ordinary allocs) *)
}

type escape_site = {
  es_func : string;
  es_instr : int;
  es_reason : string;  (** human-readable escape cause *)
  es_node : node;  (** partition exposed at this site *)
}
(** One point where a partition leaks to code the analysis cannot see: an
    argument to (or result of) an unanalyzed external call, a constant
    int-to-pointer cast, or an untracked-integer cast.  These are the raw
    material of the pool-safety completeness certificates: the escape
    frontier the trusted checker re-derives and compares against. *)

(** Analysis configuration — the porting inputs of Sections 4.3/4.4 plus
    the analysis-improvement toggles of Section 4.8. *)
type config = {
  allocators : Allocdecl.t list;
  copy_functions : string list;
      (** memcpy/memmove-style: [(dst, src, n)] argument order *)
  known_externs : string list;
      (** external functions with no pointer-capturing behaviour (memset,
          strlen, ...): calls to them neither merge partitions nor mark
          them incomplete *)
  user_copy_functions : string list;
      (** copy_to_user/copy_from_user-style functions: the improved merge
          heuristic applies (merge pointees, not the objects) *)
  syscall_register : string option;
      (** name of the SVA-OS operation registering syscall handlers *)
  syscall_invoke : string option;
      (** name of the intrinsic performing an internal syscall by number *)
  track_int_ptrs : bool;  (** track pointer-sized integers as pointers *)
  null_small_int_casts : bool;
      (** treat (T* )1, (T* )-1 error-encoding casts as null *)
  userspace_valid : bool;
      (** "entire kernel" mode: userspace registered as a valid object for
          syscall arguments, removing that incompleteness source *)
  externs_complete : bool;
      (** "entire kernel" mode: all entry points known to the analysis *)
}

val default_config : config
(** Empty allocator list, kernel heuristics on, "as tested" completeness. *)

type result

val run : ?config:config -> Irmod.t -> result
(** Analyze a module.  Functions carrying {!Func.Noanalyze} are treated as
    external code (their bodies are skipped and calls to them are
    unanalyzed-callee sinks), modelling kernel libraries left out of the
    safety-checking compilation (Section 7.2). *)

(** {2 Node queries} *)

val find : node -> node
(** Union-find representative (clients normally don't need this). *)

val same_node : node -> node -> bool
val node_id : node -> int
(** Stable id of the representative. *)

val has_flag : node -> flag -> bool
val node_ty : node -> Ty.t option
(** The homogeneous type, if the node is not collapsed. *)

val is_type_homog : node -> bool
(** Type-homogeneous: uncollapsed inferred type and no [Unknown] flag. *)

val is_complete : node -> bool

val node_succ : node -> node option
(** The partition that pointers stored in this partition's objects target
    (the points-to edge), if any. *)

val flags_to_string : node -> string
(** Compact flag string as in Figure 2, e.g. ["GHA"]. *)

(** {2 Result queries} *)

val nodes : result -> node list
(** All distinct representative nodes. *)

val value_node : result -> fname:string -> Value.t -> node option
(** Partition targeted by a pointer value occurring in function [fname]. *)

val reg_node : result -> fname:string -> int -> node option
(** Partition targeted by register [id] of function [fname]. *)

val global_node : result -> string -> node option
(** Partition containing global [name]. *)

val ret_node : result -> string -> node option
(** Partition targeted by the return value of function [name]. *)

val accesses : result -> access list
val alloc_sites : result -> alloc_site list

val escape_sites : result -> escape_site list
(** Every recorded escape-frontier site, in deterministic (function,
    instr) order.  One instruction may expose several partitions (one per
    escaping operand). *)

val is_sva_name : string -> bool
(** Is this the name of an SVA-OS operation or check intrinsic
    ([llva_]/[sva_]/[pchk_] prefix)?  Calls to these are implemented by
    the trusted SVM and are not escape sites; exported so the trusted
    certificate checker classifies call sites by the same rule. *)

val callsite_targets : result -> fname:string -> int -> string list
(** Possible callees of an indirect call instruction, per the points-to
    function sets (the indirect call check set of Section 4.5). *)

val syscall_table : result -> (int * string) list
(** Handlers registered through the configured syscall-registration
    operation, as (number, function). *)

val unify_nodes : result -> node -> node -> unit
(** Merge two partitions (used by metapool inference when a single kernel
    pool maps to several partitions, Section 4.3). *)

val node_count : result -> int

val dump : result -> string
(** Render all nodes with flags, type and edges — the Figure 2 dump. *)

val gep_enters_struct : Ty.ctx -> Ty.t -> Value.t list -> bool
(** Does a [getelementptr] with this base pointer type and index list
    descend into a structure field?  Such results are {e interior}
    pointers: their access types do not constrain the partition's
    homogeneous type (an element pointer into an array does not count —
    array elements are whole objects of the element type).  Shared by the
    analysis, the trusted checker and the bug injector so all three agree
    on the rule. *)

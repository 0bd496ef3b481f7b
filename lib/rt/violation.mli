(** Safety violations detected by the SVA run-time checks.

    A violation corresponds to a run-time check failing (Section 4.5) or an
    allocator-contract breach (Section 4.4).  Under SVM execution a
    violation raises {!Safety_violation}, which the virtual machine turns
    into a kernel trap — the hook where recovery mechanisms (Vino, Nooks,
    SafeDrive) would attach per Section 2. *)

type kind =
  | Bounds  (** [boundscheck] failed: indexing escaped the object *)
  | Load_store  (** [lscheck] failed: pointer outside every registered object *)
  | Indirect_call  (** call target not in the compiler's call graph set *)
  | Double_free  (** deallocating an object that is not live *)
  | Illegal_free  (** deallocating via a pointer not at an object start *)
  | Uninit_pointer  (** dereferencing an uninitialized/null pointer *)
  | Userspace_escape
      (** a userspace-supplied range crossing into kernel space (Section
          4.6's attack: "a buffer that starts in userspace but ends in
          kernel space") *)

type t = {
  v_kind : kind;
  v_metapool : string;  (** name of the metapool whose check fired ("" if none) *)
  v_addr : int;  (** offending address *)
  v_msg : string;  (** human-readable detail *)
}

exception Safety_violation of t

val violation : kind -> metapool:string -> addr:int -> string -> 'a
(** Count the violation in {!Stats} and raise {!Safety_violation}. *)

val kind_to_string : kind -> string
val to_string : t -> string

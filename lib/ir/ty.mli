(** Types of the SVA-Core virtual instruction set.

    The type system mirrors the LLVM-derived design described in Section 3.1
    of the paper: a small set of first-class scalar types, pointers, arrays,
    named structures and function types.  All instructions are typed and the
    module verifier ({!Verify}) checks every instruction against these
    types. *)

type t =
  | Void  (** no value; the result type of [store], [free], etc. *)
  | Int of int  (** integer of the given bit width: 1, 8, 16, 32 or 64 *)
  | Float  (** 64-bit IEEE floating point *)
  | Ptr of t  (** pointer to a value of the carried type *)
  | Array of t * int  (** fixed-size array: element type and element count *)
  | Struct of string  (** named structure; resolved through a {!ctx} *)
  | Func of t * t list * bool
      (** function type: return type, parameter types, varargs flag *)

type struct_def = {
  s_name : string;  (** structure tag *)
  s_fields : (string * t) list;  (** field name and type, in layout order *)
}
(** A named structure definition registered in a type context. *)

type ctx
(** Type context: the set of named structure definitions of a module. *)

val create_ctx : unit -> ctx
(** [create_ctx ()] is an empty type context. *)

val define_struct : ctx -> string -> (string * t) list -> struct_def
(** [define_struct ctx name fields] registers structure [name].
    @raise Invalid_argument if [name] is already defined with other fields. *)

val find_struct : ctx -> string -> struct_def
(** [find_struct ctx name] looks up a structure definition.
    @raise Not_found if [name] has not been defined. *)

val struct_names : ctx -> string list
(** All structure tags defined in the context, sorted. *)

val i1 : t
val i8 : t
val i16 : t
val i32 : t
val i64 : t
(** Common integer type abbreviations. *)

val sizeof : ctx -> t -> int
(** [sizeof ctx ty] is the size of [ty] in bytes using natural alignment.
    @raise Invalid_argument on [Void] or function types. *)

val alignof : ctx -> t -> int
(** Natural alignment of [ty] in bytes. *)

val field_offset : ctx -> string -> string -> int * t
(** [field_offset ctx sname fname] is the byte offset and type of field
    [fname] of structure [sname].  @raise Not_found if absent. *)

val field_index : ctx -> string -> string -> int
(** Index (position) of a field within its structure. *)

val field_at : ctx -> string -> int -> int * t
(** [field_at ctx sname i] is the byte offset and type of the [i]-th field. *)

val is_integer : t -> bool
val is_pointer : t -> bool
val is_float : t -> bool
(** Type classification predicates. *)

val pointee : t -> t
(** [pointee (Ptr t)] is [t].  @raise Invalid_argument on non-pointers. *)

val equal : t -> t -> bool
(** Structural type equality (struct types compare by name). *)

val to_string : t -> string
(** Render a type in SVA assembly syntax, e.g. ["i32*"] or
    ["[4 x %task]"]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer for {!to_string}. *)

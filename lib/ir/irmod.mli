(** SVA modules — the unit of compilation, verification and translation.

    An SVA object file ("Module", Section 3.1) includes functions, global
    variables, type and external function declarations, and symbol table
    entries.  Both the safety-checking compiler and the bytecode verifier
    operate on this same representation. *)

(** Initializer of a global variable. *)
type ginit =
  | Zero  (** zero-initialized *)
  | Str of string  (** C string contents (a trailing NUL is layout's job) *)
  | Ints of Ty.t * int64 list  (** array of integer constants *)
  | Ptrs of string list  (** array of function/global symbol addresses *)

type global = {
  g_name : string;
  g_ty : Ty.t;  (** pointee type: the global's value has type [Ptr g_ty] *)
  g_init : ginit;
  g_const : bool;  (** read-only (placed in a write-protected region) *)
}

type t = {
  m_name : string;
  m_ctx : Ty.ctx;  (** named structure definitions *)
  mutable m_globals : global list;
  mutable m_funcs : Func.t list;
  mutable m_externs : (string * Ty.t) list;
      (** declared-but-not-defined functions: (name, [Ty.Func] type) *)
}

val create : string -> t

val add_global : t -> global -> unit
(** @raise Invalid_argument on duplicate global name. *)

val add_func : t -> Func.t -> unit
(** @raise Invalid_argument on duplicate function name. *)

val declare_extern : t -> string -> Ty.t -> unit
(** Idempotent external declaration.
    @raise Invalid_argument if redeclared at a different type. *)

val find_func : t -> string -> Func.t option
val find_global : t -> string -> global option

val extern_ty : t -> string -> Ty.t option
(** Type of an external declaration, if present. *)

val symbol_ty : t -> string -> Ty.t option
(** Function type of [name] whether defined or external. *)

val global_value : global -> Value.t

val merge : t -> t -> unit
(** [merge dst src] links [src] into [dst] (module-level linking as used for
    loadable kernel modules).  Struct definitions must agree; an external
    declaration in one module may be resolved by a definition in the
    other.  @raise Invalid_argument on clashing definitions. *)

val instr_count : t -> int
(** Total instruction count over all defined functions. *)

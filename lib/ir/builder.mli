(** Imperative IR construction, in the style of LLVM's IRBuilder.

    A builder is positioned at the end of a block of a function inside a
    module; every [b_*] helper appends an instruction there and returns the
    SSA value it defines.  The MiniC front end, the safety-checking compiler
    and hand-written tests all construct IR through this interface. *)

type t

val create : Irmod.t -> Func.t -> t
(** A builder for [f]; initially positioned nowhere — call {!position} or
    {!start_block} before inserting. *)

val irmod : t -> Irmod.t
val func : t -> Func.t

val start_block : t -> string -> Func.block
(** Create a block with the given label and position the builder there. *)

val current_block : t -> Func.block
(** @raise Invalid_argument if the builder is unpositioned. *)

val insert : t -> ?name:string -> Ty.t -> Instr.kind -> Value.t option
(** Low-level append; returns the result register if the type is non-void. *)

val gep_result_ty : Ty.ctx -> Ty.t -> Value.t list -> Ty.t
(** Result type of a [getelementptr] with the given base pointer type and
    index list.  @raise Invalid_argument on invalid indexing. *)

(** {2 Typed helpers} — each returns the defined SSA value. *)

val b_binop : t -> ?name:string -> Instr.binop -> Value.t -> Value.t -> Value.t
val b_icmp : t -> ?name:string -> Instr.icmp -> Value.t -> Value.t -> Value.t
val b_alloca : t -> ?name:string -> ?count:Value.t -> Ty.t -> Value.t
val b_load : t -> ?name:string -> Value.t -> Value.t
val b_store : t -> Value.t -> Value.t -> unit
val b_gep : t -> ?name:string -> Value.t -> Value.t list -> Value.t
val b_struct_gep : t -> ?name:string -> Value.t -> string -> Value.t
(** Index a struct pointer by field name. *)

val b_cast : t -> ?name:string -> Instr.cast -> Value.t -> Ty.t -> Value.t
val b_call : t -> ?name:string -> Value.t -> Value.t list -> Value.t option
(** [b_call b callee args]: result is [None] for void-returning callees.
    The callee must be an [Fn] value or a register of function-pointer
    type. *)

val b_call_named : t -> ?name:string -> string -> Value.t list -> Value.t option
(** Call a function defined or declared in the module, by name.
    @raise Invalid_argument if the symbol is unknown. *)

val b_phi : t -> ?name:string -> Ty.t -> (string * Value.t) list -> Value.t
val b_malloc : t -> ?name:string -> ?count:Value.t -> Ty.t -> Value.t
val b_free : t -> Value.t -> unit
val b_cas : t -> ?name:string -> Value.t -> Value.t -> Value.t -> Value.t
val b_atomic_add : t -> ?name:string -> Value.t -> Value.t -> Value.t
val b_intrinsic : t -> ?name:string -> Ty.t -> string -> Value.t list -> Value.t option
(** Emit an intrinsic with an explicit result type ([Ty.Void] for none). *)

(** {2 Terminators} *)

val b_ret : t -> Value.t option -> unit
val b_br : t -> Value.t -> string -> string -> unit
val b_jmp : t -> string -> unit

(** First-class SSA values of the SVA-Core instruction set.

    Every operand of an instruction is a {!t}: a constant, the address of a
    global or function, or a virtual register in SSA form (Section 3.1:
    "an 'infinite' virtual register set in Static Single Assignment
    form"). *)

type t =
  | Imm of Ty.t * int64  (** integer constant of the given integer type *)
  | Fimm of float  (** floating-point constant *)
  | Null of Ty.t  (** typed null pointer; [ty] is the full pointer type *)
  | Undef of Ty.t  (** undefined value of the given type *)
  | Global of string * Ty.t
      (** address of global [name]; carried type is the {e pointee} type, so
          the value's type is [Ptr ty] *)
  | Fn of string * Ty.t
      (** address of function [name]; carried type is its [Func] type, the
          value's type is [Ptr ty] *)
  | Reg of int * Ty.t * string
      (** virtual register: id, type, and a name hint for printing *)

val ty : t -> Ty.t
(** The type of a value ([Global]/[Fn] yield pointer types). *)

val imm : ?width:int -> int -> t
(** [imm n] is an [i32] constant; [~width] selects another integer width. *)

val imm64 : int64 -> t
(** A 64-bit integer constant. *)

val i1 : bool -> t
(** Boolean constant as [i1]. *)

val equal : t -> t -> bool
(** Structural equality of values. *)

val to_string : t -> string
(** Render in SVA assembly syntax, e.g. ["%x.3"] or ["i32 7"]. *)

val pp : Format.formatter -> t -> unit

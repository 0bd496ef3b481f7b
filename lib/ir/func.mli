(** Basic blocks and functions.

    A function owns its blocks (the first block is the entry), a register
    counter for SSA id allocation, and a set of attributes used by the
    safety-checking compiler, e.g. the call-signature assertions of
    Section 4.8 and the "do not analyze" marker used to model kernel
    libraries left out of the safety-checking compilation (Section 7.2). *)

type block = {
  label : string;
  mutable insns : Instr.t list;  (** in execution order; phis first *)
  mutable term : Instr.term;
}

type attr =
  | Noanalyze
      (** function was not run through the safety-checking compiler; its
          memory behaviour is unknown to the pointer analysis *)
  | Callsig_assert
      (** programmer asserts that indirect calls inside this function only
          target signature-compatible callees (Section 4.8) *)
  | Kernel_entry  (** boot / syscall entry point: globals registered here *)

type t = {
  f_name : string;
  f_ret : Ty.t;
  f_params : (string * Ty.t) list;
  f_varargs : bool;
  mutable f_blocks : block list;  (** entry block first *)
  mutable f_next_reg : int;
  mutable f_attrs : attr list;
}

val create :
  ?varargs:bool -> ?attrs:attr list -> string -> Ty.t -> (string * Ty.t) list -> t
(** [create name ret params] is a new function with no blocks.  Parameter
    registers take ids [0 .. n-1] in declaration order. *)

val param_value : t -> int -> Value.t
(** The SSA register holding the [i]-th parameter. *)

val fresh_reg : t -> int
(** Allocate a fresh SSA register id. *)

val add_block : t -> string -> block
(** Append an empty block (terminator initially [Unreachable]).
    @raise Invalid_argument on duplicate label. *)

val find_block : t -> string -> block
(** @raise Not_found if no block has that label. *)

val entry : t -> block
(** @raise Invalid_argument if the function has no blocks. *)

val iter_instrs : t -> (block -> Instr.t -> unit) -> unit
(** Visit every instruction, block by block. *)

val fold_instrs : t -> ('a -> block -> Instr.t -> 'a) -> 'a -> 'a

val func_ty : t -> Ty.t
(** The [Ty.Func] type of the function. *)

val has_attr : t -> attr -> bool

val instr_count : t -> int
(** Number of instructions (terminators excluded). *)

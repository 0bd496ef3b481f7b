(** Textual rendering of SVA IR ("SVA assembly"), used for dumps, golden
    tests and the Figure 2 reproduction. *)

val string_of_binop : Instr.binop -> string
val string_of_icmp : Instr.icmp -> string
val string_of_cast : Instr.cast -> string

val string_of_term : Instr.term -> string

val string_of_func : Func.t -> string

val string_of_module : Irmod.t -> string
(** Struct definitions, globals, externs and functions. *)

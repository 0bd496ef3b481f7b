(** Minimal JSON support for the benchmark harness: an emitter for the
    [--json] machine-readable results file and a recursive-descent parser
    used by the regression tests to consume it back.  Self-contained so
    the harness adds no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val emit : ?indent:int -> t -> string
(** Render as JSON text.  Strings are escaped per RFC 8259; non-finite
    floats become [null] (JSON has no representation for them).  The
    result ends with a newline. *)

exception Parse_error of string
(** Raised by {!parse} with a message and character offset. *)

val parse : string -> t
(** Parse one JSON document.  Numbers without ['.'], ['e'] or ['E'] decode
    as {!Int}; everything else as {!Float}.  Trailing garbage after the
    document is an error. *)

val member : string -> t -> t option
(** Field lookup on an {!Obj}; [None] for other constructors. *)

val to_int : t -> int
(** {!Int} payload (or an integral {!Float}).  @raise Parse_error otherwise. *)

val to_float : t -> float
(** Numeric payload.  @raise Parse_error otherwise. *)

val to_string : t -> string
(** {!Str} payload.  @raise Parse_error otherwise. *)

val to_list : t -> t list
(** {!List} payload.  @raise Parse_error otherwise. *)

val field : (t -> 'a) -> string -> t -> 'a
(** [field conv path j] is [conv] applied to the value at the dotted
    [path] in [j] (["a.b"] is field [b] of field [a]).
    @raise Parse_error naming [path] when a step is missing or [conv]
    rejects the value. *)

val int : string -> t -> int
(** [field to_int]. *)

val num : string -> t -> float
(** [field to_float]. *)

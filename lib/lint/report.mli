(** Lint findings: the machine-readable result type of the sanitizer
    passes, with a deterministic order and a stable text rendering
    (test_lint diffs the seeded fixture's findings against its expected
    set). *)

type severity = Error | Warning

type finding = {
  f_checker : string;  (** checker slug, e.g. ["user-taint"] *)
  f_func : string;  (** function containing the defect *)
  f_instr : int option;  (** offending instruction id, when one exists *)
  f_message : string;
  f_severity : severity;
}

val finding :
  ?severity:severity ->
  checker:string ->
  func:string ->
  ?instr:int ->
  string ->
  finding

val sort : finding list -> finding list
(** Sort and de-duplicate.  Order: checker, function, instruction id,
    message. *)

val to_string : finding -> string
(** One line: ["checker: error: @func[#i]: message"]. *)

val render : finding list -> string
(** All findings, one per line, in {!sort} order. *)

val count_by_checker : checkers:string list -> finding list -> (string * int) list
(** Findings per checker, in the given checker order (zero rows kept). *)

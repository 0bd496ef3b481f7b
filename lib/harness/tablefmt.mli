(** Plain-text table rendering for the experiment reports: every table
    prints the paper's numbers alongside the measured ones so the shape
    comparison is immediate. *)

type align = L | R

val render :
  title:string -> ?note:string -> align list -> string list -> string list list
  -> string
(** [render ~title aligns header rows] — a boxed, column-aligned table. *)

val pct : float -> string
(** Format a percentage with one decimal, e.g. ["38.5%"]. *)

val pct_paper : float -> string
(** Paper reference values, marked, e.g. ["(21.1%)"]. *)

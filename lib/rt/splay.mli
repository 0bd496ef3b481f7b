(** Self-adjusting binary search tree over disjoint integer ranges.

    SAFECode/SVA record every registered memory object in a {e per-pool
    splay tree} and answer "which object contains this address?" queries
    during bounds and load/store checks (Section 4.5).  Splaying keeps
    recently checked objects at the root, which is what makes the
    Jones-Kelly style object lookup fast in practice (Section 4.1).

    Keys are byte ranges [\[start, start+len)]; ranges must be disjoint.
    The payload type is arbitrary. *)

type 'a t

type 'a node = {
  n_start : int;  (** first byte of the range *)
  n_len : int;  (** length in bytes; ranges of length 0 are not allowed *)
  n_data : 'a;
}

val create : unit -> 'a t

val size : 'a t -> int
(** Number of ranges currently stored. *)

val insert : 'a t -> start:int -> len:int -> 'a -> unit
(** Register a range.  @raise Invalid_argument if [len <= 0] or the range
    overlaps an existing one. *)

val remove : 'a t -> start:int -> 'a node option
(** Remove the range that starts exactly at [start]; returns it, or [None]
    if no range starts there. *)

val find_containing : 'a t -> int -> 'a node option
(** The range containing the given address, if any.  Splays. *)

val iter : 'a t -> ('a node -> unit) -> unit
(** In-order traversal. *)

val fold : 'a t -> ('acc -> 'a node -> 'acc) -> 'acc -> 'acc

val to_list : 'a t -> 'a node list
(** All ranges in increasing address order. *)

val clear : 'a t -> unit

val comparisons : unit -> int
(** Global count of key comparisons performed by all splay operations —
    the work metric the SVM's cycle model charges for run-time checks
    (splay lookups are where the Jones-Kelly-style checking spends its
    time, Section 4.1). *)

val depth : 'a t -> int
(** Current height of the tree (0 for empty).  A diagnostic for the
    per-metapool metrics report; splaying keeps it shallow on skewed
    access patterns but it is not bounded. *)

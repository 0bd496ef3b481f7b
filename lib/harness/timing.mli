(** Wall-clock measurement for the performance tables.

    Each measurement runs the operation in batches and reports the median
    batch, which is robust against GC pauses and scheduler noise — the
    same role HBench-OS's 50-iteration design plays in the paper
    (Section 7.1.2).  Times come from the monotonic clock. *)

type sample = {
  s_per_op_ns : float;  (** median seconds-per-operation, in nanoseconds *)
}

val measure : ?batches:int -> ?reps:int -> (unit -> unit) -> sample
(** [measure f] — run [f] [reps] times per batch, [batches] times; the
    per-op time of the median batch is reported. *)

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

type pair = {
  p_base_ns : float;  (** median per-op time of the [base] batches *)
  p_test_ns : float;  (** median per-op time of the [test] batches *)
  p_ratio : float;  (** median over batch pairs of base time / test time *)
}

val paired :
  batches:int -> reps:int -> (unit -> unit) -> (unit -> unit) -> pair
(** [paired base test] — after one warm-up call of each, alternate a
    batch of [reps] [base] calls with a batch of [reps] [test] calls,
    [batches] times.  The two batches of a pair run back to back, so a
    swing in host speed slows both alike and their ratio cancels it. *)

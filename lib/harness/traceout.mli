(** Exporters for the {!Sva_rt.Trace} observability layer: Chrome
    trace-event JSON (loadable in [chrome://tracing] / Perfetto) and
    plain-text summary, profile and per-metapool metrics tables.

    Pure readers — nothing here mutates trace, profiler or pool state. *)

val all_kinds : Sva_rt.Trace.ekind list
(** Every event kind, in declaration order. *)

val chrome_json : unit -> Jsonout.t
(** The retained trace as [{"traceEvents": [...], ...}], with emission /
    drop / capacity accounting under ["otherData"]. *)

val write_chrome : string -> unit
(** Write {!chrome_json} to a file. *)

val summary_table : unit -> string
(** Retained-event counts by kind, plus ring-buffer accounting. *)

val profile_table : ?top:int -> unit -> string
(** Top-N hot functions and syscalls by self cycles (default 10), from
    the profiler accumulators. *)

val pool_metrics : Sva_interp.Interp.t -> Jsonout.t
(** Every pool of [vm] that saw a registration or a lookup, as a JSON
    list of its live/peak object counts, registration traffic, splay
    depth, lookups and cache hits. *)

val pool_metrics_table : Jsonout.t -> string
(** A {!pool_metrics} list as a table, with each pool's cache hit rate. *)

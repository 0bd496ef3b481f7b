(** Bounded ring-buffer event trace and cycle-attribution profiler.

    The observability layer of the runtime: when enabled, every dynamic
    event of interest — run-time check executions, safety violations,
    object registration/deregistration, syscall entry/exit, SVA-OS
    operations, tier promotions and translation-cache probes, and
    build-time range elisions — is recorded into a fixed-capacity ring
    buffer (oldest events are overwritten; the [dropped] counter accounts
    for truncation).  A separate profiling layer attributes modeled
    cycles and run-time check counts to functions and syscalls via a
    shadow call stack.

    Neither layer is part of the TCB: they observe, they never decide.
    Both are semantically invisible — enabling or disabling them never
    changes verdicts, check counters or modeled cycles — and when
    disabled an emission site costs one flag test and allocates
    nothing. *)

(** {1 Events} *)

type ekind =
  | Ev_check  (** a run-time check executed ([ev_name]: which) *)
  | Ev_violation  (** a safety violation was raised *)
  | Ev_register  (** [pchk.reg.obj] *)
  | Ev_drop  (** [pchk.drop.obj] *)
  | Ev_syscall_enter  (** trap entry ([ev_a]: syscall number) *)
  | Ev_syscall_exit
  | Ev_svaos  (** an SVA-OS operation ([ev_name]: which intrinsic) *)
  | Ev_tier_promote  (** a function promoted to the compiled tier *)
  | Ev_tcache_hit  (** signed translation cache: verified reuse *)
  | Ev_tcache_miss  (** fresh translation *)
  | Ev_tcache_disk_hit  (** persistent store: verified on-disk reuse *)
  | Ev_tcache_disk_stale
      (** persistent store: entry rejected (tampered/truncated/stale) *)
  | Ev_tcache_disk_write  (** persistent store: fresh entry persisted *)
  | Ev_range_elide  (** build-time certified check elision ([ev_a]: count) *)

val ekind_name : ekind -> string

type event = {
  ev_seq : int;  (** emission index since [enable]/[clear], 0-based *)
  ev_ts : int;  (** modeled cycles at emission (see {!clock}) *)
  ev_cpu : int;  (** modeled CPU executing at emission (see {!set_cpu}) *)
  ev_kind : ekind;
  ev_name : string;
  ev_pool : string;  (** metapool name, when the event concerns one *)
  ev_a : int;  (** address / syscall number / count, by kind *)
  ev_b : int;  (** access length / object length, by kind *)
}

val set_cpu : int -> unit
(** Attribute subsequent events to this modeled CPU.  The SMP scheduler
    calls it at CPU-switch points; outside SMP runs everything stays on
    CPU 0, so pre-SMP traces are unchanged.  The Chrome export maps it to
    the thread id. *)

val clock : (unit -> int) ref
(** Timestamp source, read at each emission.  {!Sva_interp.Interp.load}
    installs the VM's modeled-cycle counter; outside any VM it reads 0.
    Because both execution tiers keep bit-identical cycle counts, the
    same workload produces the same timestamps on either engine. *)

val active : bool ref
(** The one flag hot emission sites test before building an event.  Set
    by {!enable}/{!disable}; do not flip it directly. *)

val default_capacity : int

val enable : ?capacity:int -> unit -> unit
(** Allocate the ring buffer ([capacity] events, default
    {!default_capacity}) and start recording. *)

val disable : unit -> unit
(** Stop recording and release the buffer. *)

val enabled : unit -> bool
val clear : unit -> unit
(** Forget all recorded events; keeps recording. *)

val capacity : unit -> int
val emitted : unit -> int
(** Total events emitted since [enable]/[clear], including overwritten ones. *)

val dropped : unit -> int
(** Events lost to ring wrap-around: [max 0 (emitted - capacity)]. *)

val events : unit -> event list
(** Retained events, oldest first (at most [capacity]). *)

val count : ekind -> int
(** Retained events of one kind. *)

(** {2 Emission} — no-ops (and allocation-free) when tracing is off. *)

val emit_check : string -> pool:string -> addr:int -> len:int -> unit
val emit_violation : kind:string -> pool:string -> addr:int -> unit
val emit_register : pool:string -> start:int -> len:int -> unit
val emit_drop : pool:string -> start:int -> unit
val emit_syscall_enter : num:int -> unit
val emit_syscall_exit : num:int -> unit
val emit_svaos : string -> unit
val emit_tier_promote : string -> unit
val emit_tcache_hit : string -> unit
val emit_tcache_miss : string -> unit
val emit_tcache_disk_hit : string -> unit
val emit_tcache_disk_stale : string -> unit
val emit_tcache_disk_write : string -> unit
val emit_range_elide : what:string -> count:int -> unit

(** {1 Profiler}

    Self-cycle attribution over a shadow call stack: each scope's
    inclusive cycle delta minus its callees' is its self time, so self
    times partition the cycles spent under profiled scopes exactly.
    Functions and syscalls are profiled on separate stacks; the syscall
    scope wraps the whole trap path, trap entry/exit surcharge
    included. *)

val profiling : bool ref
(** Tested by the hooks below and by the interpreter's tier dispatch. *)

val enable_profile : unit -> unit
(** Reset all accumulators and start profiling. *)

val disable_profile : unit -> unit

val fn_enter : string -> cycles:int -> checks:int -> unit
val fn_exit : string -> cycles:int -> checks:int -> unit
val sys_enter : int -> cycles:int -> checks:int -> unit
val sys_exit : int -> cycles:int -> checks:int -> unit

type prow = {
  p_name : string;
  p_calls : int;
  p_self_cycles : int;  (** cycles in this scope minus its callees' *)
  p_total_cycles : int;  (** inclusive; recursive calls double-count *)
  p_self_checks : int;
}

val fn_report : unit -> prow list
(** Per-function rows, hottest (by self cycles) first. *)

val sys_report : unit -> prow list
(** Per-syscall rows (named ["syscall N"]), hottest first. *)

val fn_self_cycles : unit -> int
(** Sum of self cycles over all profiled functions. *)

val sys_self_cycles : unit -> int
(** Sum of self cycles over all profiled syscalls — on a syscall-driven
    workload this equals the cycles attributable to syscalls, the
    numerator of the bench's >= 95%-attribution gate. *)

(** Booting the kernel on the SVM and entering it from "userspace".

    {!boot} follows Section 3.4: the SVM loads the (verified) kernel
    bytecode, registers the globals, and transfers control to the kernel
    entry point ([kmain]).

    {!syscall} is the user-to-kernel trap path: the SVM lays down an
    interrupt context on the kernel stack (Table 2), hands the kernel a
    handle to it, dispatches through the kernel's registered handler,
    runs any signal handler the kernel pushed with [llva_ipush_function],
    and tears the context down — under [Native] the same path runs with
    the cheap inline state handling. *)

type t = {
  built : Sva_pipeline.Pipeline.built;
  vm : Sva_interp.Interp.t;
  sys : Sva_os.Svaos.t;
  variant : Kbuild.variant;
  mutable signal_fired : (int * int64) list;
      (** (handler code address, argument) of signal handlers the trap
          path ran, newest first *)
}

exception Boot_failure of string

val boot :
  ?conf:Sva_pipeline.Pipeline.conf -> ?variant:Kbuild.variant -> unit -> t
(** Build, load and boot the kernel on the interpreter and one CPU.
    @raise Boot_failure if [kmain] fails. *)

val boot_built :
  ?engine:Sva_pipeline.Pipeline.engine_config ->
  ?smp:Sva_pipeline.Pipeline.smp_config ->
  Sva_pipeline.Pipeline.built ->
  variant:Kbuild.variant ->
  t
(** Boot an already-compiled kernel image: a {!Kbuild.build} with any
    stages, compiled once and booted as often as needed.  [engine]
    selects the SVM execution tier (interpreter by default); [smp] the
    modeled CPU count (1 by default — an N-CPU instance gives each CPU
    private register state, trap scratch and cache shards, see
    {!run_smp}).
    @raise Boot_failure if [kmain] fails. *)

val syscall : t -> int -> int64 list -> int64
(** Trap into the kernel.  At most 4 arguments; missing ones are 0.
    A fault on a user page that is not mapped or not writable aborts
    the call, which returns -14 (EFAULT); the aborted frames' stack
    objects are deregistered, so the kernel stays usable.  Safety
    violations and other machine faults propagate as exceptions. *)

val interrupt : t -> int -> int64
(** Deliver a hardware interrupt on the given vector: the SVM lays down an
    interrupt context, dispatches the handler the kernel registered with
    [sva_register_interrupt], and tears the context down.  Returns the
    handler's result (-1 if no handler is registered). *)

(** {2 Userspace access for the host-side "applications"} *)

val user_addr : t -> int -> int64
(** [user_addr t off] — address of byte [off] of the init task's user
    window (identity-mapped at boot). *)

val write_user : t -> int -> string -> unit
val read_user : t -> int -> int -> string

(** {2 Wire access} *)

val inject_frame : t -> proto:int -> string -> unit
(** Put a frame on the NIC receive queue (the attacker/client side). *)

val sent_frames : t -> (int * string) list
(** Drain frames the kernel transmitted: (proto, payload). *)

val console : t -> string

val kernel_global : t -> string -> int64
(** Read a kernel global scalar (for assertions, e.g. corruption
    markers). *)

val steps : t -> int
val reset_steps : t -> unit

val cycles : t -> int
(** The SVM's deterministic cycle model (see {!Sva_interp.Interp.cycles});
    {!syscall} additionally charges the trap entry/exit cost, which is
    higher under SVA-OS mediation than for a native inline trap. *)

val reset_cycles : t -> unit

(** {2 Simulated-SMP scheduler}

    Deterministic seeded interleaving of the instance's modeled CPUs on
    the one host thread: jobs are distributed round-robin into per-CPU
    run queues, the least-advanced CPU clock runs next (all CPUs run
    concurrently in model time, ties broken by a seeded LCG), and a CPU
    whose queue drains steals half of the longest queue, IPI-ing the
    victim on a dedicated vector that has no handler.  Each job's
    modeled-cycle delta is charged to the clock of the CPU that ran it;
    the makespan (max per-CPU clock) is what an N-way machine would take
    under this schedule, so parallel speedup is makespan(1)/makespan(N).

    [cpus = 1] degenerates to running the jobs in submission order with
    no steals or IPIs — bit-identical to calling them in sequence. *)

type smp_stats = {
  ss_cpus : int;
  ss_jobs : int;
  ss_steals : int;  (** work-stealing events *)
  ss_ipis_sent : int;
  ss_ipis_delivered : int;
  ss_cycles : int array;  (** per-CPU modeled cycle clock *)
  ss_jobs_per : int array;  (** jobs executed per CPU *)
  ss_makespan : int;  (** max of [ss_cycles] — the modeled wall time *)
  ss_total : int;  (** sum of [ss_cycles] — total modeled work *)
}

val run_smp : t -> cpus:int -> seed:int -> (unit -> unit) list -> smp_stats
(** Run the jobs to completion over [cpus] CPUs with the seeded
    interleaving.  The same (jobs, cpus, seed) triple always produces
    the same schedule, the same per-CPU clocks and the same counters.
    Returns with CPU 0 selected and all IPI queues drained.
    @raise Invalid_argument if [cpus] exceeds the instance's CPU count. *)

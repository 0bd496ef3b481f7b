(** SVA-OS: the OS support operations of the virtual instruction set
    (Section 3.3, Tables 1 and 2).

    SVA-OS provides {e mechanisms, not policies}: saving/restoring native
    processor state, manipulating interrupt contexts, MMU configuration,
    I/O, and registration of interrupt/system-call handlers.  All
    privileged hardware operations go through these functions, which is
    what lets the SVM monitor and control them.

    Two execution modes model the measurement axis of Section 7.1:

    - {!mode.Native_inline} — the pre-port kernel: privileged operations
      are open-coded with no abstraction layer (minimal bookkeeping);
    - {!mode.Sva_mediated} — the SVA port: every operation validates its
      arguments, runs inside the SVM privilege boundary and keeps the
      interrupt-context machinery honest.  This is the "Linux-SVA-GCC vs
      Linux-native" overhead source. *)

open Sva_hw

type mode = Native_inline | Sva_mediated

(** Per-CPU SVA-OS state: register file, interrupt-context stack and
    pending-IPI queue of one modeled CPU. *)
type percpu = {
  pc_id : int;
  pc_cpu : Cpu.t;
  mutable pc_icontexts : int list;
      (** stack of live interrupt context addrs on this CPU *)
  mutable pc_ipis : int list;  (** pending IPI vectors, oldest first *)
}

type t = {
  machine : Machine.t;
  cpu : Cpu.t;
      (** alias of CPU 0's register state ([cpus.(0).pc_cpu]) — the whole
          state on a default 1-CPU instance, kept so single-CPU callers
          need not know about SMP *)
  cpus : percpu array;
  smp : Sva_rt.Smp.t;  (** this instance's CPU context (never shared) *)
  mmu : Mmu.t;
  devices : Devices.t;
  mutable mode : mode;
  syscalls : (int, string) Hashtbl.t;  (** syscall number -> handler symbol *)
  interrupts : (int, string) Hashtbl.t;  (** vector -> handler symbol *)
  spaces : (int, Mmu.space) Hashtbl.t;  (** space id -> MMU space *)
  mutable ops_count : int;  (** SVA-OS operations executed *)
  locks : (int, int) Hashtbl.t;
      (** held spinlocks: lock address -> holder CPU *)
}

val create : ?mode:mode -> ?ncpus:int -> unit -> t
(** [ncpus] (default 1) modeled CPUs, each with private register state,
    interrupt-context stack, trap scratch and IPI queue; memory, MMU,
    devices and handler tables are shared, as on real SMP hardware.
    @raise Invalid_argument outside [1, Machine.max_cpus]. *)

val set_mode : t -> mode -> unit

(** {2 Simulated SMP}

    The SVM interleaves the modeled CPUs on one host thread; the
    scheduler ([Ukern.Boot.run_smp]) selects which CPU executes with
    {!switch_cpu}, which also sets the {!Sva_rt.Trace} CPU tag so every
    event is attributed to the executing CPU. *)

val smpctx : t -> Sva_rt.Smp.t
(** This instance's CPU context — thread it into per-CPU-sharded runtime
    structures ([Metapool_rt.create ~smp]). *)

val ncpus : t -> int
val current_cpu : t -> int
val switch_cpu : t -> int -> unit
val cpu_state : t -> cpu:int -> Cpu.t
(** Register state of one CPU (not just the current one). *)

val ipi_send : t -> cpu:int -> vector:int -> unit
(** [sva_ipi_send]: enqueue interrupt [vector] on the target CPU.  The
    vector is delivered the next time the scheduler runs that CPU with
    interrupts enabled.  Self-IPIs are allowed.
    @raise Failure on a nonexistent CPU. *)

val ipi_pending : t -> bool
(** Whether the current CPU has undelivered IPIs. *)

val take_ipi : t -> int option
(** Dequeue the oldest pending IPI vector on the current CPU (counted as
    delivered); [None] if the queue is empty.  Scheduler-internal: the
    caller is expected to trap on the returned vector. *)

val interrupts_enabled : t -> bool
(** Current CPU's interrupt flag (set by {!cli}/{!sti}). *)

val icontext_depth : t -> int
(** Live interrupt contexts on the current CPU. *)

(** {2 Table 1: native processor state} *)

val save_integer : t -> buffer:int -> unit
val load_integer : t -> buffer:int -> unit
val save_fp : t -> buffer:int -> always:bool -> bool
val load_fp : t -> buffer:int -> unit

(** {2 Table 2: interrupt contexts}

    An interrupt context is the interrupted control state the SVM saved on
    kernel entry.  The kernel holds an opaque handle (its address) and
    manipulates it only through these operations. *)

val icontext_size : int

val icontext_create : t -> sp:int -> was_privileged:bool -> int
(** SVM-internal: on an interrupt/trap, lay down an interrupt context at
    stack address [sp] capturing the interrupted state; returns the
    handle.  In [Sva_mediated] mode the context is integrity-tagged. *)

val icontext_save : t -> icp:int -> isp:int -> unit
(** Save interrupt context [icp] into [isp] as Integer State. *)

val icontext_load : t -> icp:int -> isp:int -> unit
(** Load Integer State [isp] into interrupt context [icp]. *)

val icontext_commit : t -> icp:int -> unit
(** Commit the entire interrupt context to memory. *)

val ipush_function : t -> icp:int -> fn:int -> arg:int64 -> unit
(** Modify [icp] so that function [fn] (a code address) is called with
    [arg] when the context resumes — signal-handler dispatch. *)

val ipush_pending : t -> icp:int -> (int * int64) option
(** SVM-internal: the pending pushed call, if any (consumed). *)

val was_privileged : t -> icp:int -> bool

val icontext_destroy : t -> icp:int -> unit
(** SVM-internal: pop the context on kernel exit.
    @raise Failure on unbalanced destroy or a tampered context tag. *)

(** {2 Privileged operations: MMU, interrupts, I/O} *)

val register_syscall : t -> num:int -> handler:string -> unit
val syscall_handler : t -> num:int -> string option
val register_interrupt : t -> vector:int -> handler:string -> unit
val interrupt_handler : t -> vector:int -> string option

val mmu_new_space : t -> int
val mmu_clone_space : t -> sid:int -> int
val mmu_destroy_space : t -> sid:int -> unit
val mmu_activate : t -> sid:int -> unit
val mmu_map_page : t -> sid:int -> vpn:int -> ppn:int -> writable:bool -> unit
val mmu_unmap_page : t -> sid:int -> vpn:int -> unit
val mmu_page_count : t -> sid:int -> int
val mmu_pages : t -> sid:int -> (int * int) list

val io_console_write : t -> addr:int -> len:int -> unit
val io_disk_read : t -> block:int -> addr:int -> unit
val io_disk_write : t -> block:int -> addr:int -> unit

val io_nic_send : t -> proto:int -> addr:int -> len:int -> unit

val io_nic_recv : t -> addr:int -> maxlen:int -> int
(** Copy the next frame as [proto:4 bytes][payload] into kernel memory at
    [addr]; returns total bytes written or -1 when no frame is queued. *)

val timer_read : t -> int64

val cli : t -> unit
val sti : t -> unit

(** {2 Spinlocks}

    Locks are identified by the kernel address of the lock word and
    record their holder CPU.  CPUs are interleaved at trap granularity,
    so a contended acquire can never succeed: re-acquiring your own lock
    fails as a self-deadlock, spinning on another CPU's lock fails as a
    cross-CPU deadlock (the holder cannot run while this CPU spins), and
    releasing a lock this CPU does not hold fails as a bracketing bug —
    all kernel defects the static lockset analysis is meant to rule out
    before execution. *)

val lock_acquire : t -> lock:int -> unit
val lock_release : t -> lock:int -> unit
val lock_held : t -> lock:int -> bool

(** {2 Constants exposed to the kernel} *)

val heap_base : t -> int
val heap_size : t -> int
val user_base : t -> int
val user_size : t -> int
val stack_base : t -> int
val stack_size : t -> int

(** The SVM executor: runs SVA bytecode on the simulated machine.

    The Secure Virtual Machine may translate bytecode or interpret it
    (Section 3.4); this implementation interprets.  Loading a module
    "translates" it: globals are laid out in the machine's globals region
    and written with their initializers, every function receives a
    synthetic code address (so function pointers are first-class data that
    can be stored, compared, and checked by [pchk.funccheck]), and
    per-function block/instruction tables are built.

    Memory accesses hit the simulated machine byte-for-byte: an overrun
    really corrupts the adjacent object unless a run-time check catches it
    first.  Userspace addresses are translated through the active MMU
    space; kernel addresses are identity-mapped.

    SVA-OS operations and the [pchk.*] run-time checks execute as
    intrinsics; their SVA-OS semantics come from {!Sva_os.Svaos} and the
    check semantics from {!Sva_rt.Metapool_rt}.  Safety violations raise
    {!Sva_rt.Violation.Safety_violation}, modelling the run-time trap. *)

open Sva_ir

exception Vm_error of string
(** Execution errors that are bugs in the executed program or the VM
    (unknown function, struct-typed load, step-limit exceeded, ...). *)

(** {1 Internal representation}

    The pre-decoded program form and the VM state are exposed concretely
    for the compiled engine ({!Closcomp}), which compiles prepared
    functions into closure trees and must reproduce the interpreter's
    bookkeeping exactly.  Ordinary clients should treat {!t} as
    abstract. *)

type fc_cache = { mutable fc_set : (int, string) Hashtbl.t option }
(** Per-call-site memo for [pchk_funccheck] constant target sets. *)

type intr =
  | I_pchk_reg_obj
  | I_pchk_drop_obj
  | I_pchk_bounds
  | I_pchk_lscheck
  | I_pchk_funccheck of fc_cache option
  | I_sva_pseudo_alloc
  | I_pchk_pseudo_alloc
  | I_save_integer
  | I_load_integer
  | I_save_fp
  | I_load_fp
  | I_icontext_save
  | I_icontext_load
  | I_icontext_commit
  | I_ipush_function
  | I_was_privileged
  | I_register_syscall
  | I_register_interrupt
  | I_syscall
  | I_mmu_new_space
  | I_mmu_clone_space
  | I_mmu_destroy_space
  | I_mmu_activate
  | I_mmu_map_page
  | I_mmu_unmap_page
  | I_mmu_page_count
  | I_io_console_write
  | I_io_disk_read
  | I_io_disk_write
  | I_io_nic_send
  | I_io_nic_recv
  | I_timer_read
  | I_cli
  | I_sti
  | I_lock_acquire
  | I_lock_release
  | I_heap_base
  | I_heap_size
  | I_user_base
  | I_user_size
  | I_panic
  | I_unknown of string

type 'pf callee_cache = { mutable cc : 'pf cc_state }
and 'pf cc_state = Cc_unresolved | Cc_func of 'pf | Cc_builtin of string

type pinsn =
  | P_base of Instr.t
  | P_intr of Instr.t * intr * Value.t array * int * int
      (** instr, decoded intrinsic, args, base cost (native, mediated) *)
  | P_call of Instr.t * Value.t * Value.t array * prepared_func callee_cache

and pterm =
  | P_ret of Value.t option
  | P_jmp of int
  | P_br of Value.t * int * int
  | P_switch of Value.t * (int64 * int) array * int
  | P_unreachable

and pblock = {
  pb_label : string;
  pb_phis : (int * Value.t option array) array;
  pb_body : pinsn array;
  pb_term : pterm;
}

and prepared_func = {
  pf : Func.t;
  pf_blocks : pblock array;
  pf_max_phis : int;
  mutable pf_entry : (int64 list -> int64 option) option;
}

type frame_cache = {
  fm_gen : Sva_hw.Mmu.generation;
  mutable fm_seen : int;
  fm_tag : int array;
  fm_wtag : int array;
  fm_frame : Bytes.t array;
  mutable fm_misses : int;
  mutable fm_flushes : int;
}
(** The compiled tier's page-to-frame cache; see {!mem_read_cached}. *)

type t = {
  mutable im_mod : Irmod.t;
  mutable im_own_mod : bool;
      (** [im_mod] is this instance's private copy, made by the first
          {!link_module} *)
  im_sys : Sva_os.Svaos.t;
  funcs : (string, prepared_func) Hashtbl.t;
  fn_addr : (string, int) Hashtbl.t;
  addr_fn : (int, string) Hashtbl.t;
  g_addr : (string, int) Hashtbl.t;
  g_size : (string, int) Hashtbl.t;
  mps : (int, Sva_rt.Metapool_rt.t) Hashtbl.t;
  size_cache : (Ty.t, int) Hashtbl.t;
  mutable g_cursor : int;
  mutable next_code : int;
  mutable sp : int;
  mutable heap_ptr : int;
  free_lists : (int, int list ref) Hashtbl.t;
  alloc_sizes : (int, int) Hashtbl.t;
  mutable live_heap : int;
  mutable nsteps : int;
  mutable ncycles : int;
  mutable limit : int option;
  mutable jit : jit option;
  fcache : frame_cache;
}

and jit = t -> prepared_func -> int64 list -> int64 option
(** The compiled engine (Section 3.4's translate-and-cache SVM): [enter]
    hands a function not yet translated to it on its first entry, and
    the result becomes the function's entry point.  Translation is host
    work — it must not perturb the modeled cycles, steps, or check
    statistics. *)

val load :
  ?sys:Sva_os.Svaos.t ->
  ?metapools:(int * Sva_rt.Metapool_rt.t) list ->
  Irmod.t ->
  t
(** Translate a verified module into an executable image.  [metapools]
    maps the metapool ids referenced by inserted [pchk.*] intrinsics to
    their run-time pools. *)

val sys : t -> Sva_os.Svaos.t
val irmod : t -> Irmod.t

val link_module : t -> Irmod.t -> unit
(** Dynamically load a kernel module into a running image (Section 3.4:
    "kernel modules and device drivers can be dynamically loaded ...
    because both the bytecode verifier and translator are intraprocedural
    and hence modular").  The module is linked symbol-by-symbol against
    the running kernel (externs resolve to kernel definitions), its
    functions receive code addresses, and its globals are laid out and
    initialized; already-loaded code is not moved.  The module must
    already be verified.  The image's module is copied on the first
    link, so the module it was loaded from, and every other instance
    loaded from it, never sees the linked symbols.
    @raise Invalid_argument on symbol clashes. *)

val call : t -> string -> int64 list -> int64 option
(** Execute a function by name.  Returns its result (integers and
    pointers in canonical sign-extended form), or [None] for void.  An
    exception aborts the whole invocation: the stack allocator is reset
    to where the call began and the unwound frames' stack objects are
    deregistered, so the instance can be called again.
    @raise Vm_error on execution errors
    @raise Sva_rt.Violation.Safety_violation when a run-time check fires
    @raise Sva_hw.Machine.Hw_fault on wild hardware-level accesses. *)

val call_addr : t -> int -> int64 list -> int64 option
(** Call through a code address (used for registered handlers). *)

val func_addr : t -> string -> int
(** Synthetic code address of a function.  @raise Not_found. *)

val func_name : t -> int -> string option
(** Reverse lookup of {!func_addr}. *)

val global_addr : t -> string -> int
(** Machine address where a global was laid out.  @raise Not_found. *)

val global_size : t -> string -> int

val metapool : t -> int -> Sva_rt.Metapool_rt.t option

val metapools : t -> (int * Sva_rt.Metapool_rt.t) list
(** All runtime metapools in id order — the per-pool metrics report walks
    this. *)

val steps : t -> int
(** Instructions executed since load (or the last {!reset_steps}). *)

val reset_steps : t -> unit

val cycles : t -> int
(** The deterministic cycle model: one cycle per virtual instruction plus
    charged costs for SVA-OS operations (higher in mediated mode — the
    privilege-boundary work of Section 3.3), run-time checks (base cost,
    plus 3 cycles per splay-tree comparison actually performed, plus
    1 cycle per object-lookup cache hit — see DESIGN.md Section 6), bulk
    builtins and the trap path.  The performance tables are computed from
    this metric (deterministic and noise-free); wall-clock timing is the
    cross-check. *)

val reset_cycles : t -> unit

val add_cycles : t -> int -> unit
(** Charge external work to the cycle model (the SVM trap entry/exit). *)

val set_step_limit : t -> int option -> unit
(** Abort with [Vm_error] after this many instructions (default: none). *)

val heap_live_bytes : t -> int
(** Bytes currently allocated by the [malloc] instruction's allocator. *)

(** {1 Execution internals}

    Exposed for {!Closcomp}, which compiles prepared functions to closure
    trees sharing these primitives so the two tiers cannot drift. *)

val vm_err : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Vm_error} with a formatted message. *)

val eval : t -> int64 array -> Value.t -> int64
val to_addr : int64 -> int
val sizeof : t -> Ty.t -> int
val ty_width : Ty.t -> int
val width_of_value : Value.t -> int
val gep_offset : t -> Ty.t -> int64 array -> Value.t list -> int64
val mem_read_int : t -> addr:int -> width:int -> int64
val mem_write_int : t -> addr:int -> width:int -> int64 -> unit

val mem_read_cached : t -> addr:int -> width:int -> int64
(** {!mem_read_int} through the VM's page-to-frame cache, as compiled
    code reaches memory: the same value or the same exception, and no
    modeled cycle.  A hit (a page this cache filled since the MMU last
    changed, an access of width 1, 2, 4 or 8 inside it) is a tag and a
    generation compare and one [Bytes] read; anything else takes the
    uncached path and then fills the page's slot, unless the page is
    still untouched (reads as the shared zero frame).  The interpreter
    does not use it: it stays the uncached oracle. *)

val mem_write_cached : t -> addr:int -> width:int -> int64 -> unit
(** {!mem_write_int} through the same cache.  Only a store fills a slot
    that stores may hit, after the uncached store made the page's frame
    private and found the page writable; an SVM-reserved page is never
    opened to stores. *)

val frame_cache_counts : t -> int * int
(** Misses (accesses that took the uncached path) and flushes (MMU
    generation changes seen) of the cache since {!load}. *)

val heap_alloc : t -> int -> int
val heap_free : t -> int -> unit

val builtin : t -> string -> int64 array -> int64 option
val is_builtin : string -> bool

val funccheck_set : Value.t array -> int64 array -> (int, string) Hashtbl.t
(** [funccheck_set vargs args] is a [pchk_funccheck] site's allowed-target
    set: the address in [args.(k)] of each allowed operand [vargs.(k)],
    [k >= 1], named by its function.  The interpreter builds a constant
    site's {!fc_cache} with it on first execution, the compiled tier at
    translation time. *)

val run_intr :
  t -> intr -> Value.t array -> int64 array -> int -> int -> int64 option
(** [run_intr t intr vargs args cost_native cost_mediated] executes a
    decoded intrinsic on already-evaluated arguments [args] ([vargs]
    carries the original operands for [pchk_funccheck] diagnostics) and
    charges it: the base cost for the current SVA-OS mode, the check
    runtime's lookup work while it ran (splay comparisons and object-cache
    hits at the cycle model's rates, DESIGN.md Section 6), and the
    page-table walk that [sva_mmu_clone_space] costs.  Both engines
    execute intrinsics through it. *)

val enter : t -> prepared_func -> int64 list -> int64 option
(** Engine dispatch: run the function's compiled entry, translating it
    first if a translator is installed and it has none yet; with no
    translator, interpret.  When {!Sva_rt.Trace.profiling} is on, the
    dispatch is bracketed with profiler frames — identically for both
    engines, and balanced even when a safety violation unwinds through
    it. *)

val dispatch_call : t -> string -> int64 list -> int64 option
(** Call by name through engine dispatch; falls back to builtins. *)

val set_jit : t -> jit option -> unit
(** Install (or remove) the translator of the compiled engine. *)

(** Simulated physical machine memory.

    The machine exposes a flat physical address space carved into fixed
    regions (BIOS, SVM-reserved, kernel globals, kernel heap, kernel
    stacks, userspace frames).  Each region is an array of 4 KiB page
    frames ({!Frames}), allocated on the first store to each page; a page
    nothing has stored to reads as zero.  Creating a machine therefore
    allocates only the frame tables, while addresses inside a region stay
    contiguous: an out-of-bounds write inside a region still silently
    corrupts whatever object is adjacent, across page boundaries too —
    exactly the behaviour memory-safety exploits rely on, and what the SVA
    run-time checks must catch {e before} the access happens.  Only access
    outside any region (or to a page the MMU says is unmapped) raises
    {!Hw_fault}, modelling a hardware fault.

    The SVM-reserved region models the ~20KB the virtual machine reserves
    for its own bootstrap (Section 3.4); stores to it from kernel code are
    refused unless performed through the SVM itself. *)

exception Hw_fault of int * string
(** Raised on access outside mapped memory: (address, reason). *)

(** Fixed region layout (addresses are plain ints; the VM is 64-bit). *)

val bios_base : int
val bios_size : int
val svm_base : int
val svm_size : int
val globals_base : int
val globals_size : int
val heap_base : int
val heap_size : int
val stack_base : int
val stack_size : int
val user_base : int
val user_size : int

val page_size : int
(** 4096 bytes. *)

val max_cpus : int
(** Most CPUs a simulated-SMP machine may model (8). *)

val percpu_trap_size : int
(** Bytes of private trap-scratch memory per modeled CPU (8 KB). *)

val percpu_trap_base : cpu:int -> int
(** Base of the given CPU's trap scratch area, carved downward from the
    top of the kernel-stack region.  CPU 0's area is exactly the old
    single-CPU interrupt-context scratch address, so 1-CPU memory layouts
    (and hence cycle counts) are unchanged.
    @raise Invalid_argument outside [0, max_cpus). *)

type t

val create : unit -> t

val probe : t -> addr:int -> len:int -> unit
(** Raise exactly the {!Hw_fault} a read of the range would, allocating
    nothing. *)

val read : t -> addr:int -> len:int -> Bytes.t
(** Copy [len] bytes out of memory.  @raise Hw_fault if the range is not
    fully inside one region. *)

val write : t -> addr:int -> Bytes.t -> unit
(** @raise Hw_fault on unmapped ranges or kernel stores into the
    SVM-reserved region (unless {!svm_mode} is on). *)

val read_int : t -> addr:int -> width:int -> int64
(** Little-endian load of [width] bytes (1, 2, 4 or 8), sign-extended to
    the canonical 64-bit representation. *)

val write_int : t -> addr:int -> width:int -> int64 -> unit
(** Little-endian store of the low [width] bytes.  A scalar access that
    stays inside one page allocates nothing but {!read_int}'s result and,
    on the first store to a page, its frame. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** memmove semantics within/between regions, frame to frame.  A
    non-positive [len] does nothing. *)

val fill : t -> addr:int -> len:int -> char -> unit
(** A ['\000'] fill leaves untouched pages unallocated.  A non-positive
    [len] does nothing. *)

val in_user_range : addr:int -> len:int -> bool
(** Whether a byte range lies entirely within the userspace region. *)

val in_kernel_range : addr:int -> bool

val with_svm_mode : t -> (unit -> 'a) -> 'a
(** Run [f] with SVM privileges: stores to the SVM-reserved region are
    permitted (the virtual machine updating its own state). *)

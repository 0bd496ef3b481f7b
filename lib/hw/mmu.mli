(** Simulated MMU: per-address-space page tables for the userspace window.

    Kernel addresses are identity-mapped (the classic lowmem direct map);
    only userspace virtual pages are translated.  The SVM mediates every
    page-table update through the SVA-OS MMU operations, which lets it
    refuse mappings that would expose SVM-reserved memory to the kernel or
    to user programs (Section 3.4). *)

exception Mmu_fault of int * string

type prot = { p_read : bool; p_write : bool; p_user : bool }

type space
(** One address space (one process's user mappings). *)

type t
(** The MMU: a set of address spaces and the currently active one. *)

val create : unit -> t

val new_space : t -> space
(** Create an empty address space. *)

val clone_space : t -> space -> space
(** Duplicate all mappings (fork).  Returns the copy. *)

val destroy_space : t -> space -> unit

val activate : t -> space -> unit
(** Load the "page table base register". *)

val current : t -> space option

val space_id : space -> int

val map_page : space -> vpn:int -> ppn:int -> prot:prot -> unit
(** Install a translation for user virtual page [vpn].
    @raise Mmu_fault if [ppn] would alias SVM-reserved memory. *)

val unmap_page : space -> vpn:int -> unit

val translate : t -> addr:int -> write:bool -> int
(** Translate a user virtual address through the active space.
    Kernel addresses return unchanged.  @raise Mmu_fault on missing
    mapping or protection violation. *)

val page_count : space -> int

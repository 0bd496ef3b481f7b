(** Sparse, demand-backed byte store: the frame layout behind machine
    memory and the ram-disk.

    A store of [n] bytes is an array of 4 KiB frames, the machine page
    size.  A frame is allocated on the first store into it.  Until then
    its slot aliases one shared frame of zeros that nothing ever writes,
    so untouched memory reads as zero without a branch on the read path,
    and creating a store allocates only its frame table.

    Offsets are not checked against {!length}: callers (the machine's
    region dispatch, the ram-disk's block check) validate whole ranges
    first.  Past the last frame, OCaml's own bounds checks raise
    [Invalid_argument]. *)

type t

val create : int -> t
(** [create n]: [n] zero bytes with no frame allocated. *)

val length : t -> int

val get_int : t -> off:int -> width:int -> int64
(** Little-endian load of [width] bytes (1, 2, 4 or 8), sign-extended to
    64 bits.  Allocates nothing but the result unless the load crosses a
    frame boundary.  @raise Invalid_argument on any other width. *)

val set_int : t -> off:int -> width:int -> int64 -> unit
(** Little-endian store of the low [width] bytes of the value.
    @raise Invalid_argument on a width other than 1, 2, 4 or 8. *)

val frame_of : t -> off:int -> Bytes.t option
(** The frame holding byte [off], or [None] while it is still the shared
    frame of zeros.  An allocated frame is never replaced, so a caller may
    keep it and reach the page's bytes through it, at offset
    [off land 4095], for as long as the store lives. *)

val read : t -> off:int -> len:int -> Bytes.t
(** A fresh copy of [len] bytes. *)

val write : t -> off:int -> Bytes.t -> len:int -> unit
(** Store the first [len] bytes of the buffer. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Copy frame to frame with memmove semantics: overlapping ranges in one
    store copy as if through a temporary buffer.  Zeros copied onto an
    untouched frame leave it unallocated. *)

val fill : t -> off:int -> len:int -> char -> unit
(** A ['\000'] fill leaves untouched frames unallocated. *)

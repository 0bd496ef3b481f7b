(** Simulated devices reached through SVA-OS I/O operations: a console, a
    ram-disk, a timer, and a loopback NIC.  Device drivers in the kernel
    were among the code the paper required I/O instruction changes for
    (Section 6.1); here every driver access goes through [sva.io.*]
    operations implemented over these models. *)

type console = { mutable out : Buffer.t }

type ramdisk = {
  rd_blocks : Frames.t;  (** sparse: a block never written reads as zeros *)
  rd_block_size : int;
  mutable rd_reads : int;
  mutable rd_writes : int;
}

(** A network frame on the simulated wire. *)
type frame = { fr_proto : int; fr_payload : Bytes.t }

type nic = {
  mutable rx : frame list;  (** frames awaiting kernel receive *)
  mutable tx : frame list;  (** frames sent by the kernel (newest first) *)
  mutable rx_dropped : int;
}

type timer = { mutable ticks : int64 }

type t = {
  console : console;
  disk : ramdisk;
  nic : nic;
  timer : timer;
}

val create : ?disk_blocks:int -> ?block_size:int -> unit -> t

val console_write : t -> Bytes.t -> unit
val console_output : t -> string

val disk_read : t -> block:int -> Bytes.t
(** @raise Invalid_argument on out-of-range block numbers. *)

val disk_write : t -> block:int -> Bytes.t -> unit

val nic_inject : t -> frame -> unit
(** Host side: put a frame on the wire for the kernel to receive. *)

val nic_recv : t -> frame option
(** Kernel side: take the next received frame. *)

val nic_send : t -> frame -> unit
(** Kernel side: transmit a frame. *)

val nic_take_tx : t -> frame list
(** Host side: drain transmitted frames (oldest first). *)

val timer_read : t -> int64
val timer_tick : t -> unit

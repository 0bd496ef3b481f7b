type console = { mutable out : Buffer.t }

type ramdisk = {
  rd_blocks : Frames.t;
  rd_block_size : int;
  mutable rd_reads : int;
  mutable rd_writes : int;
}

type frame = { fr_proto : int; fr_payload : Bytes.t }

type nic = {
  mutable rx : frame list;
  mutable tx : frame list;
  mutable rx_dropped : int;
}

type timer = { mutable ticks : int64 }

type t = { console : console; disk : ramdisk; nic : nic; timer : timer }

let create ?(disk_blocks = 4096) ?(block_size = 512) () =
  {
    console = { out = Buffer.create 256 };
    disk =
      {
        rd_blocks = Frames.create (disk_blocks * block_size);
        rd_block_size = block_size;
        rd_reads = 0;
        rd_writes = 0;
      };
    nic = { rx = []; tx = []; rx_dropped = 0 };
    timer = { ticks = 0L };
  }

let console_write t b = Buffer.add_bytes t.console.out b
let console_output t = Buffer.contents t.console.out
let console_clear t = Buffer.clear t.console.out

let check_block t block =
  let nblocks = Frames.length t.disk.rd_blocks / t.disk.rd_block_size in
  if block < 0 || block >= nblocks then
    invalid_arg (Printf.sprintf "ramdisk: block %d out of range" block)

let disk_read t ~block =
  check_block t block;
  t.disk.rd_reads <- t.disk.rd_reads + 1;
  Frames.read t.disk.rd_blocks ~off:(block * t.disk.rd_block_size)
    ~len:t.disk.rd_block_size

let disk_write t ~block b =
  check_block t block;
  t.disk.rd_writes <- t.disk.rd_writes + 1;
  let len = min (Bytes.length b) t.disk.rd_block_size in
  Frames.write t.disk.rd_blocks ~off:(block * t.disk.rd_block_size) b ~len

let nic_inject t fr = t.nic.rx <- t.nic.rx @ [ fr ]

let nic_recv t =
  match t.nic.rx with
  | [] -> None
  | fr :: rest ->
      t.nic.rx <- rest;
      Some fr

let nic_send t fr = t.nic.tx <- fr :: t.nic.tx

let nic_take_tx t =
  let frames = List.rev t.nic.tx in
  t.nic.tx <- [];
  frames

let timer_read t = t.timer.ticks
let timer_tick t = t.timer.ticks <- Int64.add t.timer.ticks 1L

exception Hw_fault of int * string

let page_size = 4096

let bios_base = 0x000E0000
let bios_size = 0x00020000 (* 128 KB *)
let svm_base = 0x00010000
let svm_size = 0x00005000 (* 20 KB, Section 3.4 *)
let globals_base = 0x00200000
let globals_size = 8 * 1024 * 1024
let heap_base = 0x01000000
let heap_size = 64 * 1024 * 1024
let stack_base = 0x08000000
let stack_size = 16 * 1024 * 1024
let user_base = 0x40000000
let user_size = 32 * 1024 * 1024

(* Simulated-SMP limits.  Each modeled CPU gets a private 8KB trap
   scratch area carved from the top of the kernel-stack region for its
   interrupt contexts; CPU 0's area starts exactly where the single-CPU
   scratch always lived, so 1-CPU layouts are unchanged. *)
let max_cpus = 8
let percpu_trap_size = 8192

let percpu_trap_base ~cpu =
  if cpu < 0 || cpu >= max_cpus then
    invalid_arg
      (Printf.sprintf "Machine.percpu_trap_base: cpu %d out of range [0,%d)"
         cpu max_cpus);
  stack_base + stack_size - 4096 - (cpu * percpu_trap_size)

type region = { base : int; size : int; svm : bool; mem : Frames.t }

type t = { regions : region array; mutable svm : bool }

(* Ascending base order; [true] marks the SVM-reserved region. *)
let layout =
  [|
    (svm_base, svm_size, true);
    (bios_base, bios_size, false);
    (globals_base, globals_size, false);
    (heap_base, heap_size, false);
    (stack_base, stack_size, false);
    (user_base, user_size, false);
  |]

let create () =
  {
    regions =
      Array.map
        (fun (base, size, svm) -> { base; size; svm; mem = Frames.create size })
        layout;
    svm = false;
  }

(* Region dispatch.  Every region base is a multiple of 64 KiB, so the
   region with the greatest base at or below an address (its floor) is a
   property of the address's 64 KiB chunk: one table load finds the only
   region that can hold an access starting there, and one comparison
   decides whether the access fits. *)
let chunk_bits = 16
let no_region = '\255'

let top =
  let base, size, _ = layout.(Array.length layout - 1) in
  base + size

let floors =
  assert (
    Array.for_all
      (fun (base, _, _) -> base land ((1 lsl chunk_bits) - 1) = 0)
      layout);
  Bytes.init (top lsr chunk_bits) (fun c ->
      let addr = c lsl chunk_bits in
      match
        Array.fold_left
          (fun n (base, _, _) -> if base <= addr then n + 1 else n)
          0 layout
      with
      | 0 -> no_region
      | n -> Char.chr (n - 1))

let unmapped addr =
  Hw_fault (addr, Printf.sprintf "access to unmapped address 0x%x" addr)

(* The region holding [addr, addr + len). *)
let region t addr len =
  if len < 0 then raise (Hw_fault (addr, "negative access length"));
  let c = addr lsr chunk_bits in
  let i =
    if c < Bytes.length floors then Bytes.unsafe_get floors c
    else if addr < 0 then no_region
    else Char.unsafe_chr (Array.length layout - 1)
  in
  if i = no_region then raise (unmapped addr);
  let r = Array.unsafe_get t.regions (Char.code i) in
  if addr - r.base > r.size - len then raise (unmapped addr);
  r

(* The region for a store: kernel code may not write SVM memory. *)
let store_region t addr len =
  let r = region t addr len in
  if r.svm && not t.svm then
    raise (Hw_fault (addr, "kernel store into SVM-reserved memory"));
  r

let check_width addr width =
  match width with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> raise (Hw_fault (addr, "bad access width"))

let probe t ~addr ~len = ignore (region t addr len)

let read t ~addr ~len =
  let r = region t addr len in
  Frames.read r.mem ~off:(addr - r.base) ~len

let write t ~addr b =
  let len = Bytes.length b in
  let r = store_region t addr len in
  Frames.write r.mem ~off:(addr - r.base) b ~len

let read_int t ~addr ~width =
  let r = region t addr width in
  check_width addr width;
  Frames.get_int r.mem ~off:(addr - r.base) ~width

let write_int t ~addr ~width v =
  let r = store_region t addr width in
  check_width addr width;
  Frames.set_int r.mem ~off:(addr - r.base) ~width v

let frame_of t ~addr ~write =
  let r = region t addr 1 in
  if write && r.svm then None else Frames.frame_of r.mem ~off:(addr - r.base)

let blit t ~src ~dst ~len =
  if len > 0 then begin
    let s = region t src len in
    let d = store_region t dst len in
    Frames.blit ~src:s.mem ~src_off:(src - s.base) ~dst:d.mem
      ~dst_off:(dst - d.base) ~len
  end

let fill t ~addr ~len c =
  if len > 0 then begin
    let r = store_region t addr len in
    Frames.fill r.mem ~off:(addr - r.base) ~len c
  end

let in_user_range ~addr ~len =
  addr >= user_base && addr + len <= user_base + user_size && len >= 0

let in_kernel_range ~addr = addr < user_base

let with_svm_mode t f =
  let prev = t.svm in
  t.svm <- true;
  Fun.protect ~finally:(fun () -> t.svm <- prev) f

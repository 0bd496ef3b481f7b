open Sva_hw

type mode = Native_inline | Sva_mediated

type percpu = {
  pc_id : int;
  pc_cpu : Cpu.t;
  mutable pc_icontexts : int list;
  mutable pc_ipis : int list;  (* pending IPI vectors, oldest first *)
}

type t = {
  machine : Machine.t;
  cpu : Cpu.t;  (* alias of [cpus.(0).pc_cpu], kept for 1-CPU callers *)
  cpus : percpu array;
  smp : Sva_rt.Smp.t;
  mmu : Mmu.t;
  devices : Devices.t;
  mutable mode : mode;
  syscalls : (int, string) Hashtbl.t;
  interrupts : (int, string) Hashtbl.t;
  spaces : (int, Mmu.space) Hashtbl.t;
  mutable ops_count : int;
  locks : (int, int) Hashtbl.t;  (* lock address -> holder CPU *)
}

let create ?(mode = Sva_mediated) ?(ncpus = 1) () =
  if ncpus < 1 || ncpus > Machine.max_cpus then
    invalid_arg
      (Printf.sprintf "Svaos.create: ncpus %d out of range [1,%d]" ncpus
         Machine.max_cpus);
  let cpus =
    Array.init ncpus (fun i ->
        { pc_id = i; pc_cpu = Cpu.create (); pc_icontexts = []; pc_ipis = [] })
  in
  {
    machine = Machine.create ();
    cpu = cpus.(0).pc_cpu;
    cpus;
    smp = Sva_rt.Smp.create ~ncpus ();
    mmu = Mmu.create ();
    devices = Devices.create ();
    mode;
    syscalls = Hashtbl.create 64;
    interrupts = Hashtbl.create 16;
    spaces = Hashtbl.create 16;
    ops_count = 0;
    locks = Hashtbl.create 8;
  }

let set_mode t m = t.mode <- m

let op t = t.ops_count <- t.ops_count + 1

(* ---------- simulated SMP ----------

   The SVM interleaves the modeled CPUs on one host thread, so "the
   current CPU" is the one the scheduler last selected.  Switching also
   retags the trace, so every event is attributed to the executing
   CPU. *)

let smpctx t = t.smp
let ncpus t = Array.length t.cpus
let current_cpu t = Sva_rt.Smp.cur t.smp
let curpc t = t.cpus.(Sva_rt.Smp.cur t.smp)
let curcpu t = (curpc t).pc_cpu
let cpu_state t ~cpu = t.cpus.(cpu).pc_cpu

let switch_cpu t i =
  Sva_rt.Smp.set_cur t.smp i;
  Sva_rt.Trace.set_cpu i

(* Inter-processor interrupts: Table 2's missing multiprocessor piece.
   Sending enqueues a vector on the target CPU; the vector is delivered
   (trapped on) the next time the scheduler runs that CPU with
   interrupts enabled.  Sending to yourself is allowed (the kernel's
   reschedule path does it). *)

let ipi_send t ~cpu ~vector =
  op t;
  if cpu < 0 || cpu >= Array.length t.cpus then
    failwith (Printf.sprintf "SVA-OS: IPI to nonexistent CPU %d" cpu);
  Sva_rt.Stats.bump_ipi_sent ();
  let pc = t.cpus.(cpu) in
  pc.pc_ipis <- pc.pc_ipis @ [ vector ]

let ipi_pending t = (curpc t).pc_ipis <> []

let take_ipi t =
  let pc = curpc t in
  match pc.pc_ipis with
  | [] -> None
  | v :: rest ->
      pc.pc_ipis <- rest;
      Sva_rt.Stats.bump_ipi_delivered ();
      Some v

let interrupts_enabled t = (curcpu t).Cpu.interrupts_enabled

(* In mediated mode, validate that a state buffer lies in kernel memory:
   the SVM refuses to spill processor state where userspace could reach
   it. *)
let validate_buffer t ~addr ~len =
  match t.mode with
  | Native_inline -> ()
  | Sva_mediated ->
      if not (Machine.in_kernel_range ~addr) || Machine.in_user_range ~addr ~len
      then failwith "SVA-OS: state buffer not in kernel memory";
      (* Probe the range to force a fault now rather than mid-save. *)
      Machine.probe t.machine ~addr ~len

let save_integer t ~buffer =
  op t;
  validate_buffer t ~addr:buffer ~len:Cpu.integer_state_size;
  Machine.with_svm_mode t.machine (fun () ->
      Cpu.save_integer (curcpu t) t.machine ~addr:buffer)

let load_integer t ~buffer =
  op t;
  validate_buffer t ~addr:buffer ~len:Cpu.integer_state_size;
  Cpu.load_integer (curcpu t) t.machine ~addr:buffer

let save_fp t ~buffer ~always =
  op t;
  validate_buffer t ~addr:buffer ~len:Cpu.fp_state_size;
  Machine.with_svm_mode t.machine (fun () ->
      Cpu.save_fp (curcpu t) t.machine ~addr:buffer ~always)

let load_fp t ~buffer =
  op t;
  validate_buffer t ~addr:buffer ~len:Cpu.fp_state_size;
  Cpu.load_fp (curcpu t) t.machine ~addr:buffer

(* ---------- interrupt contexts ----------

   Layout of an interrupt context record:
     +0   : magic/integrity tag (mediated mode)
     +8   : flags (bit 0: was_privileged; bit 1: has pending ipush)
     +16  : pending function address
     +24  : pending argument
     +32  : saved integer state (Cpu.integer_state_size bytes)        *)

let icontext_size = 32 + Cpu.integer_state_size

let ic_magic = 0x53564149434F4EL (* "SVAICON" *)

let icontext_create t ~sp ~was_privileged =
  op t;
  let icp = sp in
  Machine.with_svm_mode t.machine (fun () ->
      (match t.mode with
      | Sva_mediated -> Machine.write_int t.machine ~addr:icp ~width:8 ic_magic
      | Native_inline -> Machine.write_int t.machine ~addr:icp ~width:8 0L);
      Machine.write_int t.machine ~addr:(icp + 8) ~width:8
        (if was_privileged then 1L else 0L);
      Machine.write_int t.machine ~addr:(icp + 16) ~width:8 0L;
      Machine.write_int t.machine ~addr:(icp + 24) ~width:8 0L;
      (* On entry the SVM saves only the subset of control state the kernel
         will clobber; in native mode this is a smaller spill.  We model
         the cost difference by the amount of state written. *)
      match t.mode with
      | Sva_mediated -> Cpu.save_integer (curcpu t) t.machine ~addr:(icp + 32)
      | Native_inline ->
          (* Native trap entry pushes a minimal frame. *)
          for i = 0 to 5 do
            Machine.write_int t.machine ~addr:(icp + 32 + (i * 8)) ~width:8
              (curcpu t).Cpu.gpr.(i)
          done);
  let pc = curpc t in
  pc.pc_icontexts <- icp :: pc.pc_icontexts;
  icp

let check_ic t ~icp =
  match t.mode with
  | Native_inline -> ()
  | Sva_mediated ->
      if Machine.read_int t.machine ~addr:icp ~width:8 <> ic_magic then
        failwith "SVA-OS: bad interrupt context handle"

let icontext_save t ~icp ~isp =
  op t;
  check_ic t ~icp;
  validate_buffer t ~addr:isp ~len:Cpu.integer_state_size;
  Machine.blit t.machine ~src:(icp + 32) ~dst:isp ~len:Cpu.integer_state_size

let icontext_load t ~icp ~isp =
  op t;
  check_ic t ~icp;
  validate_buffer t ~addr:isp ~len:Cpu.integer_state_size;
  Machine.with_svm_mode t.machine (fun () ->
      Machine.blit t.machine ~src:isp ~dst:(icp + 32) ~len:Cpu.integer_state_size)

let icontext_commit t ~icp =
  op t;
  check_ic t ~icp;
  (* Commit the full interrupted state (the lazy part) to memory. *)
  Machine.with_svm_mode t.machine (fun () ->
      Cpu.save_integer (curcpu t) t.machine ~addr:(icp + 32))

let ipush_function t ~icp ~fn ~arg =
  op t;
  check_ic t ~icp;
  Machine.with_svm_mode t.machine (fun () ->
      let flags = Machine.read_int t.machine ~addr:(icp + 8) ~width:8 in
      Machine.write_int t.machine ~addr:(icp + 8) ~width:8 (Int64.logor flags 2L);
      Machine.write_int t.machine ~addr:(icp + 16) ~width:8 (Int64.of_int fn);
      Machine.write_int t.machine ~addr:(icp + 24) ~width:8 arg)

let ipush_pending t ~icp =
  check_ic t ~icp;
  let flags = Machine.read_int t.machine ~addr:(icp + 8) ~width:8 in
  if Int64.logand flags 2L = 0L then None
  else begin
    Machine.with_svm_mode t.machine (fun () ->
        Machine.write_int t.machine ~addr:(icp + 8) ~width:8
          (Int64.logand flags (Int64.lognot 2L)));
    let fn = Machine.read_int t.machine ~addr:(icp + 16) ~width:8 in
    let arg = Machine.read_int t.machine ~addr:(icp + 24) ~width:8 in
    Some (Int64.to_int fn, arg)
  end

let was_privileged t ~icp =
  op t;
  check_ic t ~icp;
  Int64.logand (Machine.read_int t.machine ~addr:(icp + 8) ~width:8) 1L <> 0L

let icontext_destroy t ~icp =
  check_ic t ~icp;
  let pc = curpc t in
  match pc.pc_icontexts with
  | top :: rest when top = icp ->
      Machine.with_svm_mode t.machine (fun () ->
          Machine.write_int t.machine ~addr:icp ~width:8 0L);
      pc.pc_icontexts <- rest
  | _ -> failwith "SVA-OS: unbalanced interrupt context destroy"

let icontext_depth t = List.length (curpc t).pc_icontexts

(* ---------- registration ---------- *)

let register_syscall t ~num ~handler =
  op t;
  Hashtbl.replace t.syscalls num handler

let syscall_handler t ~num = Hashtbl.find_opt t.syscalls num

let register_interrupt t ~vector ~handler =
  op t;
  Hashtbl.replace t.interrupts vector handler

let interrupt_handler t ~vector = Hashtbl.find_opt t.interrupts vector

(* ---------- MMU ---------- *)

let get_space t sid =
  match Hashtbl.find_opt t.spaces sid with
  | Some sp -> sp
  | None -> failwith (Printf.sprintf "SVA-OS: unknown address space %d" sid)

let mmu_new_space t =
  op t;
  let sp = Mmu.new_space t.mmu in
  Hashtbl.replace t.spaces (Mmu.space_id sp) sp;
  Mmu.space_id sp

let mmu_clone_space t ~sid =
  op t;
  let sp = Mmu.clone_space t.mmu (get_space t sid) in
  Hashtbl.replace t.spaces (Mmu.space_id sp) sp;
  Mmu.space_id sp

let mmu_destroy_space t ~sid =
  op t;
  let sp = get_space t sid in
  Mmu.destroy_space t.mmu sp;
  Hashtbl.remove t.spaces sid

let mmu_activate t ~sid =
  op t;
  Mmu.activate t.mmu (get_space t sid)

let mmu_map_page t ~sid ~vpn ~ppn ~writable =
  op t;
  Mmu.map_page (get_space t sid) ~vpn ~ppn
    ~prot:{ Mmu.p_read = true; p_write = writable; p_user = true }

let mmu_unmap_page t ~sid ~vpn =
  op t;
  Mmu.unmap_page (get_space t sid) ~vpn

let mmu_page_count t ~sid =
  op t;
  Mmu.page_count (get_space t sid)

let mmu_pages t ~sid = Mmu.mapped_pages (get_space t sid)

(* ---------- I/O ---------- *)

let io_console_write t ~addr ~len =
  op t;
  Devices.console_write t.devices (Machine.read t.machine ~addr ~len)

let io_disk_read t ~block ~addr =
  op t;
  Machine.write t.machine ~addr (Devices.disk_read t.devices ~block)

let io_disk_write t ~block ~addr =
  op t;
  Devices.disk_write t.devices ~block
    (Machine.read t.machine ~addr ~len:t.devices.Devices.disk.Devices.rd_block_size)

let io_nic_send t ~proto ~addr ~len =
  op t;
  Devices.nic_send t.devices
    { Devices.fr_proto = proto; fr_payload = Machine.read t.machine ~addr ~len }

let io_nic_recv t ~addr ~maxlen =
  op t;
  match Devices.nic_recv t.devices with
  | None -> -1
  | Some fr ->
      let payload_len = min (Bytes.length fr.Devices.fr_payload) (maxlen - 4) in
      Machine.write_int t.machine ~addr ~width:4 (Int64.of_int fr.Devices.fr_proto);
      Machine.write t.machine ~addr:(addr + 4)
        (Bytes.sub fr.Devices.fr_payload 0 payload_len);
      payload_len + 4

let timer_read t =
  op t;
  Devices.timer_tick t.devices;
  Devices.timer_read t.devices

let cli t =
  op t;
  Sva_rt.Stats.bump_cli ();
  (curcpu t).Cpu.interrupts_enabled <- false

let sti t =
  op t;
  Sva_rt.Stats.bump_sti ();
  (curcpu t).Cpu.interrupts_enabled <- true

(* ---------- spinlocks ----------

   The lock word is identified by its kernel address and records its
   holder CPU.  The scheduler interleaves CPUs at trap granularity, so a
   contended acquire could never succeed: re-acquiring your own lock is
   a self-deadlock, and acquiring another CPU's lock would spin forever
   (the holder only runs again after this CPU yields, which a spinning
   acquire never does).  Both are reported as failures, as is releasing
   a lock this CPU does not hold — bugs the static lockset analysis is
   meant to rule out before execution. *)

let lock_acquire t ~lock =
  op t;
  Sva_rt.Stats.bump_lock_acquire ();
  (match Hashtbl.find_opt t.locks lock with
  | Some holder when holder = current_cpu t ->
      failwith "SVA-OS: deadlock: lock already held"
  | Some holder ->
      failwith
        (Printf.sprintf
           "SVA-OS: deadlock: spinning on a lock held by CPU %d" holder)
  | None -> ());
  Hashtbl.replace t.locks lock (current_cpu t)

let lock_release t ~lock =
  op t;
  Sva_rt.Stats.bump_lock_release ();
  (match Hashtbl.find_opt t.locks lock with
  | None -> failwith "SVA-OS: releasing a lock that is not held"
  | Some holder when holder <> current_cpu t ->
      failwith
        (Printf.sprintf "SVA-OS: releasing a lock held by CPU %d" holder)
  | Some _ -> ());
  Hashtbl.remove t.locks lock

let lock_held t ~lock = Hashtbl.mem t.locks lock

let heap_base _ = Machine.heap_base
let heap_size _ = Machine.heap_size
let user_base _ = Machine.user_base
let user_size _ = Machine.user_size
let stack_base _ = Machine.stack_base
let stack_size _ = Machine.stack_size

(* End-to-end kernel tests: boot under every configuration and exercise
   the system-call surface.  The same MiniC kernel runs natively and under
   the full safety pipeline; behaviour must agree. *)

module Boot = Ukern.Boot
module Pipeline = Sva_pipeline.Pipeline

(* Compile each configuration once; boot fresh per test. *)
let built = Hashtbl.create 4

let kernel ?engine conf =
  let b =
    match Hashtbl.find_opt built conf with
    | Some b -> b
    | None ->
        let b = Ukern.Kbuild.build ~conf Ukern.Kbuild.as_tested in
        Hashtbl.replace built conf b;
        b
  in
  Boot.boot_built ?engine b ~variant:Ukern.Kbuild.as_tested

let both_confs = [ Pipeline.Native; Pipeline.Sva_safe ]

let for_both f = List.iter (fun conf -> f (kernel conf)) both_confs

(* syscalls *)
let n_getpid = 1
let n_getrusage = 2
let n_gettimeofday = 3
let n_open = 4
let n_close = 5
let n_read = 6
let n_write = 7
let n_pipe = 8
let n_fork = 9
let n_execve = 10
let n_sbrk = 11
let n_sigaction = 12
let n_kill = 13
let n_socket = 14
let n_bind = 15
let n_sendto = 16
let n_recvfrom = 17
let n_lseek = 20
let n_netpoll = 22

let check64 name expected actual = Alcotest.(check int64) name expected actual

let test_boot_all_confs () =
  List.iter
    (fun conf ->
      let t = kernel conf in
      check64 (Pipeline.conf_name conf ^ " booted") 1L
        (Boot.kernel_global t "kernel_booted"))
    Pipeline.all_confs

let test_boot_variants () =
  List.iter
    (fun v ->
      let t =
        Boot.boot_built (Ukern.Kbuild.build ~conf:Pipeline.Sva_safe v) ~variant:v
      in
      check64 (v.Ukern.Kbuild.v_name ^ " booted") 1L
        (Boot.kernel_global t "kernel_booted"))
    [ Ukern.Kbuild.with_usercopy; Ukern.Kbuild.entire_kernel ]

let test_getpid () =
  for_both (fun t -> check64 "init pid" 1L (Boot.syscall t n_getpid []))

let test_file_lifecycle () =
  for_both (fun t ->
      Boot.write_user t 0 "notes.txt\000";
      let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
      Alcotest.(check bool) "fd >= 0" true (Int64.compare fd 0L >= 0);
      Boot.write_user t 1024 "The quick brown fox";
      check64 "write" 19L
        (Boot.syscall t n_write [ fd; Boot.user_addr t 1024; 19L ]);
      check64 "lseek" 4L (Boot.syscall t n_lseek [ fd; 4L; 0L ]);
      check64 "read" 15L (Boot.syscall t n_read [ fd; Boot.user_addr t 2048; 32L ]);
      Alcotest.(check string) "content" "quick brown fox"
        (Boot.read_user t 2048 15);
      check64 "close" 0L (Boot.syscall t n_close [ fd ]);
      check64 "read on closed fd" (-9L)
        (Boot.syscall t n_read [ fd; Boot.user_addr t 2048; 4L ]);
      (* reopening finds the same file *)
      let fd2 = Boot.syscall t n_open [ Boot.user_addr t 0; 0L ] in
      check64 "reopen read" 19L
        (Boot.syscall t n_read [ fd2; Boot.user_addr t 2048; 32L ]))

let test_open_missing () =
  for_both (fun t ->
      Boot.write_user t 0 "nope\000";
      check64 "ENOENT" (-2L) (Boot.syscall t n_open [ Boot.user_addr t 0; 0L ]))

let test_pipe_roundtrip () =
  for_both (fun t ->
      check64 "pipe" 0L (Boot.syscall t n_pipe [ Boot.user_addr t 512 ]);
      let fds = Boot.read_user t 512 8 in
      let rfd = Int64.of_int (Char.code fds.[0])
      and wfd = Int64.of_int (Char.code fds.[4]) in
      Boot.write_user t 1024 "pipe data!";
      check64 "write" 10L (Boot.syscall t n_write [ wfd; Boot.user_addr t 1024; 10L ]);
      check64 "read" 10L (Boot.syscall t n_read [ rfd; Boot.user_addr t 2048; 64L ]);
      Alcotest.(check string) "through the pipe" "pipe data!"
        (Boot.read_user t 2048 10);
      (* empty pipe reads zero *)
      check64 "drained" 0L (Boot.syscall t n_read [ rfd; Boot.user_addr t 2048; 8L ]))

let test_pipe_wraparound () =
  for_both (fun t ->
      check64 "pipe" 0L (Boot.syscall t n_pipe [ Boot.user_addr t 512 ]);
      let fds = Boot.read_user t 512 8 in
      let rfd = Int64.of_int (Char.code fds.[0])
      and wfd = Int64.of_int (Char.code fds.[4]) in
      (* push more than the ring size in total, interleaved *)
      Boot.write_user t 1024 (String.init 1500 (fun i -> Char.chr (33 + (i mod 90))));
      for _ = 1 to 4 do
        check64 "w" 1500L (Boot.syscall t n_write [ wfd; Boot.user_addr t 1024; 1500L ]);
        check64 "r" 1500L (Boot.syscall t n_read [ rfd; Boot.user_addr t 4096; 1500L ])
      done;
      Alcotest.(check string) "data intact after wrap"
        (Boot.read_user t 1024 1500) (Boot.read_user t 4096 1500))

let test_fork () =
  for_both (fun t ->
      let pid1 = Boot.syscall t n_fork [] in
      let pid2 = Boot.syscall t n_fork [] in
      Alcotest.(check bool) "pids grow" true (Int64.compare pid2 pid1 > 0);
      check64 "forks counted" 2L (Boot.kernel_global t "total_forks"))

let test_execve () =
  for_both (fun t ->
      (* install an image *)
      Boot.write_user t 0 "prog\000";
      let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
      let hdr = Bytes.create 16 in
      Bytes.set_int32_le hdr 0 0x554b4558l;
      Bytes.set_int32_le hdr 4 8l;
      Bytes.set_int32_le hdr 8 2l;
      Bytes.set_int32_le hdr 12 0l;
      Boot.write_user t 1024 (Bytes.to_string hdr ^ String.make 100 'P');
      check64 "image written" 116L
        (Boot.syscall t n_write [ fd; Boot.user_addr t 1024; 116L ]);
      check64 "close" 0L (Boot.syscall t n_close [ fd ]);
      check64 "execve" 0L (Boot.syscall t n_execve [ Boot.user_addr t 0 ]);
      (* the kernel still works after the address-space switch *)
      check64 "still alive" 1L (Boot.syscall t n_getpid []))

let test_sbrk () =
  for_both (fun t ->
      let base = Boot.syscall t n_sbrk [ 0L ] in
      let old = Boot.syscall t n_sbrk [ 8192L ] in
      check64 "sbrk returns old brk" base old;
      let now = Boot.syscall t n_sbrk [ 0L ] in
      check64 "brk moved" (Int64.add base 8192L) now)

let test_signals () =
  for_both (fun t ->
      (* install a handler: use a real kernel function's address so the
         SVM can dispatch it *)
      let haddr =
        Int64.of_int (Sva_interp.Interp.func_addr t.Boot.vm "sys_getpid")
      in
      check64 "sigaction" 0L (Boot.syscall t n_sigaction [ 5L; haddr ]);
      check64 "kill" 0L (Boot.syscall t n_kill [ 1L; 5L ]);
      (* the handler fires on the way out of the kill syscall *)
      Alcotest.(check bool) "signal dispatched" true
        (List.exists
           (fun (fn, arg) -> Int64.of_int fn = haddr && arg = 5L)
           t.Boot.signal_fired))

let test_yield_context_switch () =
  (* fork then yield: the scheduler switches current_task through the
     Table 1 state save/restore operations and activates the child's
     address space *)
  for_both (fun t ->
      let child = Boot.syscall t n_fork [] in
      check64 "parent runs" 1L (Boot.syscall t n_getpid []);
      check64 "yield" 0L (Boot.syscall t 23 []);
      check64 "child runs after switch" child (Boot.syscall t n_getpid []);
      check64 "yield back" 0L (Boot.syscall t 23 []);
      check64 "parent again" 1L (Boot.syscall t n_getpid []))

let test_rusage_counts_syscalls () =
  for_both (fun t ->
      for _ = 1 to 5 do
        ignore (Boot.syscall t n_getpid [])
      done;
      check64 "getrusage" 0L (Boot.syscall t n_getrusage [ Boot.user_addr t 512 ]);
      let ru = Boot.read_user t 512 24 in
      let nsys = Bytes.get_int64_le (Bytes.of_string ru) 16 in
      Alcotest.(check bool) "syscalls counted" true (Int64.compare nsys 5L >= 0))

let test_gettimeofday_monotone () =
  for_both (fun t ->
      let read_tv () =
        ignore (Boot.syscall t n_gettimeofday [ Boot.user_addr t 512 ]);
        Bytes.get_int64_le (Bytes.of_string (Boot.read_user t 512 16)) 8
      in
      let a = read_tv () in
      let b = read_tv () in
      Alcotest.(check bool) "time advances" true (Int64.compare b a > 0))

let test_sockets_loopback () =
  for_both (fun t ->
      let sd = Boot.syscall t n_socket [ 17L ] in
      check64 "bind" 0L (Boot.syscall t n_bind [ sd; 7777L ]);
      (* send: the frame appears on the wire *)
      Boot.write_user t 1024 "ping";
      check64 "sendto" 4L
        (Boot.syscall t n_sendto [ sd; Boot.user_addr t 1024; 4L; 7777L ]);
      (match Boot.sent_frames t with
      | [ (17, payload) ] ->
          (* wire frame: [dst port:4][payload] *)
          Alcotest.(check string) "wire format" "ping"
            (String.sub payload 4 4)
      | frames -> Alcotest.failf "unexpected tx: %d frames" (List.length frames));
      (* receive: inject a frame addressed to our port *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 7777l;
      Boot.inject_frame t ~proto:17 (Bytes.to_string hdr ^ "pong!");
      check64 "netpoll" 1L (Boot.syscall t n_netpoll []);
      check64 "recvfrom" 5L
        (Boot.syscall t n_recvfrom [ sd; Boot.user_addr t 2048; 64L ]);
      Alcotest.(check string) "payload" "pong!" (Boot.read_user t 2048 5);
      (* empty queue: EAGAIN *)
      check64 "EAGAIN" (-11L)
        (Boot.syscall t n_recvfrom [ sd; Boot.user_addr t 2048; 64L ]))

let test_fib_route_control () =
  for_both (fun t ->
      let msg = Bytes.create 16 in
      Bytes.set_int32_le msg 0 3l (* rtm_type *);
      Bytes.set_int32_le msg 4 5l (* rtm_scope *);
      Bytes.set_int32_le msg 8 2l (* nhs *);
      Bytes.set_int32_le msg 12 1l (* prio *);
      Boot.inject_frame t ~proto:254 (Bytes.to_string msg);
      check64 "netpoll" 1L (Boot.syscall t n_netpoll []);
      check64 "route added" 1L (Boot.kernel_global t "fib_entries"))

let test_user_buffer_escape_rejected () =
  (* a read into a buffer extending past the end of userspace must be
     refused by access_ok (the Section 4.6 property at the kernel level) *)
  for_both (fun t ->
      Boot.write_user t 0 "bench.data2\000";
      let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
      Boot.write_user t 1024 "data";
      ignore (Boot.syscall t n_write [ fd; Boot.user_addr t 1024; 4L ]);
      ignore (Boot.syscall t n_lseek [ fd; 0L; 0L ]);
      let evil = Int64.of_int (Sva_hw.Machine.user_base + Sva_hw.Machine.user_size - 2) in
      check64 "EFAULT" (-14L) (Boot.syscall t n_read [ fd; evil; 4L ]))

let test_stat_unlink () =
  for_both (fun t ->
      Boot.write_user t 0 "doc.txt\000";
      let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
      Boot.write_user t 1024 (String.make 100 'q');
      ignore (Boot.syscall t n_write [ fd; Boot.user_addr t 1024; 100L ]);
      ignore (Boot.syscall t n_close [ fd ]);
      check64 "stat" 0L (Boot.syscall t 26 [ Boot.user_addr t 0; Boot.user_addr t 512 ]);
      let sb = Bytes.of_string (Boot.read_user t 512 24) in
      check64 "st_size" 100L (Bytes.get_int64_le sb 0);
      check64 "unlink" 0L (Boot.syscall t 27 [ Boot.user_addr t 0 ]);
      check64 "stat after unlink" (-2L)
        (Boot.syscall t 26 [ Boot.user_addr t 0; Boot.user_addr t 512 ]))

let test_block_fs_roundtrip () =
  for_both (fun t ->
      check64 "mount formats fresh disk" 0L (Boot.syscall t 28 []);
      (* create a ramfs file, archive it, destroy it, restore it *)
      Boot.write_user t 0 "save.me\000";
      let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
      let payload = String.init 1000 (fun i -> Char.chr (33 + (i mod 90))) in
      Boot.write_user t 1024 payload;
      check64 "write" 1000L
        (Boot.syscall t n_write [ fd; Boot.user_addr t 1024; 1000L ]);
      ignore (Boot.syscall t n_close [ fd ]);
      check64 "bsave blocks" 2L (Boot.syscall t 30 [ Boot.user_addr t 0 ]);
      check64 "unlink" 0L (Boot.syscall t 27 [ Boot.user_addr t 0 ]);
      check64 "bload" 1000L (Boot.syscall t 31 [ Boot.user_addr t 0 ]);
      let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 0L ] in
      check64 "read restored" 1000L
        (Boot.syscall t n_read [ fd; Boot.user_addr t 8192; 1000L ]);
      Alcotest.(check string) "content survives the disk" payload
        (Boot.read_user t 8192 1000);
      (* second mount sees the archived file *)
      check64 "sync" 0L (Boot.syscall t 29 []);
      check64 "remount sees 1 file" 1L (Boot.syscall t 28 []);
      check64 "bload missing" (-2L) (Boot.syscall t 31 [ Boot.user_addr t 2048 ]))

(* ---------- trap path: user-page faults ---------- *)

(* The program break is inside the user window but not mapped, so a
   syscall handed it faults on the first user access. *)
let llvm_and_safe = [ Pipeline.Sva_llvm; Pipeline.Sva_safe ]
let n_stat = 26

let test_unmapped_user_pointer_efault () =
  List.iter
    (fun conf ->
      let t = kernel conf in
      let brk = Boot.syscall t n_sbrk [ 0L ] in
      let name = Pipeline.conf_name conf in
      check64 (name ^ " gettimeofday(brk)") (-14L)
        (Boot.syscall t n_gettimeofday [ brk ]);
      check64 (name ^ " open(brk, 0)") (-14L)
        (Boot.syscall t n_open [ brk; 0L ]))
    llvm_and_safe

(* Create, reopen and stat a file, then stat and open a missing one. *)
let file_probe t =
  Boot.write_user t 0 "notes.txt\000";
  Boot.write_user t 64 "missing\000";
  let path = Boot.user_addr t 0 and missing = Boot.user_addr t 64 in
  let statbuf = Boot.user_addr t 128 in
  let fd = Boot.syscall t n_open [ path; 1L ] in
  ignore (Boot.syscall t n_close [ fd ]);
  [
    Boot.syscall t n_open [ path; 0L ];
    Boot.syscall t n_stat [ path; statbuf ];
    Boot.syscall t n_stat [ missing; statbuf ];
    Boot.syscall t n_open [ missing; 0L ];
  ]

let live_objects t =
  List.fold_left
    (fun n (_, mp) -> n + Sva_rt.Metapool_rt.live_objects mp)
    0
    (Sva_interp.Interp.metapools t.Boot.vm)

(* The faulted call's frames are gone, so their stack objects must be
   too: afterwards the kernel behaves exactly like a fresh one. *)
let test_fault_drops_stack_objects () =
  List.iter
    (fun conf ->
      let name = Pipeline.conf_name conf in
      let fresh = file_probe (kernel conf) in
      let t = kernel conf in
      let live = live_objects t in
      let brk = Boot.syscall t n_sbrk [ 0L ] in
      check64 (name ^ " open(brk, 0)") (-14L)
        (Boot.syscall t n_open [ brk; 0L ]);
      Alcotest.(check int) (name ^ " no object left registered") live
        (live_objects t);
      Alcotest.(check (list int64)) (name ^ " open/stat as on a fresh kernel")
        fresh (file_probe t))
    llvm_and_safe

(* ---------- the compiled tier's frame cache ---------- *)

let aot = { Pipeline.default_engine with Pipeline.eng_kind = Pipeline.Aot }

(* A user page's mapping changes between system calls, by SVA-OS alone:
   the kernel's compiled copy loops must see each change as the
   interpreter does, although the first call left the page in their
   frame cache. *)
let remap_results engine =
  let t = kernel ?engine Pipeline.Sva_safe in
  let sys = t.Boot.sys in
  let mmu = sys.Sva_os.Svaos.mmu in
  let ubuf = Boot.user_addr t 8192 in
  let addr = Int64.to_int ubuf and page = Sva_hw.Machine.page_size in
  let sid =
    match Sva_hw.Mmu.current mmu with
    | Some sp -> Sva_hw.Mmu.space_id sp
    | None -> Alcotest.fail "no active address space"
  in
  let vpn = addr / page
  and ppn = Sva_hw.Mmu.translate mmu ~addr ~write:false / page in
  Boot.write_user t 0 "remap.txt\000";
  let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
  let warm = Boot.syscall t n_gettimeofday [ ubuf ] in
  let mapped = Boot.syscall t n_gettimeofday [ ubuf ] in
  Sva_os.Svaos.mmu_unmap_page sys ~sid ~vpn;
  let unmapped = Boot.syscall t n_gettimeofday [ ubuf ] in
  Sva_os.Svaos.mmu_map_page sys ~sid ~vpn ~ppn ~writable:false;
  let written = Boot.syscall t n_write [ fd; ubuf; 16L ] in
  let read () =
    ignore (Boot.syscall t n_lseek [ fd; 0L; 0L ]);
    Boot.syscall t n_read [ fd; ubuf; 16L ]
  in
  let read_only = read () in
  (* writable again, then read-only again without an unmap between *)
  Sva_os.Svaos.mmu_map_page sys ~sid ~vpn ~ppn ~writable:true;
  let writable = read () in
  Sva_os.Svaos.mmu_map_page sys ~sid ~vpn ~ppn ~writable:false;
  [ warm; mapped; unmapped; written; read_only; writable; read () ]

let test_remap_invalidates () =
  let interp = remap_results None in
  Alcotest.(check (list int64))
    "gettimeofday mapped, unmapped; write, read on a read-only page; read \
     writable, read-only"
    [ 0L; 0L; -14L; 16L; -14L; 16L; -14L ] interp;
  Alcotest.(check (list int64)) "warm aot agrees with the interpreter" interp
    (remap_results (Some aot))

(* Once warm, the Table 7 mix's every compiled load and store hits. *)
let test_table7_mix_hits () =
  let t = kernel ~engine:aot Pipeline.Sva_safe in
  let ctx = Harness.Workloads.prepare t in
  let pass () =
    Harness.Workloads.op_open_close ctx;
    Harness.Workloads.op_write ctx;
    Harness.Workloads.op_pipe_latency ctx;
    Harness.Workloads.op_getpid ctx
  in
  pass ();
  let before = Sva_interp.Interp.frame_cache_counts t.Boot.vm in
  pass ();
  let misses, flushes = Sva_interp.Interp.frame_cache_counts t.Boot.vm in
  Alcotest.(check (pair int int)) "second pass: no miss, no flush" before
    (misses, flushes);
  Alcotest.(check bool) "the first pass filled the cache" true (misses > 0)

let test_timer_interrupts () =
  for_both (fun t ->
      check64 "no ticks yet" 0L (Boot.kernel_global t "jiffies");
      for _ = 1 to 5 do
        ignore (Boot.interrupt t 0)
      done;
      check64 "5 ticks" 5L (Boot.kernel_global t "jiffies");
      check64 "spurious counted" 0L (Boot.interrupt t 7);
      check64 "spurious global" 1L (Boot.kernel_global t "spurious_interrupts");
      (* unregistered vector *)
      check64 "no handler" (-1L) (Boot.interrupt t 3))

(* Section 3.4: dynamically load a kernel module into a running kernel.
   The module declares the kernel symbols it uses as externs, registers a
   new system call at init, and works through the normal trap path. *)
let module_source =
  "extern void sva_register_syscall(long num, ...);\n\
   extern void register_syscall_handler(long num, long handler);\n\
   extern char *kmalloc(long n);\n\
   extern void kfree(char *p);\n\
   long hellomod_calls = 0;\n\
   long sys_hellomod(long a0, long a1, long a2, long a3) {\n\
  \  hellomod_calls = hellomod_calls + 1;\n\
  \  char *scratch = kmalloc(64);\n\
  \  if (!scratch) return -12;\n\
  \  scratch[0] = 42;\n\
  \  long v = scratch[0];\n\
  \  kfree(scratch);\n\
  \  return 4200 + v + a0;\n\
   }\n\
   long hellomod_init(void) {\n\
  \  sva_register_syscall(40, sys_hellomod);\n\
  \  register_syscall_handler(40, (long)sys_hellomod);\n\
  \  return 0;\n\
   }"

let link_hellomod t =
  (* compile the module alone, ship as signed bytecode, verify, link *)
  let m = Minic.Lower.compile_string ~name:"hellomod" module_source in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  let entry = Sva_bytecode.Signing.sign m in
  let m = Sva_bytecode.Signing.verify entry in
  Sva_interp.Interp.link_module t.Boot.vm m;
  check64 "module init" 0L
    (Option.value
       (Sva_interp.Interp.call t.Boot.vm "hellomod_init" [])
       ~default:(-1L))

let test_dynamic_module_load_native () =
  let t = kernel Pipeline.Native in
  check64 "ENOSYS before" (-38L) (Boot.syscall t 40 []);
  link_hellomod t;
  check64 "new syscall" 4243L (Boot.syscall t 40 [ 1L ]);
  check64 "again" 4245L (Boot.syscall t 40 [ 3L ]);
  check64 "module global" 2L (Boot.kernel_global t "hellomod_calls");
  check64 "old syscalls fine" 1L (Boot.syscall t 1 [])

(* Under AOT [compile_all] ran at boot, before the module existed: its
   functions are translated on their first entry and run compiled.  The
   image is built afresh: linking merges the module into the image the
   kernel was booted from, and the cached Native image has it already. *)
let test_dynamic_module_load_aot () =
  let v = Ukern.Kbuild.as_tested in
  let t =
    Boot.boot_built ~engine:aot
      (Ukern.Kbuild.build ~conf:Pipeline.Native v)
      ~variant:v
  in
  let translated () = (Sva_rt.Stats.read_tier ()).Sva_rt.Stats.promotions in
  let before = translated () in
  link_hellomod t;
  check64 "new syscall" 4243L (Boot.syscall t 40 [ 1L ]);
  check64 "again" 4245L (Boot.syscall t 40 [ 3L ]);
  Alcotest.(check int) "hellomod_init and sys_hellomod translated"
    (before + 2) (translated ())

let test_dynamic_module_cfi_on_safe_kernel () =
  (* An unknown-code module's handler is NOT in the dispatcher's
     compile-time call graph: the indirect-call check refuses to jump to
     it (control-flow integrity, guarantee T1).  The blessed path is to
     include the module in the safety-checking compile. *)
  let t = kernel Pipeline.Sva_safe in
  link_hellomod t;
  (match Boot.syscall t 40 [ 1L ] with
  | _ -> Alcotest.fail "unknown module handler must fail CFI"
  | exception Sva_rt.Violation.Safety_violation v ->
      Alcotest.(check string) "indirect-call violation" "indirect-call"
        (Sva_rt.Violation.kind_to_string v.Sva_rt.Violation.v_kind));
  (* the kernel survives and still serves *)
  check64 "kernel alive" 1L (Boot.syscall t 1 []);
  (* whole-program path: compile the module with the kernel *)
  let v = Ukern.Kbuild.as_tested in
  let built =
    Sva_pipeline.Pipeline.build ~conf:Pipeline.Sva_safe
      ~aconfig:(Ukern.Kbuild.aconfig v) ~name:"ukern+mod"
      (Ukern.Kbuild.sources v @ [ module_source ])
  in
  let t2 = Boot.boot_built built ~variant:v in
  check64 "module init (compiled in)" 0L
    (Option.value
       (Sva_interp.Interp.call t2.Boot.vm "hellomod_init" [])
       ~default:(-1L));
  check64 "checked module syscall" 4243L (Boot.syscall t2 40 [ 1L ])

let test_safe_kernel_stats_move () =
  (* under Sva_safe, syscalls actually exercise run-time checks *)
  let t = kernel Pipeline.Sva_safe in
  Sva_rt.Stats.reset ();
  Boot.write_user t 0 "bench.x\000";
  let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
  ignore (Boot.syscall t n_close [ fd ]);
  let s = Sva_rt.Stats.read () in
  Alcotest.(check bool) "bounds checks ran" true (s.Sva_rt.Stats.bounds_checks > 0);
  Alcotest.(check bool) "funcchecks ran" true (s.Sva_rt.Stats.funcchecks > 0);
  Alcotest.(check bool) "no violations" true (s.Sva_rt.Stats.violations = 0)

let test_confs_agree_on_results () =
  (* the native and checked kernels must compute the same answers *)
  let run conf =
    let t = kernel conf in
    Boot.write_user t 0 "agree.txt\000";
    let fd = Boot.syscall t n_open [ Boot.user_addr t 0; 1L ] in
    Boot.write_user t 1024 (String.init 100 (fun i -> Char.chr (65 + (i mod 26))));
    ignore (Boot.syscall t n_write [ fd; Boot.user_addr t 1024; 100L ]);
    ignore (Boot.syscall t n_lseek [ fd; 50L; 0L ]);
    ignore (Boot.syscall t n_read [ fd; Boot.user_addr t 4096; 10L ]);
    Boot.read_user t 4096 10
  in
  Alcotest.(check string) "native = safe" (run Pipeline.Native)
    (run Pipeline.Sva_safe)

let () =
  Alcotest.run "ukern"
    [
      ( "boot",
        [
          Alcotest.test_case "all configurations" `Quick test_boot_all_confs;
          Alcotest.test_case "variants" `Quick test_boot_variants;
        ] );
      ( "process",
        [
          Alcotest.test_case "getpid" `Quick test_getpid;
          Alcotest.test_case "fork" `Quick test_fork;
          Alcotest.test_case "execve" `Quick test_execve;
          Alcotest.test_case "sbrk" `Quick test_sbrk;
          Alcotest.test_case "signals via icontext" `Quick test_signals;
          Alcotest.test_case "yield context switch" `Quick
            test_yield_context_switch;
          Alcotest.test_case "rusage" `Quick test_rusage_counts_syscalls;
          Alcotest.test_case "gettimeofday" `Quick test_gettimeofday_monotone;
        ] );
      ( "fs",
        [
          Alcotest.test_case "file lifecycle" `Quick test_file_lifecycle;
          Alcotest.test_case "open missing" `Quick test_open_missing;
          Alcotest.test_case "pipe roundtrip" `Quick test_pipe_roundtrip;
          Alcotest.test_case "pipe wraparound" `Quick test_pipe_wraparound;
          Alcotest.test_case "user buffer escape" `Quick
            test_user_buffer_escape_rejected;
          Alcotest.test_case "stat/unlink" `Quick test_stat_unlink;
          Alcotest.test_case "block fs roundtrip" `Quick test_block_fs_roundtrip;
          Alcotest.test_case "unmapped user pointer is EFAULT" `Quick
            test_unmapped_user_pointer_efault;
          Alcotest.test_case "faulted call leaves no stack object" `Quick
            test_fault_drops_stack_objects;
        ] );
      ( "frame-cache",
        [
          Alcotest.test_case "unmap and read-only remap, interp = aot" `Quick
            test_remap_invalidates;
          Alcotest.test_case "warm Table 7 mix takes no miss" `Quick
            test_table7_mix_hits;
        ] );
      ( "interrupts",
        [ Alcotest.test_case "timer via icontext" `Quick test_timer_interrupts ] );
      ( "modules",
        [
          Alcotest.test_case "dynamic load (Sec 3.4)" `Quick
            test_dynamic_module_load_native;
          Alcotest.test_case "dynamic load on aot" `Quick
            test_dynamic_module_load_aot;
          Alcotest.test_case "CFI vs unknown module" `Quick
            test_dynamic_module_cfi_on_safe_kernel;
        ] );
      ( "net",
        [
          Alcotest.test_case "sockets loopback" `Quick test_sockets_loopback;
          Alcotest.test_case "fib control" `Quick test_fib_route_control;
        ] );
      ( "safety",
        [
          Alcotest.test_case "checks exercised" `Quick test_safe_kernel_stats_move;
          Alcotest.test_case "configs agree" `Quick test_confs_agree_on_results;
        ] );
    ]

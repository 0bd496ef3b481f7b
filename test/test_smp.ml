(* The simulated-SMP layer must be deterministic and semantically
   invisible: a 1-CPU run_smp schedule is bit-identical to calling the
   jobs in sequence, aggregate check counts are schedule-invariant, the
   per-CPU cache shards cohere with an uncached oracle under interleaved
   register/drop from different CPUs, the same seed reproduces the same
   schedule, and the per-CPU machine state (interrupt flags, IPI queues,
   icontext stacks, trap scratch, lock ownership) is actually private
   to each modeled CPU. *)

module Machine = Sva_hw.Machine
module Svaos = Sva_os.Svaos
module Smp = Sva_rt.Smp
module Stats = Sva_rt.Stats
module Metapool_rt = Sva_rt.Metapool_rt
module Boot = Ukern.Boot
module Kbuild = Ukern.Kbuild
module Pipeline = Sva_pipeline.Pipeline
module Workloads = Harness.Workloads

(* One checked kernel image, compiled once and booted per measurement so
   every boot starts from identical deterministic state. *)
let image = lazy (Kbuild.build ~conf:Pipeline.Sva_safe Kbuild.as_tested)

let boot_smp ~cpus =
  let t =
    Boot.boot_built
      ~smp:{ Pipeline.smp_cpus = cpus; Pipeline.smp_seed = 1 }
      (Lazy.force image) ~variant:Kbuild.as_tested
  in
  let ctx = Workloads.prepare t in
  (t, ctx)

(* ---------- 1-CPU differential: run_smp ≡ sequential ---------- *)

let ops_table =
  [|
    Workloads.op_getpid;
    Workloads.op_getrusage;
    Workloads.op_gettimeofday;
    Workloads.op_sbrk;
    Workloads.op_sigaction;
    Workloads.op_write;
    Workloads.op_pipe_latency;
  |]

(* Two kernels booted identically; every generated case applies the same
   op sequence to both (one through the scheduler, one by direct calls),
   so their states stay in lockstep across cases and each comparison is
   a genuine differential. *)
let prop_single_cpu_bit_identical =
  let pair = lazy (boot_smp ~cpus:1, boot_smp ~cpus:1) in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 12) (int_range 0 (Array.length ops_table - 1)))
  in
  QCheck2.Test.make
    ~name:"run_smp at 1 cpu is bit-identical to the sequential calls"
    ~count:40 gen
    (fun ops ->
      let (ts, cs), (tq, cq) = Lazy.force pair in
      let jobs = List.map (fun i () -> ops_table.(i) cs) ops in
      Stats.reset ();
      Boot.reset_cycles ts;
      let st = Boot.run_smp ts ~cpus:1 ~seed:1 jobs in
      let snap_smp = Stats.read () in
      Stats.reset ();
      Boot.reset_cycles tq;
      List.iter (fun i -> ops_table.(i) cq) ops;
      let snap_seq = Stats.read () in
      st.Boot.ss_makespan = Boot.cycles tq
      && st.Boot.ss_total = Boot.cycles tq
      && snap_smp = snap_seq
      && st.Boot.ss_steals = 0
      && st.Boot.ss_ipis_sent = 0)

(* ---------- shard coherence oracle across CPUs ---------- *)

(* A 4-CPU pool (one cache shard per CPU) and an uncached twin receive
   the same interleaved register/drop/lookup sequence, with each op
   issued from a generated CPU.  Every lookup must agree: a stale shard
   surviving another CPU's drop (the hazard the ownership/epoch protocol
   exists for) shows up as a divergence. *)
let prop_shards_cohere_across_cpus =
  let op_gen =
    QCheck2.Gen.(
      let cpu = int_range 0 3 in
      let start = map (fun s -> s * 16) (int_range 0 48) in
      let len = int_range 1 32 in
      frequency
        [
          (3, map3 (fun c s l -> (c, `Reg (s, l))) cpu start len);
          (2, map2 (fun c s -> (c, `Drop s)) cpu start);
          (4, map2 (fun c a -> (c, `Find a)) cpu (int_range 0 800));
        ])
  in
  let gen = QCheck2.Gen.(list_size (int_range 0 150) op_gen) in
  QCheck2.Test.make
    ~name:"per-cpu cache shards cohere with an uncached oracle" ~count:200
    gen
    (fun ops ->
      let smp = Smp.create ~ncpus:4 () in
      let cached = Metapool_rt.create ~smp "MPSMP"
      and oracle = Metapool_rt.create ~cached:false "MPORACLE" in
      let r =
        List.for_all
          (fun (cpu, op) ->
            Smp.set_cur smp cpu;
            match op with
            | `Reg (s, l) ->
                let a =
                  match
                    Metapool_rt.register cached ~cls:Metapool_rt.Heap
                      ~start:s ~len:l
                  with
                  | () -> true
                  | exception _ -> false
                and b =
                  match
                    Metapool_rt.register oracle ~cls:Metapool_rt.Heap
                      ~start:s ~len:l
                  with
                  | () -> true
                  | exception _ -> false
                in
                a = b
            | `Drop s ->
                Metapool_rt.drop_if_present cached ~start:s
                = Metapool_rt.drop_if_present oracle ~start:s
            | `Find a ->
                Metapool_rt.getbounds cached a
                = Metapool_rt.getbounds oracle a)
          ops
      in
      Smp.set_cur smp 0;
      r)

(* ---------- same-seed determinism and scaling ---------- *)

let measure ~cpus ~seed =
  let t, ctx = boot_smp ~cpus:4 in
  List.iter (fun j -> j ()) (Workloads.smp_jobs ctx 1);
  Stats.reset ();
  Boot.reset_cycles t;
  let st = Boot.run_smp t ~cpus ~seed (Workloads.smp_jobs ctx 16) in
  (st, Stats.total_checks (Stats.read ()))

let test_same_seed_reproduces () =
  let a = measure ~cpus:4 ~seed:5 and b = measure ~cpus:4 ~seed:5 in
  Alcotest.(check bool)
    "same seed, fresh boot: identical schedule, clocks and checks" true
    (a = b)

let test_scaling_and_check_identity () =
  let st1, checks1 = measure ~cpus:1 ~seed:1 in
  let st4, checks4 = measure ~cpus:4 ~seed:1 in
  Alcotest.(check int) "aggregate checks are schedule-invariant" checks1
    checks4;
  Alcotest.(check bool) "4-cpu makespan below 1-cpu" true
    (st4.Boot.ss_makespan < st1.Boot.ss_makespan);
  let speedup =
    float_of_int st1.Boot.ss_makespan /. float_of_int st4.Boot.ss_makespan
  in
  if speedup < 3.0 then
    Alcotest.failf "4-cpu speedup %.2fx below the 3x floor" speedup;
  Alcotest.(check int) "total modeled work conserved at 1 cpu"
    st1.Boot.ss_makespan st1.Boot.ss_total

(* Skewed job costs force the stealing path: round-robin puts every
   heavy job on CPU 0's queue, so CPUs 1-3 drain their light jobs,
   steal from it, and reschedule-IPI the victim. *)
let test_work_stealing_fires () =
  let t, ctx = boot_smp ~cpus:4 in
  let heavy () =
    for _ = 1 to 8 do
      Workloads.op_write ctx
    done
  and light () = Workloads.op_getpid ctx in
  let jobs = List.init 24 (fun i -> if i mod 4 = 0 then heavy else light) in
  Stats.reset ();
  let st = Boot.run_smp t ~cpus:4 ~seed:3 jobs in
  Alcotest.(check int) "every job ran exactly once" 24
    (Array.fold_left ( + ) 0 st.Boot.ss_jobs_per);
  Alcotest.(check bool) "work stealing fired" true (st.Boot.ss_steals > 0);
  Alcotest.(check bool) "every reschedule IPI was delivered" true
    (st.Boot.ss_ipis_sent > 0
    && st.Boot.ss_ipis_delivered = st.Boot.ss_ipis_sent)

(* ---------- IPI queues and interrupt gating ---------- *)

let test_ipi_queue_fifo_per_cpu () =
  let sys = Svaos.create ~ncpus:2 () in
  Stats.reset_conc ();
  Alcotest.(check bool) "cpu0 starts with no pending IPI" false
    (Svaos.ipi_pending sys);
  Svaos.ipi_send sys ~cpu:1 ~vector:240;
  Svaos.ipi_send sys ~cpu:1 ~vector:241;
  Alcotest.(check bool) "IPIs for cpu1 are not pending on cpu0" false
    (Svaos.ipi_pending sys);
  Svaos.switch_cpu sys 1;
  Alcotest.(check bool) "pending on cpu1" true (Svaos.ipi_pending sys);
  Alcotest.(check (option int)) "FIFO: first vector first" (Some 240)
    (Svaos.take_ipi sys);
  Alcotest.(check (option int)) "then the second" (Some 241)
    (Svaos.take_ipi sys);
  Alcotest.(check (option int)) "then empty" None (Svaos.take_ipi sys);
  let c = Stats.read_conc () in
  Alcotest.(check int) "ipis sent counted" 2 c.Stats.ipis_sent;
  Alcotest.(check int) "ipis delivered counted" 2 c.Stats.ipis_delivered;
  (try
     Svaos.ipi_send sys ~cpu:7 ~vector:240;
     Alcotest.fail "ipi_send to a nonexistent CPU must fail"
   with Failure _ -> ());
  Svaos.switch_cpu sys 0

let test_interrupt_flag_is_per_cpu () =
  let sys = Svaos.create ~ncpus:2 () in
  Svaos.cli sys;
  Alcotest.(check bool) "cpu0 masked" false (Svaos.interrupts_enabled sys);
  Svaos.switch_cpu sys 1;
  Alcotest.(check bool) "cpu1 unaffected by cpu0's cli" true
    (Svaos.interrupts_enabled sys);
  Svaos.switch_cpu sys 0;
  Alcotest.(check bool) "cpu0 still masked after the round trip" false
    (Svaos.interrupts_enabled sys);
  Svaos.sti sys;
  Alcotest.(check bool) "sti unmasks cpu0" true
    (Svaos.interrupts_enabled sys)

(* ---------- lock ownership across CPUs ---------- *)

let test_lock_holder_cpu () =
  let sys = Svaos.create ~ncpus:2 () in
  Svaos.lock_acquire sys ~lock:0x100;
  Alcotest.check_raises "same-CPU reacquire keeps the original message"
    (Failure "SVA-OS: deadlock: lock already held") (fun () ->
      Svaos.lock_acquire sys ~lock:0x100);
  Svaos.switch_cpu sys 1;
  Alcotest.check_raises "cross-CPU acquire names the holder"
    (Failure "SVA-OS: deadlock: spinning on a lock held by CPU 0")
    (fun () -> Svaos.lock_acquire sys ~lock:0x100);
  Alcotest.check_raises "cross-CPU release names the holder"
    (Failure "SVA-OS: releasing a lock held by CPU 0") (fun () ->
      Svaos.lock_release sys ~lock:0x100);
  Svaos.switch_cpu sys 0;
  Svaos.lock_release sys ~lock:0x100;
  Alcotest.(check bool) "released" false (Svaos.lock_held sys ~lock:0x100)

(* ---------- per-CPU trap scratch and icontext stacks ---------- *)

let test_percpu_trap_scratch () =
  let bases =
    List.init Machine.max_cpus (fun cpu -> Machine.percpu_trap_base ~cpu)
  in
  let distinct = List.sort_uniq compare bases in
  Alcotest.(check int) "one private area per CPU" Machine.max_cpus
    (List.length distinct);
  Alcotest.(check int) "cpu0 is the pre-SMP scratch address"
    (Machine.stack_base + Machine.stack_size - 4096)
    (Machine.percpu_trap_base ~cpu:0);
  List.iteri
    (fun i b ->
      if i > 0 then
        Alcotest.(check int) "areas are percpu_trap_size apart"
          Machine.percpu_trap_size
          (List.nth bases (i - 1) - b))
    bases;
  (try
     ignore (Machine.percpu_trap_base ~cpu:Machine.max_cpus);
     Alcotest.fail "out-of-range CPU must be rejected"
   with Invalid_argument _ -> ())

let test_icontext_stack_is_per_cpu () =
  let sys = Svaos.create ~ncpus:2 () in
  let icp0 =
    Svaos.icontext_create sys
      ~sp:(Machine.percpu_trap_base ~cpu:0)
      ~was_privileged:false
  in
  Alcotest.(check int) "cpu0 depth 1" 1 (Svaos.icontext_depth sys);
  Svaos.switch_cpu sys 1;
  Alcotest.(check int) "cpu1 sees its own empty stack" 0
    (Svaos.icontext_depth sys);
  let icp1 =
    Svaos.icontext_create sys
      ~sp:(Machine.percpu_trap_base ~cpu:1)
      ~was_privileged:true
  in
  Alcotest.(check int) "cpu1 depth 1" 1 (Svaos.icontext_depth sys);
  Svaos.icontext_destroy sys ~icp:icp1;
  Svaos.switch_cpu sys 0;
  Alcotest.(check int) "cpu0's context survived cpu1's trap" 1
    (Svaos.icontext_depth sys);
  Svaos.icontext_destroy sys ~icp:icp0;
  Alcotest.(check int) "balanced" 0 (Svaos.icontext_depth sys)

let () =
  Alcotest.run "sva-smp"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_single_cpu_bit_identical;
          QCheck_alcotest.to_alcotest prop_shards_cohere_across_cpus;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed reproduces the schedule" `Quick
            test_same_seed_reproduces;
          Alcotest.test_case "scaling with check-count identity" `Quick
            test_scaling_and_check_identity;
          Alcotest.test_case "skewed loads force stealing + IPIs" `Quick
            test_work_stealing_fires;
        ] );
      ( "percpu-state",
        [
          Alcotest.test_case "IPI queues are per-CPU FIFOs" `Quick
            test_ipi_queue_fifo_per_cpu;
          Alcotest.test_case "interrupt flag is per-CPU" `Quick
            test_interrupt_flag_is_per_cpu;
          Alcotest.test_case "lock ownership records the CPU" `Quick
            test_lock_holder_cpu;
          Alcotest.test_case "trap scratch areas are private" `Quick
            test_percpu_trap_scratch;
          Alcotest.test_case "icontext stacks are per-CPU" `Quick
            test_icontext_stack_is_per_cpu;
        ] );
    ]

module Machine = Sva_hw.Machine
module Svaos = Sva_os.Svaos
module Interp = Sva_interp.Interp
module Pipeline = Sva_pipeline.Pipeline

type t = {
  built : Pipeline.built;
  vm : Interp.t;
  sys : Svaos.t;
  variant : Kbuild.variant;
  mutable signal_fired : (int * int64) list;
}

exception Boot_failure of string

(* Interrupt contexts live at the top of the kernel stack region, well
   above the executor's frame allocations — one private 8KB scratch area
   per modeled CPU, so concurrent traps on different CPUs never share
   state.  CPU 0's area is the pre-SMP single-CPU scratch address. *)
let trap_scratch t =
  Machine.percpu_trap_base ~cpu:(Svaos.current_cpu t.sys)

let boot_built ?engine ?smp built ~variant =
  let vm = Pipeline.instantiate ?engine ?smp built in
  let sys = Interp.sys vm in
  (match Interp.call vm "kmain" [] with
  | Some _ -> ()
  | None -> raise (Boot_failure "kmain returned void")
  | exception e -> raise (Boot_failure (Printexc.to_string e)));
  { built; vm; sys; variant; signal_fired = [] }

let boot ?(conf = Pipeline.Sva_safe) ?(variant = Kbuild.as_tested) () =
  boot_built (Kbuild.build ~conf variant) ~variant

(* Trap entry + exit cost in the cycle model: the SVM's interrupt-context
   creation/teardown (Table 2).  Mediated mode spills and validates the
   full control state; a native kernel's inline trap stub is leaner. *)
let trap_cost sys =
  match sys.Svaos.mode with
  | Svaos.Sva_mediated -> 90
  | Svaos.Native_inline -> 48

let syscall_body t num (a : int64 array) =
  Interp.add_cycles t.vm (trap_cost t.sys);
  let icp =
    Svaos.icontext_create t.sys ~sp:(trap_scratch t) ~was_privileged:false
  in
  Fun.protect
    ~finally:(fun () ->
      try Svaos.icontext_destroy t.sys ~icp
      with _ -> () (* a trap may have left the stack unbalanced *))
    (fun () ->
      match
        Interp.call t.vm "kernel_syscall_entry"
          [ Int64.of_int icp; Int64.of_int num; a.(0); a.(1); a.(2); a.(3) ]
      with
      | exception Sva_hw.Mmu.Mmu_fault (addr, _)
        when Machine.in_user_range ~addr ~len:1 ->
          (* The kernel touched a user page that is not mapped (or not
             writable): the call fails with EFAULT instead of taking the
             machine down. *)
          -14L
      | r ->
          (* Run any signal handler the kernel pushed onto the interrupt
             context (the signal-dispatch mechanism of Section 6.1). *)
          (match Svaos.ipush_pending t.sys ~icp with
          | Some (fn, arg) ->
              t.signal_fired <- (fn, arg) :: t.signal_fired;
              (match Interp.func_name t.vm fn with
              | Some _ -> ignore (Interp.call_addr t.vm fn [ arg ])
              | None -> ())
          | None -> ());
          Option.value r ~default:0L)

let syscall t num args =
  let pad = args @ List.init (max 0 (4 - List.length args)) (fun _ -> 0L) in
  let a = Array.of_list pad in
  if not (!Sva_rt.Trace.active || !Sva_rt.Trace.profiling) then
    syscall_body t num a
  else begin
    (* The observation scope is the whole trap path — enter before the
       trap cost is charged so the profiler attributes it to the syscall,
       exit after teardown; balanced even when a check traps out. *)
    if !Sva_rt.Trace.active then Sva_rt.Trace.emit_syscall_enter ~num;
    if !Sva_rt.Trace.profiling then
      Sva_rt.Trace.sys_enter num ~cycles:(Interp.cycles t.vm)
        ~checks:(Sva_rt.Stats.checks_now ());
    Fun.protect
      ~finally:(fun () ->
        if !Sva_rt.Trace.profiling then
          Sva_rt.Trace.sys_exit num ~cycles:(Interp.cycles t.vm)
            ~checks:(Sva_rt.Stats.checks_now ());
        if !Sva_rt.Trace.active then Sva_rt.Trace.emit_syscall_exit ~num)
      (fun () -> syscall_body t num a)
  end

let interrupt t vector =
  Interp.add_cycles t.vm (trap_cost t.sys);
  let icp =
    Svaos.icontext_create t.sys ~sp:(trap_scratch t + 1024)
      ~was_privileged:true
  in
  Fun.protect
    ~finally:(fun () -> try Svaos.icontext_destroy t.sys ~icp with _ -> ())
    (fun () ->
      match Svaos.interrupt_handler t.sys ~vector with
      | Some handler ->
          Option.value
            (Interp.call t.vm handler
               [ Int64.of_int icp; Int64.of_int vector; 0L; 0L ])
            ~default:0L
      | None -> -1L)

let user_addr _t off = Int64.of_int (Machine.user_base + off)

let write_user t off s =
  Machine.write t.sys.Svaos.machine ~addr:(Machine.user_base + off)
    (Bytes.of_string s)

let read_user t off len =
  Bytes.to_string
    (Machine.read t.sys.Svaos.machine ~addr:(Machine.user_base + off) ~len)

let inject_frame t ~proto payload =
  Sva_hw.Devices.nic_inject t.sys.Svaos.devices
    { Sva_hw.Devices.fr_proto = proto; fr_payload = Bytes.of_string payload }

let sent_frames t =
  List.map
    (fun fr ->
      (fr.Sva_hw.Devices.fr_proto, Bytes.to_string fr.Sva_hw.Devices.fr_payload))
    (Sva_hw.Devices.nic_take_tx t.sys.Svaos.devices)

let console t = Sva_hw.Devices.console_output t.sys.Svaos.devices

let kernel_global t name =
  let addr = Interp.global_addr t.vm name in
  let size = min 8 (Interp.global_size t.vm name) in
  Machine.read_int t.sys.Svaos.machine ~addr ~width:size

let steps t = Interp.steps t.vm
let reset_steps t = Interp.reset_steps t.vm
let cycles t = Interp.cycles t.vm
let reset_cycles t = Interp.reset_cycles t.vm

(* ---------- simulated-SMP scheduler ----------

   Deterministic seeded interleaving of N modeled CPUs on the one host
   thread.  Jobs are distributed round-robin into per-CPU run queues;
   the least-advanced CPU clock executes next (all CPUs run concurrently
   in model time), with clock ties broken by a seeded LCG; a CPU whose
   queue drained
   steals half of the longest queue and IPIs the victim on a dedicated
   reschedule vector (delivered next time the victim runs with
   interrupts enabled — an unregistered vector, so delivery costs only
   the trap entry/exit and executes zero checked kernel code).

   Cycle accounting: the SVM keeps one global cycle counter, so each
   job's (and each IPI delivery's) cycle delta is charged to the clock
   of the CPU that ran it.  The modeled makespan is the maximum per-CPU
   clock — what an N-way machine would take with this schedule — and
   parallel speedup is makespan(1)/makespan(N).

   With [cpus = 1] the schedule degenerates to running the jobs in
   submission order with no steals and no IPIs: bit-identical (cycles,
   checks, verdicts) to calling the jobs in sequence, which the
   differential tests assert. *)

(* Interrupt vector used for work-stealing reschedule IPIs.  The ukern
   registers no handler on it, so delivery costs exactly the trap
   entry/exit and runs zero checked kernel code. *)
let reschedule_vector = 240

type smp_stats = {
  ss_cpus : int;
  ss_jobs : int;
  ss_steals : int;
  ss_ipis_sent : int;
  ss_ipis_delivered : int;
  ss_cycles : int array;
  ss_jobs_per : int array;
  ss_makespan : int;
  ss_total : int;
}

let run_smp t ~cpus ~seed jobs =
  if cpus < 1 || cpus > Svaos.ncpus t.sys then
    invalid_arg
      (Printf.sprintf "Boot.run_smp: %d cpus on a %d-cpu instance" cpus
         (Svaos.ncpus t.sys));
  let queues = Array.init cpus (fun _ -> Queue.create ()) in
  List.iteri (fun i job -> Queue.add job queues.(i mod cpus)) jobs;
  let clocks = Array.make cpus 0 in
  let jobs_per = Array.make cpus 0 in
  let steals = ref 0 in
  let conc0 = Sva_rt.Stats.read_conc () in
  (* Seeded LCG (glibc constants, 30-bit state): the whole interleaving
     is a pure function of [seed], so any run is reproducible.  Draw
     from the HIGH bits — the low bits of a power-of-two-modulus LCG
     are themselves a tiny cycle (multiplier and increment are both odd,
     so state mod 4 just counts), which would degenerate the "random"
     CPU pick into strict round-robin and never exercise stealing. *)
  let state = ref ((seed lxor 0x5DEECE6) land 0x3FFFFFFF) in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    (!state lsr 16) mod m
  in
  let charge cpu f =
    let c0 = cycles t in
    let r = f () in
    clocks.(cpu) <- clocks.(cpu) + (cycles t - c0);
    r
  in
  (* Next slot goes to the least-advanced CPU: in model time all CPUs
     run concurrently, so the CPU whose clock is lowest is the one that
     reaches its next instruction first.  Ties — fresh clocks, lockstep
     progress on identical jobs — are broken by the seeded LCG, which
     is where the schedule's controlled nondeterminism comes from. *)
  let pick () =
    let lowest = ref max_int in
    Array.iter (fun c -> if c < !lowest then lowest := c) clocks;
    let ties = ref [] in
    for c = cpus - 1 downto 0 do
      if clocks.(c) = !lowest then ties := c :: !ties
    done;
    match !ties with
    | [ c ] -> c
    | ts -> List.nth ts (rand (List.length ts))
  in
  let remaining = ref (List.length jobs) in
  while !remaining > 0 do
    let c = if cpus = 1 then 0 else pick () in
    Svaos.switch_cpu t.sys c;
    (* Deliver pending IPIs first — interrupts beat the run queue. *)
    if Svaos.interrupts_enabled t.sys then begin
      let rec drain () =
        match Svaos.take_ipi t.sys with
        | Some v ->
            ignore (charge c (fun () -> interrupt t v));
            drain ()
        | None -> ()
      in
      drain ()
    end;
    let job =
      if not (Queue.is_empty queues.(c)) then Some (Queue.pop queues.(c))
      else begin
        (* Work stealing: take half of the longest queue and tell the
           victim its queue shrank. *)
        let victim = ref (-1) in
        let best = ref 0 in
        for i = 0 to cpus - 1 do
          let l = Queue.length queues.(i) in
          if l > !best then begin
            best := l;
            victim := i
          end
        done;
        if !victim < 0 then None
        else begin
          incr steals;
          for _ = 1 to (!best + 1) / 2 do
            Queue.add (Queue.pop queues.(!victim)) queues.(c)
          done;
          Svaos.ipi_send t.sys ~cpu:!victim ~vector:reschedule_vector;
          Some (Queue.pop queues.(c))
        end
      end
    in
    match job with
    | None -> () (* nothing anywhere for this CPU this slot *)
    | Some job ->
        charge c job;
        jobs_per.(c) <- jobs_per.(c) + 1;
        decr remaining
  done;
  (* Drain straggler IPIs so no queue leaks into later measurements,
     then hand the instance back on CPU 0. *)
  for c = 0 to cpus - 1 do
    Svaos.switch_cpu t.sys c;
    let rec drain () =
      match Svaos.take_ipi t.sys with
      | Some v ->
          ignore (charge c (fun () -> interrupt t v));
          drain ()
      | None -> ()
    in
    if Svaos.interrupts_enabled t.sys then drain ()
  done;
  Svaos.switch_cpu t.sys 0;
  let d = Sva_rt.Stats.diff_conc (Sva_rt.Stats.read_conc ()) conc0 in
  {
    ss_cpus = cpus;
    ss_jobs = List.length jobs;
    ss_steals = !steals;
    ss_ipis_sent = d.Sva_rt.Stats.ipis_sent;
    ss_ipis_delivered = d.Sva_rt.Stats.ipis_delivered;
    ss_cycles = clocks;
    ss_jobs_per = jobs_per;
    ss_makespan = Array.fold_left max 0 clocks;
    ss_total = Array.fold_left ( + ) 0 clocks;
  }

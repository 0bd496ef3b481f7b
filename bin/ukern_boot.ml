(* ukern-boot: boot the MiniC kernel on the SVM and run a smoke workload.

     ukern_boot [CONF] [OPTION]...    (default: safe, interp, 1 cpu)

   CONF is native, gcc, llvm or safe; the options (see --help) are the
   engine, trace, SMP and --ranges flags of [Cli] plus --races and
   --poolcert.  Prints the boot transcript, runs a small syscall
   workload, and reports instruction/cycle counts plus run-time check
   statistics (and the tier counters, on an [aot:] line, when the AOT
   engine is selected).  With --cpus N > 1 the smoke workload is followed by a
   parallel section: the same syscall burst scheduled over the modeled
   CPUs by the seeded work-stealing scheduler, reporting per-CPU clocks,
   steals and IPIs.  With --trace/--profile the event-trace summary,
   per-metapool metrics and hot-function/syscall attribution are
   appended; --trace-out exports the trace as Chrome trace-event JSON.
   A malformed flag or value exits 2 with a usage message. *)

open Cmdliner
module Boot = Ukern.Boot
module Kbuild = Ukern.Kbuild
module Pipeline = Sva_pipeline.Pipeline

let run conf engine trace_out smp ranges races poolcert =
  Printf.printf "building %s kernel (%s engine%s%s%s)...\n%!"
    (Pipeline.conf_name conf)
    (Pipeline.engine_name engine.Pipeline.eng_kind)
    (if ranges then ", range elision" else "")
    (if races then ", concurrency audit" else "")
    (if poolcert then ", pool certification" else "");
  let v = Kbuild.as_tested in
  let built =
    Cli.guard ~code:1 ("ukern-" ^ v.Kbuild.v_name) (fun () ->
        Kbuild.build ~conf ~ranges ~races ~poolcert v)
  in
  let t = Boot.boot_built ~engine ~smp built ~variant:v in
  Printf.printf "booted: kernel_booted=%Ld (%d instructions)\n"
    (Boot.kernel_global t "kernel_booted")
    (Boot.steps t);
  (* Measurement boundary for the check and concurrency counters.  The
     tier counters keep running: under AOT the whole translation story
     (disk hits included) happens at instantiate, before this point, and
     the report covers boot and workload together. *)
  Sva_rt.Stats.reset ();
  Sva_rt.Stats.reset_conc ();
  Boot.reset_cycles t;
  (* smoke workload: files, pipes, fork, sockets *)
  Printf.printf "getpid -> %Ld\n" (Boot.syscall t 1 []);
  Boot.write_user t 0 "smoke.txt\000";
  let fd = Boot.syscall t 4 [ Boot.user_addr t 0; 1L ] in
  Boot.write_user t 1024 "secure virtual architecture";
  Printf.printf "open -> %Ld, write -> %Ld\n" fd
    (Boot.syscall t 7 [ fd; Boot.user_addr t 1024; 27L ]);
  ignore (Boot.syscall t 20 [ fd; 0L; 0L ]);
  let r = Boot.syscall t 6 [ fd; Boot.user_addr t 2048; 64L ] in
  Printf.printf "read -> %Ld: %S\n" r (Boot.read_user t 2048 (Int64.to_int r));
  Printf.printf "fork -> %Ld\n" (Boot.syscall t 9 []);
  let sd = Boot.syscall t 14 [ 17L ] in
  ignore (Boot.syscall t 15 [ sd; 4242L ]);
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 4242l;
  Boot.inject_frame t ~proto:17 (Bytes.to_string hdr ^ "hello");
  ignore (Boot.syscall t 22 []);
  let n = Boot.syscall t 17 [ sd; Boot.user_addr t 4096; 64L ] in
  Printf.printf "socket roundtrip -> %Ld: %S\n" n
    (Boot.read_user t 4096 (Int64.to_int n));
  Printf.printf "workload: %d cycles\n" (Boot.cycles t);
  Printf.printf "checks:   %s\n" (Sva_rt.Stats.to_string (Sva_rt.Stats.read ()));
  if smp.Pipeline.smp_cpus > 1 then begin
    (* Parallel section: one syscall burst per job, scheduled over the
       modeled CPUs by the seeded work-stealing scheduler. *)
    let cpus = smp.Pipeline.smp_cpus in
    let jobs =
      List.init (4 * cpus) (fun _ () ->
          ignore (Boot.syscall t 1 []);
          ignore (Boot.syscall t 11 [ 0L ]))
    in
    let st = Boot.run_smp t ~cpus ~seed:smp.Pipeline.smp_seed jobs in
    Printf.printf
      "smp:      %d cpus, %d jobs (seed %d): makespan %dcy, parallel \
       efficiency %.2fx, %d steals, ipi=%d/%d\n"
      st.Boot.ss_cpus st.Boot.ss_jobs smp.Pipeline.smp_seed
      st.Boot.ss_makespan
      (if st.Boot.ss_makespan > 0 then
         float_of_int st.Boot.ss_total /. float_of_int st.Boot.ss_makespan
       else 0.0)
      st.Boot.ss_steals st.Boot.ss_ipis_delivered st.Boot.ss_ipis_sent;
    Array.iteri
      (fun i c ->
        Printf.printf "          cpu%d: %dcy, %d jobs\n" i c
          st.Boot.ss_jobs_per.(i))
      st.Boot.ss_cycles
  end;
  if engine.Pipeline.eng_kind = Pipeline.Aot then
    Printf.printf "aot:      %s\n"
      (Sva_rt.Stats.tier_to_string (Sva_rt.Stats.read_tier ()));
  if ranges then
    Printf.printf "ranges:   %s\n" (Pipeline.range_counts t.Boot.built);
  if poolcert then begin
    Printf.printf "poolcert: %s\n" (Pipeline.poolcert_counts t.Boot.built);
    match t.Boot.built.Pipeline.bl_poolcert with
    | Some b ->
        Printf.printf
          "          %d TH + %d completeness certificates, all \
           re-verified by the trusted checker\n"
          (List.length b.Sva_safety.Poolev.pb_th)
          (List.length b.Sva_safety.Poolev.pb_comp)
    | None -> ()
  end;
  if races then begin
    Printf.printf "conc:     %s\n"
      (Sva_rt.Stats.conc_to_string (Sva_rt.Stats.read_conc ()));
    match t.Boot.built.Pipeline.bl_races with
    | Some r ->
        Printf.printf
          "races:    %d findings; %d shared classes, %d certified accesses\n"
          (List.length (Sva_analysis.Lockset.findings r))
          (Sva_analysis.Lockset.shared_count r)
          (Sva_analysis.Lockset.cert_count r)
    | None -> ()
  end;
  Cli.report ~vm:t.Boot.vm trace_out;
  0

let races =
  Arg.(value & flag & info [ "races" ]
         ~doc:"Run the certificate-verified concurrency audit during the \
               build and print the run-time cli/sti/spinlock counters.")

let poolcert =
  Arg.(value & flag & info [ "poolcert" ]
         ~doc:"Certify every points-to-justified check elision and print \
               the certificate counts.")

let cmd =
  Cmd.v
    (Cmd.info "ukern_boot"
       ~doc:"Boot the MiniC kernel on the SVM and run a smoke workload")
    Term.(
      const run
      $ Arg.(value & pos 0 Cli.conf Pipeline.Sva_safe & Cli.conf_info [])
      $ Cli.engine $ Cli.obs $ Cli.smp $ Cli.ranges $ races $ poolcert)

let () = Cli.eval cmd

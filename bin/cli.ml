(* The command-line layer the SVA tools share: one Cmdliner term per flag
   group (configuration, engine, observability, SMP), the module loader
   that turns unreadable input into a one-line diagnostic, the
   trace/profile report, and the exit mapping that makes every usage
   error exit 2.  Each flag is spelled, validated and documented here
   once; both [--flag=value] and [--flag value] work. *)

open Cmdliner
module Pipeline = Sva_pipeline.Pipeline

(* ---------- converters: a bad value is a usage error ---------- *)

(* A converter over one of Pipeline's name parsers. *)
let named what parse print =
  Arg.conv'
    ( (fun s ->
        Option.to_result ~none:(Printf.sprintf "unknown %s '%s'" what s)
          (parse s)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

let int_in ?hi lo =
  Arg.conv'
    ( (fun s ->
        match (int_of_string_opt s, hi) with
        | Some n, None when n >= lo -> Ok n
        | Some n, Some hi when n >= lo && n <= hi -> Ok n
        | _, None -> Error (Printf.sprintf "'%s' is not an integer >= %d" s lo)
        | _, Some hi ->
            Error (Printf.sprintf "'%s' is not an integer in %d..%d" s lo hi)),
      Format.pp_print_int )

let path =
  Arg.conv'
    ( (fun s -> if s = "" then Error "empty path" else Ok s),
      Format.pp_print_string )

(* ---------- flag groups ---------- *)

(* The pipeline configuration, and the [info] of an argument [names]
   (none for a positional one) that takes it, default safe. *)
let conf = named "configuration" Pipeline.conf_of_string Pipeline.conf_name

let conf_info names =
  Arg.info names ~docv:"CONF" ~absent:"safe"
    ~doc:"Pipeline configuration: native, gcc, llvm or safe."

let engine =
  let kind =
    Arg.(value
         & opt (named "engine" Pipeline.engine_of_string Pipeline.engine_name)
             Pipeline.Interp
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"Execution engine: interp (pre-decoded interpreter), \
                   tiered (closure-compiled hot functions with a signed \
                   translation cache) or aot (whole-kernel closure \
                   compilation at instantiate time, no warmup).")
  and threshold =
    Arg.(value & opt (int_in 1) Pipeline.default_jit_threshold
         & info [ "jit-threshold" ] ~docv:"N"
             ~doc:"Calls before the tiered engine promotes a function.")
  and dir =
    Arg.(value & opt (some path) None
         & info [ "tcache-dir" ] ~docv:"DIR"
             ~doc:"Persist signed translations in $(docv): entries are \
                   re-verified against the SVM key on load, so a second \
                   process starts with a hot translation cache while \
                   tampered or stale files merely re-translate.")
  in
  Term.(const (fun eng_kind eng_threshold eng_tcache_dir ->
            { Pipeline.eng_kind; eng_threshold; eng_tcache_dir })
        $ kind $ threshold $ dir)

(* The event trace and profiler, enabled as the term is evaluated —
   before the tool builds anything, so build-time events are captured.
   Its value is the [--trace-out] file, which implies [--trace]. *)
let obs =
  let trace =
    Arg.(value
         & opt ~vopt:(Some Sva_rt.Trace.default_capacity) (some (int_in 1)) None
         & info [ "trace" ] ~docv:"N"
             ~doc:"Record runtime events (checks, violations, object \
                   registration, SVA-OS operations, tier activity) into a \
                   ring buffer of $(docv) entries (default 4096) and print \
                   a summary.  Semantically invisible: results, verdicts \
                   and modeled cycles are unchanged.")
  and trace_out =
    Arg.(value & opt (some path) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the recorded trace as Chrome trace-event JSON to \
                   $(docv) (implies $(b,--trace)).")
  and profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Attribute modeled cycles and check counts to functions \
                   and syscalls and print a top-N hot report.")
  in
  let install trace trace_out profile =
    (match (trace, trace_out) with
    | Some capacity, _ -> Sva_rt.Trace.enable ~capacity ()
    | None, Some _ -> Sva_rt.Trace.enable ()
    | None, None -> ());
    if profile then Sva_rt.Trace.enable_profile ();
    trace_out
  in
  Term.(const install $ trace $ trace_out $ profile)

let smp =
  let cpus =
    Arg.(value
         & opt (int_in ~hi:Sva_hw.Machine.max_cpus 1)
             Pipeline.default_smp.smp_cpus
         & info [ "cpus" ] ~docv:"N"
             ~doc:"Model $(docv) CPUs; above 1 a parallel syscall section \
                   reports per-CPU clocks, steals and IPIs.")
  and seed =
    Arg.(value & opt (int_in 0) Pipeline.default_smp.smp_seed
         & info [ "smp-seed" ] ~docv:"S"
             ~doc:"The deterministic scheduler-interleaving seed.")
  in
  Term.(const (fun smp_cpus smp_seed -> { Pipeline.smp_cpus; smp_seed })
        $ cpus $ seed)

let ranges =
  Arg.(value & flag
       & info [ "ranges" ]
           ~doc:"Run the value-range analysis ($(b,Sva_analysis.Interval)): \
                 a safe build elides the checks its certificates cover, and \
                 lint's safe-access prover widens to variable-index geps \
                 certified in extent.")

(* The Pointsto configuration for a module file: the kernel's syscall
   registration and dispatch hooks, no allocator declarations. *)
let file_aconfig =
  {
    Sva_analysis.Pointsto.default_config with
    syscall_register = Some "sva_register_syscall";
    syscall_invoke = Some "sva_syscall";
  }

(* ---------- input, output, exit ---------- *)

(* [f ()], or exit [code] with its one-line [FILE: ...] diagnostic when
   it raises on unreadable input from [file] or an unwritable [file];
   the diagnostic follows whatever the tool printed so far. *)
let guard ~code file f =
  match f () with
  | v -> v
  | exception e -> (
      match Pipeline.load_error file e with
      | Some msg ->
          flush stdout;
          prerr_endline msg;
          exit code
      | None -> raise e)

let load ~code file = guard ~code file (fun () -> Pipeline.load_file file)

let is_flag arg = String.starts_with ~prefix:"-" arg

(* The arguments [FILE [FUNC]]: FILE's module and FUNC.  Anything else, a
   flag among them included, prints [usage] and exits 2; unreadable input,
   or a FUNC that names no function of the module, exits 1 with one
   [FILE: ...] line. *)
let module_func ~usage args =
  let file, func =
    match args with
    | [ file ] when not (is_flag file) -> (file, None)
    | [ file; func ] when not (is_flag file || is_flag func) ->
        (file, Some func)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let m = load ~code:1 file in
  (match func with
  | Some fn when Sva_ir.Irmod.find_func m fn = None ->
      Printf.eprintf "%s: no function @%s\n" file fn;
      exit 1
  | _ -> ());
  (file, m, func)

(* The trace summary (with [vm]'s per-pool metrics when given) and the
   Chrome export, then the profile — each only when enabled.  An
   unwritable [trace_out] ends the run with one line and exit 1. *)
let report ?vm trace_out =
  let module T = Harness.Traceout in
  if Sva_rt.Trace.enabled () then begin
    print_string (T.summary_table ());
    Option.iter
      (fun vm -> print_string (T.pool_metrics_table (T.pool_metrics vm)))
      vm;
    Option.iter
      (fun file ->
        guard ~code:1 file (fun () -> T.write_chrome file);
        Printf.printf "trace:    %d events -> %s\n"
          (List.length (Sva_rt.Trace.events ())) file)
      trace_out
  end;
  if !Sva_rt.Trace.profiling then print_string (T.profile_table ())

(* Evaluate [cmd] and exit with its code.  Cmdliner reports an unknown
   flag as a term error but a value a converter rejects as a
   command-line error (124); both are usage errors, exit 2. *)
let eval cmd =
  exit
    (match Cmd.eval' ~term_err:2 cmd with
    | c when c = Cmd.Exit.cli_error -> 2
    | c -> c)

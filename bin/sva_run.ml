(* sva-run: compile a MiniC source file through the SVA pipeline and
   execute a function on the SVM.  SVA bytecode input (recognized by its
   magic) skips the front end; note that bytecode emitted from a safe
   build is already instrumented, so run such files under `--conf llvm`
   to avoid inserting a second set of checks.

     sva_run FILE [-f FUNC] [-a INT]... [--conf native|gcc|llvm|safe]
             [--engine interp|tiered|aot] [--jit-threshold N]
             [--tcache-dir DIR] [--ranges]
             [--trace[=N]] [--trace-out FILE] [--profile]
             [--dump-ir] [--emit-bytecode OUT]

   The default entry point is `main`.  Under `--conf safe` (the default)
   the full safety-checking pipeline runs: points-to analysis, metapool
   inference, metapool type checking, and run-time check insertion; a
   safety violation terminates with a diagnostic and exit code 2. *)

open Cmdliner
module Pipeline = Sva_pipeline.Pipeline

let run file func args conf eng_kind jit_threshold tcache_dir ranges trace
    trace_out profile dump_ir emit_bytecode =
  let source = In_channel.with_open_bin file In_channel.input_all in
  let engine =
    {
      Pipeline.eng_kind;
      eng_threshold = jit_threshold;
      eng_tcache_dir = tcache_dir;
    }
  in
  let obs =
    {
      Pipeline.obs_trace =
        (match (trace, trace_out) with
        | Some cap, _ -> Some cap
        | None, Some _ -> Some Sva_rt.Trace.default_capacity
        | None, None -> None);
      obs_trace_out = trace_out;
      obs_profile = profile;
    }
  in
  Pipeline.install_obs obs;
  let name = Filename.basename file in
  match
    if Pipeline.is_bytecode source then
      Pipeline.build_module ~conf ~ranges ~name
        (Pipeline.load_source ~name source)
    else Pipeline.build ~conf ~ranges ~name [ source ]
  with
  | exception e -> (
      match Pipeline.load_error file e with
      | Some msg ->
          prerr_endline msg;
          exit 1
      | None -> raise e)
  | built -> (
      if dump_ir then print_string (Sva_ir.Pp.string_of_module built.Pipeline.bl_mod);
      (match emit_bytecode with
      | Some out ->
          let entry = Sva_bytecode.Signing.sign built.Pipeline.bl_mod in
          Out_channel.with_open_bin out (fun oc ->
              Out_channel.output_string oc entry.Sva_bytecode.Signing.ce_bytecode);
          Printf.printf "bytecode: %s (%d bytes, sha256 %s)\n" out
            (String.length entry.Sva_bytecode.Signing.ce_bytecode)
            (Sva_bytecode.Sha256.hex entry.Sva_bytecode.Signing.ce_bytecode)
      | None -> ());
      let vm = Pipeline.instantiate ~engine built in
      let report_tier () =
        if engine.Pipeline.eng_kind <> Pipeline.Interp then
          Printf.printf "tiered:   %s\n"
            (Sva_rt.Stats.tier_to_string (Sva_rt.Stats.read_tier ()));
        if ranges then
          Printf.printf "ranges:   %s\n" (Pipeline.range_counts built)
      in
      (* Emitted on every outcome: the trace is most useful when the run
         ended in a violation. *)
      let report_obs () =
        if Sva_rt.Trace.enabled () then begin
          print_string (Harness.Traceout.summary_table ());
          match obs.Pipeline.obs_trace_out with
          | Some path ->
              Harness.Traceout.write_chrome path;
              Printf.printf "trace:    %d events -> %s\n"
                (List.length (Sva_rt.Trace.events ()))
                path
          | None -> ()
        end;
        if !Sva_rt.Trace.profiling then
          print_string (Harness.Traceout.profile_table ())
      in
      match Sva_interp.Interp.call vm func (List.map Int64.of_int args) with
      | Some v ->
          Printf.printf "%s(%s) = %Ld   [%d instructions, %d cycles]\n" func
            (String.concat ", " (List.map string_of_int args))
            v
            (Sva_interp.Interp.steps vm)
            (Sva_interp.Interp.cycles vm);
          report_tier ();
          report_obs ();
          exit 0
      | None ->
          Printf.printf "%s returned void\n" func;
          report_tier ();
          report_obs ();
          exit 0
      | exception Sva_rt.Violation.Safety_violation v ->
          Printf.eprintf "%s\n" (Sva_rt.Violation.to_string v);
          report_obs ();
          exit 2
      | exception Sva_interp.Interp.Vm_error msg ->
          Printf.eprintf "vm error: %s\n" msg;
          report_obs ();
          exit 3)

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let func =
  Arg.(value & opt string "main" & info [ "f"; "function" ] ~docv:"FUNC")

let args = Arg.(value & opt_all int [] & info [ "a"; "arg" ] ~docv:"INT")

(* A converter over one of Pipeline's name parsers: a value it does not
   know is a usage error, like an unknown flag. *)
let named what parse print =
  Arg.conv'
    ( (fun s ->
        Option.to_result ~none:(Printf.sprintf "unknown %s '%s'" what s)
          (parse s)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

let conf =
  Arg.(value
       & opt (named "configuration" Pipeline.conf_of_string Pipeline.conf_name)
           Pipeline.Sva_safe
       & info [ "conf" ] ~docv:"CONF" ~absent:"safe"
           ~doc:"Pipeline configuration: native, gcc, llvm or safe.")

let engine =
  Arg.(value
       & opt (named "engine" Pipeline.engine_of_string Pipeline.engine_name)
           Pipeline.Interp
       & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Execution engine: interp (pre-decoded interpreter), \
               tiered (closure-compiled hot functions with a signed \
               translation cache) or aot (whole-kernel closure \
               compilation at instantiate time, no warmup).")

let jit_threshold =
  Arg.(value & opt int Pipeline.default_jit_threshold
       & info [ "jit-threshold" ] ~docv:"N"
           ~doc:"Calls before the tiered engine promotes a function.")

let tcache_dir =
  Arg.(value & opt (some string) None
       & info [ "tcache-dir" ] ~docv:"DIR"
           ~doc:"Persist signed translations in $(docv): entries are \
                 re-verified against the SVM key on load, so a second \
                 process starts with a hot translation cache while \
                 tampered or stale files merely re-translate.")

let ranges =
  Arg.(value & flag & info [ "ranges" ]
         ~doc:"Run the value-range analysis and elide checks on verified \
               interval certificates (safe configuration only).")

let trace =
  Arg.(value
       & opt ~vopt:(Some Sva_rt.Trace.default_capacity) (some int) None
       & info [ "trace" ] ~docv:"N"
           ~doc:"Record runtime events (checks, violations, object \
                 registration, SVA-OS operations, tier activity) into a \
                 ring buffer of $(docv) entries (default 4096) and print \
                 a summary.  Semantically invisible: results, verdicts \
                 and modeled cycles are unchanged.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the recorded trace as Chrome trace-event JSON to \
                 $(docv) (implies $(b,--trace)).")

let profile =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Attribute modeled cycles and check counts to functions \
                 and print a top-N hot report.")

let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the final IR.")

let emit_bytecode =
  Arg.(value & opt (some string) None & info [ "emit-bytecode" ] ~docv:"OUT")

let cmd =
  Cmd.v
    (Cmd.info "sva_run"
       ~doc:"Compile MiniC through the SVA safety pipeline and execute it")
    Term.(
      const run $ file $ func $ args $ conf $ engine $ jit_threshold
      $ tcache_dir $ ranges $ trace $ trace_out $ profile $ dump_ir
      $ emit_bytecode)

(* Unknown or malformed flags print usage and exit 2, like the other
   SVA binaries.  Cmdliner reports an unknown flag as a term error but a
   value its converter rejects (an unknown --conf or --engine, a
   non-integer -a) as a command-line error, exit 124. *)
let () =
  exit
    (match Cmd.eval ~term_err:2 cmd with
    | c when c = Cmd.Exit.cli_error -> 2
    | c -> c)

(* sva-run: compile a MiniC source file through the SVA pipeline and
   execute a function on the SVM.  SVA bytecode input (recognized by its
   magic) skips the front end.  Bytecode emitted from a safe build is
   already instrumented and is rejected under every configuration; emit
   it from an uninstrumented build (`--conf llvm`) instead, and the
   configuration it runs under inserts the checks.

     sva_run FILE [-f FUNC] [-a INT]... [--conf native|gcc|llvm|safe]
             [--engine interp|tiered|aot] [--jit-threshold N]
             [--tcache-dir DIR] [--ranges]
             [--trace[=N]] [--trace-out FILE] [--profile]
             [--dump-ir] [--emit-bytecode OUT]

   The default entry point is `main`.  Under `--conf safe` (the default)
   the full safety-checking pipeline runs: points-to analysis, metapool
   inference, metapool type checking, and run-time check insertion; a
   safety violation terminates with a diagnostic and exit code 2.
   Unreadable or rejected input exits 1, a VM error 3, and a malformed
   flag or value exits 2 with a usage message. *)

open Cmdliner
module Pipeline = Sva_pipeline.Pipeline

let run file func args conf engine trace_out ranges dump_ir emit_bytecode =
  let name = Filename.basename file in
  let built =
    Cli.guard ~code:1 file (fun () ->
        let source = In_channel.with_open_bin file In_channel.input_all in
        if Pipeline.is_bytecode source then begin
          let m = Pipeline.load_source ~name source in
          if Sva_ir.Irmod.find_func m "__sva_register_globals" <> None
          then begin
            prerr_endline
              (file ^ ": already instrumented by a safe build; emit the \
                       bytecode under --conf llvm");
            exit 1
          end;
          Pipeline.build_module ~conf ~ranges ~name m
        end
        else Pipeline.build ~conf ~ranges ~name [ source ])
  in
  if dump_ir then
    print_string (Sva_ir.Pp.string_of_module built.Pipeline.bl_mod);
  (match emit_bytecode with
  | Some out ->
      let entry = Sva_bytecode.Signing.sign built.Pipeline.bl_mod in
      Cli.guard ~code:1 out (fun () ->
          Out_channel.with_open_bin out (fun oc ->
              Out_channel.output_string oc
                entry.Sva_bytecode.Signing.ce_bytecode));
      Printf.printf "bytecode: %s (%d bytes, sha256 %s)\n" out
        (String.length entry.Sva_bytecode.Signing.ce_bytecode)
        (Sva_bytecode.Sha256.hex entry.Sva_bytecode.Signing.ce_bytecode)
  | None -> ());
  (* The trace report is emitted on every outcome: it is most useful
     when the run ended in a violation.  Instantiation runs code (the
     global-registration pass), so it fails the way the call does. *)
  match
    let vm = Pipeline.instantiate ~engine built in
    (vm, Sva_interp.Interp.call vm func (List.map Int64.of_int args))
  with
  | vm, result ->
      (match result with
      | Some v ->
          Printf.printf "%s(%s) = %Ld   [%d instructions, %d cycles]\n" func
            (String.concat ", " (List.map string_of_int args))
            v
            (Sva_interp.Interp.steps vm)
            (Sva_interp.Interp.cycles vm)
      | None -> Printf.printf "%s returned void\n" func);
      if engine.Pipeline.eng_kind <> Pipeline.Interp then
        Printf.printf "tiered:   %s\n"
          (Sva_rt.Stats.tier_to_string (Sva_rt.Stats.read_tier ()));
      if ranges then
        Printf.printf "ranges:   %s\n" (Pipeline.range_counts built);
      Cli.report trace_out;
      0
  | exception Sva_rt.Violation.Safety_violation v ->
      Printf.eprintf "%s\n" (Sva_rt.Violation.to_string v);
      Cli.report trace_out;
      2
  | exception Sva_interp.Interp.Vm_error msg ->
      Printf.eprintf "vm error: %s\n" msg;
      Cli.report trace_out;
      3

let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let func =
  Arg.(value & opt string "main" & info [ "f"; "function" ] ~docv:"FUNC")

let args = Arg.(value & opt_all int [] & info [ "a"; "arg" ] ~docv:"INT")

let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the final IR.")

let emit_bytecode =
  Arg.(value & opt (some string) None & info [ "emit-bytecode" ] ~docv:"OUT")

let cmd =
  Cmd.v
    (Cmd.info "sva_run"
       ~doc:"Compile MiniC through the SVA safety pipeline and execute it")
    Term.(
      const run $ file $ func $ args
      $ Arg.(value & opt Cli.conf Pipeline.Sva_safe & Cli.conf_info [ "conf" ])
      $ Cli.engine $ Cli.obs $ Cli.ranges $ dump_ir $ emit_bytecode)

let () = Cli.eval cmd

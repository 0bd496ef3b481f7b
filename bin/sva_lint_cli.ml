(* sva-lint: the static lint layer as a command-line sanitizer.

     sva_lint FILE            lint a MiniC source (or SVA bytecode) file
     sva_lint --ukern         lint the embedded kernel (expected clean)
     sva_lint --fixture       lint the kernel plus the seeded-bug fixture

   Exactly one of FILE, --ukern and --fixture names the module.  With
   --races the concurrency-safety pass runs instead of the lint
   checkers: the interprocedural lockset analysis reports races,
   deadlocks and masking-discipline defects, and the trusted atomicity
   checker re-verifies the certificate bundle; --fixture then adds the
   ksrc_racebugs module.

   Findings print one per line in deterministic order; the exit code is
   non-zero when any finding is reported. *)

open Cmdliner
module Pipeline = Sva_pipeline.Pipeline
module Lint = Sva_lint.Lint
module Pointsto = Sva_analysis.Pointsto
module Lockset = Sva_analysis.Lockset
module Atomcert = Sva_tyck.Atomcert

(* Lint runs standalone — compile, analyze, check — without the metapool
   type checker or instrumentation, so even modules a full safe build
   would reject can be linted. *)
let range_oracle m pa =
  let res = Sva_analysis.Interval.run m pa in
  fun ~fname i ->
    Sva_analysis.Interval.elide res ~fname i Sva_analysis.Interval.Cls

let lint_module ?(ranges = false) ~aconfig ~config m =
  let pa = Pointsto.run ~config:aconfig m in
  if ranges then Lint.run ~config ~ranges:(range_oracle m pa) m pa
  else Lint.run ~config m pa

let print_result ?(quiet = false) (r : Lint.result) =
  print_string (Lint.render r);
  if not quiet then begin
    let counts =
      String.concat ", "
        (List.map (fun (c, n) -> Printf.sprintf "%s %d" c n) r.Lint.lr_counts)
    in
    let ranges =
      if r.Lint.lr_range_geps > 0 then
        Printf.sprintf " (%d via range certificates)" r.Lint.lr_range_geps
      else ""
    in
    Printf.printf
      "lint: %d findings (%s); %d accesses proved safe%s; %d functions, %d \
       dataflow iterations\n"
      (List.length r.Lint.lr_findings)
      counts r.Lint.lr_proof_count ranges r.Lint.lr_funcs r.Lint.lr_iterations
  end

(* ---------- the concurrency-safety pass ---------- *)

let race_module ~aconfig m =
  let pa = Pointsto.run ~config:aconfig m in
  let r = Lockset.run m pa in
  let errs =
    Atomcert.check ~entries:(Lockset.entry_config r) m (Lockset.bundle r)
  in
  (r, errs)

let race_checkers =
  [ "race"; "deadlock"; "cli-imbalance"; "lock-imbalance"; "atomic-sleep" ]

let print_races ?(quiet = false) (r, errs) =
  List.iter
    (fun f -> print_endline (Lockset.render_finding f))
    (Lockset.findings r);
  List.iter
    (fun e ->
      Printf.printf "atomcert: %s\n" (Sva_tyck.Cert.string_of_error e))
    errs;
  if not quiet then begin
    let counts =
      String.concat ", "
        (List.map
           (fun c -> Printf.sprintf "%s %d" c (Lockset.count_findings r c))
           race_checkers)
    in
    Printf.printf
      "races: %d findings (%s); %d shared classes, %d accesses, %d certified \
       (%d certificate errors); %d functions, %d dataflow iterations\n"
      (List.length (Lockset.findings r))
      counts (Lockset.shared_count r) (Lockset.access_count r)
      (Lockset.cert_count r) (List.length errs) (Lockset.funcs_analyzed r)
      (Lockset.iterations r)
  end

let usage () =
  prerr_endline
    "usage: sva_lint [--races] [--ranges] [-q] (FILE | --ukern | --fixture)";
  exit 2

(* The module to analyze, with its Pointsto and lint configurations: the
   FILE, or the embedded kernel, where [fixture] adds the seeded-bug
   module of the pass that runs. *)
let target ~races file kernel =
  match (file, kernel) with
  | Some path, None ->
      ( Cli.load ~code:2 path,
        Cli.file_aconfig,
        Lint.config_of_aconfig Cli.file_aconfig )
  | None, Some fixture ->
      let v = Ukern.Kbuild.as_tested in
      let sources =
        if not fixture then Ukern.Kbuild.sources v
        else if races then Ukern.Kbuild.race_fixture_sources v
        else Ukern.Kbuild.fixture_sources v
      in
      let name =
        (if races then "ukern-races" else "ukern-lint")
        ^ if fixture then "-fixture" else ""
      in
      ( Pipeline.compile ~name sources,
        Ukern.Kbuild.aconfig v,
        Ukern.Kbuild.lint_config v )
  | _ -> usage ()

let run file kernel ranges races quiet =
  let m, aconfig, config = target ~races file kernel in
  if races then begin
    let ((r, errs) as res) = race_module ~aconfig m in
    print_races ~quiet res;
    if Lockset.findings r = [] && errs = [] then 0 else 1
  end
  else begin
    let r = lint_module ~ranges ~aconfig ~config m in
    print_result ~quiet r;
    if r.Lint.lr_findings = [] then 0 else 1
  end

let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE")

(* [Some fixture]: at most one of the two kernel targets. *)
let kernel =
  Arg.(
    value
    & vflag None
        [
          (Some false, info [ "ukern" ] ~doc:"Lint the embedded kernel.");
          ( Some true,
            info [ "fixture" ]
              ~doc:"Lint the embedded kernel plus the seeded-bug fixture." );
        ])

let races_flag =
  Arg.(
    value & flag
    & info [ "races" ]
        ~doc:
          "Run the concurrency-safety pass ($(b,Sva_analysis.Lockset)) \
           instead of the lint checkers: interprocedural lockset + \
           interrupt-mask dataflow, race/deadlock/masking-discipline \
           findings, and trusted re-verification of the atomicity \
           certificates.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Findings only, no summary.")

let cmd =
  Cmd.v
    (Cmd.info "sva_lint"
       ~doc:"Static dataflow lint over the SVA safety pipeline")
    Term.(
      const run $ file $ kernel $ Cli.ranges $ races_flag $ quiet)

let () = Cli.eval cmd

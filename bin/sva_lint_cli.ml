(* sva-lint: the static lint layer as a command-line sanitizer.

     sva_lint FILE            lint a MiniC source (or SVA bytecode) file
     sva_lint --ukern         lint the embedded kernel (expected clean)
     sva_lint --fixture       lint the kernel plus the seeded-bug fixture
     sva_lint --selftest      --ukern must be clean AND --fixture must
                              report exactly the seeded defects

   With --races the concurrency-safety pass runs instead of the lint
   checkers: the interprocedural lockset analysis reports races,
   deadlocks and masking-discipline defects, and the trusted atomicity
   checker re-verifies the certificate bundle.  --races composes with
   FILE, --ukern, --fixture (the ksrc_racebugs module) and --selftest.

   Findings print one per line in deterministic order; the exit code is
   non-zero when any finding is reported (or, under --selftest, when the
   results deviate from the expected set). *)

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

let lint_kernel ?ranges ~fixture () =
  let v = Ukern.Kbuild.as_tested in
  let sources =
    if fixture then Ukern.Kbuild.fixture_sources v else Ukern.Kbuild.sources v
  in
  let name = if fixture then "ukern-lint-fixture" else "ukern-lint" in
  lint_module ?ranges ~aconfig:(Ukern.Kbuild.aconfig v)
    ~config:(Ukern.Kbuild.lint_config v)
    (Pipeline.compile ~name sources)

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

let race_kernel ~fixture () =
  let v = Ukern.Kbuild.as_tested in
  let sources =
    if fixture then Ukern.Kbuild.race_fixture_sources v
    else Ukern.Kbuild.sources v
  in
  let name = if fixture then "ukern-races-fixture" else "ukern-races" in
  race_module ~aconfig:(Ukern.Kbuild.aconfig v) (Pipeline.compile ~name sources)

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

let race_selftest () =
  let clean, clean_errs = race_kernel ~fixture:false () in
  let dirty, dirty_errs = race_kernel ~fixture:true () in
  let got =
    List.map
      (fun (f : Lockset.finding) -> (f.Lockset.lf_checker, f.Lockset.lf_func))
      (Lockset.findings dirty)
    |> List.sort_uniq compare
  in
  let want = List.sort_uniq compare Ukern.Ksrc_racebugs.expected in
  let show l =
    String.concat ", " (List.map (fun (c, fn) -> c ^ "@" ^ fn) l)
  in
  let ok = ref true in
  if Lockset.findings clean <> [] then begin
    ok := false;
    Printf.printf "FAIL: clean kernel has concurrency findings:\n";
    print_races ~quiet:true (clean, [])
  end;
  if got <> want then begin
    ok := false;
    Printf.printf "FAIL: race fixture findings mismatch\n  want: %s\n  got:  %s\n"
      (show want) (show got)
  end;
  if clean_errs <> [] || dirty_errs <> [] then begin
    ok := false;
    Printf.printf "FAIL: atomicity certificates rejected:\n";
    List.iter
      (fun e -> Printf.printf "  %s\n" (Sva_tyck.Cert.string_of_error e))
      (clean_errs @ dirty_errs)
  end;
  if Lockset.cert_count clean = 0 then begin
    ok := false;
    Printf.printf "FAIL: no access was certified on the clean kernel\n"
  end;
  if !ok then begin
    Printf.printf
      "races selftest OK: clean kernel 0 findings, %d certified accesses; \
       fixture reports exactly [%s]\n"
      (Lockset.cert_count clean) (show want);
    0
  end
  else 1

let selftest () =
  let clean = lint_kernel ~fixture:false () in
  let dirty = lint_kernel ~fixture:true () in
  let got =
    List.map
      (fun (f : Sva_lint.Report.finding) ->
        (f.Sva_lint.Report.f_checker, f.Sva_lint.Report.f_func))
      dirty.Lint.lr_findings
    |> List.sort_uniq compare
  in
  let want = List.sort_uniq compare Ukern.Ksrc_lintbugs.expected in
  let show l =
    String.concat ", " (List.map (fun (c, fn) -> c ^ "@" ^ fn) l)
  in
  let ok = ref true in
  if clean.Lint.lr_findings <> [] then begin
    ok := false;
    Printf.printf "FAIL: clean kernel has findings:\n";
    print_string (Lint.render clean)
  end;
  if got <> want then begin
    ok := false;
    Printf.printf "FAIL: fixture findings mismatch\n  want: %s\n  got:  %s\n"
      (show want) (show got)
  end;
  if dirty.Lint.lr_proof_count = 0 then begin
    ok := false;
    Printf.printf "FAIL: safe-access prover proved nothing on the kernel\n"
  end;
  if !ok then begin
    Printf.printf
      "selftest OK: clean kernel 0 findings; fixture reports exactly [%s]; \
       %d accesses proved safe\n"
      (show want) dirty.Lint.lr_proof_count;
    0
  end
  else 1

let run file ukern fixture selftest_flag ranges races quiet =
  if races then begin
    if selftest_flag then race_selftest ()
    else begin
      let ((r, errs) as res) =
        if ukern then race_kernel ~fixture:false ()
        else if fixture then race_kernel ~fixture:true ()
        else
          match file with
          | Some path ->
              race_module ~aconfig:Cli.file_aconfig (Cli.load ~code:2 path)
          | None ->
              prerr_endline
                "usage: sva_lint --races [FILE | --ukern | --fixture | \
                 --selftest]";
              exit 2
      in
      print_races ~quiet res;
      if Lockset.findings r = [] && errs = [] then 0 else 1
    end
  end
  else if selftest_flag then selftest ()
  else begin
    let r =
      if ukern then lint_kernel ~ranges ~fixture:false ()
      else if fixture then lint_kernel ~ranges ~fixture:true ()
      else
        match file with
        | Some path ->
            lint_module ~ranges ~aconfig:Cli.file_aconfig
              ~config:(Lint.config_of_aconfig Cli.file_aconfig)
              (Cli.load ~code:2 path)
        | None ->
            prerr_endline
              "usage: sva_lint FILE | --ukern | --fixture | --selftest";
            exit 2
    in
    print_result ~quiet r;
    if r.Lint.lr_findings = [] then 0 else 1
  end

let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE")

let ukern =
  Arg.(value & flag & info [ "ukern" ] ~doc:"Lint the embedded kernel.")

let fixture =
  Arg.(
    value & flag
    & info [ "fixture" ]
        ~doc:"Lint the embedded kernel plus the seeded-bug fixture.")

let selftest_flag =
  Arg.(
    value & flag
    & info [ "selftest" ]
        ~doc:
          "Check that the clean kernel lints clean and the fixture reports \
           exactly the seeded defects.")

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
      const run $ file $ ukern $ fixture $ selftest_flag $ Cli.ranges
      $ races_flag $ quiet)

let () = Cli.eval cmd

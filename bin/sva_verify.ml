(* sva-verify: the load-time half of the SVM (Section 3.4).

     sva_verify FILE
     sva_verify --rangecert FILE
     sva_verify --range-selftest
     sva_verify --atomcert
     sva_verify --poolcert [FILE]
     sva_verify --poolcert-selftest
     sva_verify --cert-selftest FILE

   Loads an SVA module (bytecode, or MiniC compiled on the fly), runs
   the IR well-formedness verifier, and reports module statistics.
   Exit code 0 = the module may be translated and executed;
   1 = rejected.

   --rangecert runs the value-range analysis over the module, has the
   trusted checker re-verify every certificate it can emit, and then
   runs the certificate-bug injection experiment: every injected bug
   must be rejected.  --range-selftest exercises the interval kernel
   against the concrete constant folder.

   --atomcert does the same for the concurrency pass: the lockset
   analysis runs over the embedded kernel plus the race fixture, the
   trusted atomicity checker re-verifies the certificate bundle, and the
   certificate-bug injection experiment corrupts it in every supported
   way — each corruption must be rejected.

   --poolcert does the same for the points-to layer: the module (the
   embedded kernel when no FILE is given) is built with pool-safety
   certification, the trusted checker re-verifies the membership maps
   and every TH/completeness/devirt certificate and elision record, and
   the pool-certificate bug injection experiment corrupts the bundle in
   every supported way — each corruption must be rejected.
   --poolcert-selftest is --poolcert over the embedded kernel through
   the full build pipeline (the shipped configuration).

   --cert-selftest runs every certificate self-test — the Section 5
   metapool-type experiment on the embedded kernel, rangecert over FILE,
   atomcert and poolcert over the embedded kernel — and prints one
   pass/fail table. *)

module Interval = Sva_analysis.Interval
module Lockset = Sva_analysis.Lockset
module Cert = Sva_tyck.Cert
module Inject = Sva_tyck.Inject
module Poolev = Sva_safety.Poolev

let load path =
  Cli.guard ~code:1 path (fun () ->
      let data = In_channel.with_open_bin path In_channel.input_all in
      (Sva_pipeline.Pipeline.load_source ~name:path data, data))

let range_selftest () =
  let n = Interval.selftest () in
  Printf.printf "interval kernel selftest: OK (%d checks against the \
                 constant folder)\n" n

(* Each certificate self-test gates the clean evidence through its
   trusted checker (a rejection is a hard failure, exit 1, in every
   mode), prints [ok], then runs the bug-injection experiment and
   returns (caught, total). *)
let selftest ~label ~ok cert m b ~instances =
  (try Cert.gate cert m b
   with Cert.Rejected _ as e ->
     Printf.eprintf "%s: %s\n" label (Printexc.to_string e);
     exit 1);
  print_endline ok;
  let results = Cert.experiment cert m b ~instances in
  let caught = List.length (List.filter (fun (_, _, c) -> c) results) in
  Printf.printf "  injected certificate bugs: %d/%d caught\n" caught
    (List.length results);
  List.iter
    (fun (kind, desc, c) ->
      if not c then Printf.eprintf "  MISSED %s: %s\n" kind desc)
    results;
  (caught, List.length results)

(* The Section 5 experiment itself: the kernel's metapool type
   annotations, extracted before instrumentation, against 4 bug kinds
   x 5 instances. *)
let tyck () =
  let v = Ukern.Kbuild.as_tested in
  let config = Ukern.Kbuild.aconfig v in
  let m =
    Sva_pipeline.Pipeline.compile ~name:"ukern-verif" (Ukern.Kbuild.sources v)
  in
  let pa = Sva_analysis.Pointsto.run ~config m in
  let mps =
    Sva_safety.Metapool.infer m pa config.Sva_analysis.Pointsto.allocators
  in
  let an = Sva_tyck.Tyck.extract m pa mps in
  selftest ~label:"ukern"
    ~ok:
      (Printf.sprintf
         "ukern: metapool type annotations OK (%d value qualifiers, %d \
          points-to edges, %d type-homogeneity claims)"
         (Hashtbl.length an.Sva_tyck.Tyck.an_value_mp)
         (Hashtbl.length an.Sva_tyck.Tyck.an_succ)
         (Hashtbl.length an.Sva_tyck.Tyck.an_th))
    (Inject.tyck ~trusted:(Sva_tyck.Tyck.trusted_of_config config))
    m an ~instances:5

let rangecert path =
  let m, _ = load path in
  let pa = Sva_analysis.Pointsto.run m in
  let res = Interval.run m pa in
  Interval.certify_all res m;
  let b = Interval.bundle res in
  let cb, cl = Interval.cert_counts res in
  selftest ~label:path
    ~ok:
      (Printf.sprintf
         "%s: range certificates OK (%d facts, %d bounds + %d lscheck \
          certificates)"
         path (Interval.fact_count res) cb cl)
    (Sva_tyck.Rangecert.cert ~entries:(Interval.entry_config res))
    m b ~instances:3

let atomcert () =
  let v = Ukern.Kbuild.as_tested in
  let m =
    Sva_pipeline.Pipeline.compile ~name:"ukern-atomcert"
      (Ukern.Kbuild.race_fixture_sources v)
  in
  let pa = Sva_analysis.Pointsto.run ~config:(Ukern.Kbuild.aconfig v) m in
  let res = Lockset.run m pa in
  let b = Lockset.bundle res in
  selftest ~label:"ukern+fixture"
    ~ok:
      (Printf.sprintf
         "ukern+fixture: atomicity certificates OK (%d access certificates, \
          %d function claims, %d shared classes)"
         (Lockset.cert_count res) (Lockset.fact_count res)
         (Lockset.shared_count res))
    (Sva_tyck.Atomcert.cert ~entries:(Lockset.entry_config res))
    m b ~instances:3

(* Shared poolcert reporting over a (module, bundle) pair the caller
   built. *)
let poolcert_report label config m b =
  selftest ~label
    ~ok:
      (Printf.sprintf
         "%s: pool-safety certificates OK (%d TH + %d completeness + %d \
          devirt certificates, %d recorded elisions)"
         label
         (List.length b.Poolev.pb_th)
         (List.length b.Poolev.pb_comp)
         (List.length b.Poolev.pb_dv)
         (Poolev.elision_count b))
    (Inject.poolcert ~config) m b ~instances:3

(* --poolcert FILE: certify an arbitrary module under the default
   porting configuration (points-to, metapools, check insertion with
   evidence recording, then the trusted checker). *)
let poolcert_file path =
  let m, _ = load path in
  let config = Sva_analysis.Pointsto.default_config in
  let pa = Sva_analysis.Pointsto.run ~config m in
  let mps =
    Sva_safety.Metapool.infer m pa config.Sva_analysis.Pointsto.allocators
  in
  let b = Poolev.create m pa mps in
  ignore
    (Sva_safety.Checkinsert.run ~poolcert:b m pa mps
       config.Sva_analysis.Pointsto.allocators);
  poolcert_report path config m b

(* --poolcert-selftest: the embedded kernel through the full shipped
   pipeline with certification on — the pipeline gate already enforces
   acceptance; the report re-checks and then injects bugs. *)
let poolcert_selftest () =
  let v = Ukern.Kbuild.as_tested in
  let built = Ukern.Kbuild.build ~poolcert:true v in
  let b =
    match built.Sva_pipeline.Pipeline.bl_poolcert with
    | Some b -> b
    | None -> failwith "poolcert build carried no bundle"
  in
  poolcert_report "ukern" (Ukern.Kbuild.aconfig v)
    built.Sva_pipeline.Pipeline.bl_mod b

(* --cert-selftest FILE: all four trusted checkers, one table.  The
   rows run, and print their detail, in table order. *)
let cert_selftest path =
  let rows =
    List.map
      (fun (name, run) -> (name, run ()))
      [
        ("tyck", tyck);
        ("rangecert", fun () -> rangecert path);
        ("atomcert", atomcert);
        ("poolcert", poolcert_selftest);
      ]
  in
  print_newline ();
  Printf.printf "certificate self-test summary:\n";
  Printf.printf "  %-12s %-12s %s\n" "checker" "injections" "result";
  let ok =
    List.fold_left
      (fun ok (name, (caught, total)) ->
        let pass = caught = total in
        Printf.printf "  %-12s %2d/%-2d        %s\n" name caught total
          (if pass then "PASS" else "FAIL");
        ok && pass)
      true rows
  in
  if not ok then exit 1

let usage () =
  prerr_endline
    "usage: sva_verify FILE | sva_verify --rangecert FILE | sva_verify \
     --range-selftest | sva_verify --atomcert | sva_verify --poolcert \
     [FILE] | sva_verify --poolcert-selftest | sva_verify --cert-selftest \
     FILE";
  exit 2

let exit_if_missed (caught, total) = if caught <> total then exit 1

let () =
  match Sys.argv with
  | [| _; "--range-selftest" |] -> range_selftest ()
  | [| _; "--rangecert"; path |] -> exit_if_missed (rangecert path)
  | [| _; "--atomcert" |] -> exit_if_missed (atomcert ())
  | [| _; "--poolcert" |] | [| _; "--poolcert-selftest" |] ->
      exit_if_missed (poolcert_selftest ())
  | [| _; "--poolcert"; path |] -> exit_if_missed (poolcert_file path)
  | [| _; "--cert-selftest"; path |] -> cert_selftest path
  (* A flag we don't know is an error, not a file name. *)
  | [| _; flag |] when String.length flag > 0 && flag.[0] = '-' ->
      Printf.eprintf "sva_verify: unknown flag '%s'\n" flag;
      usage ()
  | [| _; path |] -> (
      let m, data = load path in
      match m with
      | m -> (
          match Sva_ir.Verify.verify_module m with
          | [] ->
              Printf.printf
                "%s: OK\n  module %s: %d functions, %d globals, %d externs, \
                 %d instructions\n  sha256 %s\n"
                path m.Sva_ir.Irmod.m_name
                (List.length m.Sva_ir.Irmod.m_funcs)
                (List.length m.Sva_ir.Irmod.m_globals)
                (List.length m.Sva_ir.Irmod.m_externs)
                (Sva_ir.Irmod.instr_count m)
                (Sva_bytecode.Sha256.hex data)
          | errs ->
              Printf.eprintf "%s: REJECTED (%d errors)\n" path (List.length errs);
              List.iter
                (fun e ->
                  Printf.eprintf "  %s\n" (Sva_ir.Verify.string_of_error e))
                errs;
              exit 1))
  | _ -> usage ()

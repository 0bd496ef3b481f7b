(* sva-verify: the load-time half of the SVM (Section 3.4).

     sva_verify FILE
     sva_verify --rangecert FILE
     sva_verify --poolcert FILE

   Loads an SVA module (bytecode, or MiniC compiled on the fly), runs
   the IR well-formedness verifier, and reports module statistics.
   Exit code 0 = the module may be translated and executed;
   1 = rejected.

   --rangecert runs the value-range analysis over the module, has the
   trusted checker re-verify every certificate it can emit, and then
   runs the certificate-bug injection experiment: every injected bug
   must be rejected.

   --poolcert does the same for the points-to layer: the module is built
   with pool-safety certification under the default porting
   configuration, the trusted checker re-verifies the membership maps
   and every TH/completeness/devirt certificate and elision record, and
   the pool-certificate bug injection experiment corrupts the bundle in
   every supported way — each corruption must be rejected.

   The kernel's own certificates, and the Section 5 metapool-type
   experiment on it, are gated by the bench sections (bench/main.exe
   verifier, ranges, race, poolcert) and by test_tyck. *)

module Interval = Sva_analysis.Interval
module Pointsto = Sva_analysis.Pointsto
module Cert = Sva_tyck.Cert
module Poolev = Sva_safety.Poolev

let load path =
  Cli.guard ~code:1 path (fun () ->
      let data = In_channel.with_open_bin path In_channel.input_all in
      (Sva_pipeline.Pipeline.load_source ~name:path data, data))

(* Gate the clean evidence through its trusted checker (a rejection is a
   hard failure, exit 1), print [ok], then run the bug-injection
   experiment: exit 1 if any injected bug was missed. *)
let certify ~label ~ok cert m b =
  (try Cert.gate cert m b
   with Cert.Rejected _ as e ->
     Printf.eprintf "%s: %s\n" label (Printexc.to_string e);
     exit 1);
  print_endline ok;
  let results = Cert.experiment cert m b ~instances:3 in
  let caught = List.length (List.filter (fun (_, _, c) -> c) results) in
  Printf.printf "  injected certificate bugs: %d/%d caught\n" caught
    (List.length results);
  List.iter
    (fun (kind, desc, c) ->
      if not c then Printf.eprintf "  MISSED %s: %s\n" kind desc)
    results;
  if caught <> List.length results then exit 1

let rangecert path =
  let m, _ = load path in
  let pa = Pointsto.run m in
  let res = Interval.run m pa in
  Interval.certify_all res m;
  let cb, cl = Interval.cert_counts res in
  certify ~label:path
    ~ok:
      (Printf.sprintf
         "%s: range certificates OK (%d facts, %d bounds + %d lscheck \
          certificates)"
         path (Interval.fact_count res) cb cl)
    (Sva_tyck.Rangecert.cert ~entries:(Interval.entry_config res))
    m (Interval.bundle res)

(* Certify the module under the default porting configuration:
   points-to, metapools, check insertion with evidence recording, then
   the trusted checker. *)
let poolcert path =
  let m, _ = load path in
  let config = Pointsto.default_config in
  let pa = Pointsto.run ~config m in
  let mps = Sva_safety.Metapool.infer m pa config.Pointsto.allocators in
  let b = Poolev.create m pa mps in
  ignore
    (Sva_safety.Checkinsert.run ~poolcert:b m pa mps
       config.Pointsto.allocators);
  certify ~label:path
    ~ok:
      (Printf.sprintf
         "%s: pool-safety certificates OK (%d TH + %d completeness + %d \
          devirt certificates, %d recorded elisions)"
         path
         (List.length b.Poolev.pb_th)
         (List.length b.Poolev.pb_comp)
         (List.length b.Poolev.pb_dv)
         (Poolev.elision_count b))
    (Sva_tyck.Inject.poolcert ~config) m b

let verify path =
  let m, data = load path in
  match Sva_ir.Verify.verify_module m with
  | [] ->
      Printf.printf
        "%s: OK\n  module %s: %d functions, %d globals, %d externs, %d \
         instructions\n  sha256 %s\n"
        path m.Sva_ir.Irmod.m_name
        (List.length m.Sva_ir.Irmod.m_funcs)
        (List.length m.Sva_ir.Irmod.m_globals)
        (List.length m.Sva_ir.Irmod.m_externs)
        (Sva_ir.Irmod.instr_count m)
        (Sva_bytecode.Sha256.hex data)
  | errs ->
      Printf.eprintf "%s: REJECTED (%d errors)\n" path (List.length errs);
      List.iter
        (fun e -> Printf.eprintf "  %s\n" (Sva_ir.Verify.string_of_error e))
        errs;
      exit 1

let usage () =
  prerr_endline
    "usage: sva_verify FILE | sva_verify --rangecert FILE | sva_verify \
     --poolcert FILE";
  exit 2

let () =
  match Sys.argv with
  | [| _; "--rangecert"; path |] -> rangecert path
  | [| _; "--poolcert"; path |] -> poolcert path
  | [| _; ("--rangecert" | "--poolcert") |] -> usage ()
  (* A flag we don't know is an error, not a file name. *)
  | [| _; flag |] when String.length flag > 0 && flag.[0] = '-' ->
      Printf.eprintf "sva_verify: unknown flag '%s'\n" flag;
      usage ()
  | [| _; path |] -> verify path
  | _ -> usage ()

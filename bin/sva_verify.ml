(* sva-verify: the load-time half of the SVM (Section 3.4), and the one
   tool that shows and checks a module file's Section 5 evidence.

     sva_verify FILE
     sva_verify (--ranges | --races | --poolcert) FILE [FUNC]

   Loads an SVA module (bytecode, or MiniC compiled on the fly), runs
   the IR well-formedness verifier, and reports module statistics.
   Exit code 0 = the module may be translated and executed;
   1 = rejected.

   Each evidence mode runs one untrusted analysis over the module under
   the module-file porting configuration and dumps its evidence; with
   FUNC, only that function's facts and certificates.  --ranges dumps
   the value-range analysis: per-function interval fixpoints,
   interprocedural summaries and the in-extent gep certificates.
   --races dumps the concurrency pass: per-function entry protections,
   the lock-order graph, the atomicity certificates and any findings.
   --poolcert dumps the pool-safety evidence bundle: the TH and
   completeness certificates plus every recorded check elision.  The
   trusted checker then re-verifies the whole evidence (a rejection
   exits 1), the analysis summary follows, and the certificate-bug
   injection experiment corrupts the evidence in every supported way:
   each injected bug must be rejected (a missed one exits 1).

   The kernel's own certificates, and the Section 5 metapool-type
   experiment on it, are gated by the bench sections (bench/main.exe
   verifier, ranges, race, poolcert) and by test_tyck. *)

module Interval = Sva_analysis.Interval
module Lockset = Sva_analysis.Lockset
module Pointsto = Sva_analysis.Pointsto
module Cert = Sva_tyck.Cert
module Poolev = Sva_safety.Poolev

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

let ranges path m pa wanted =
  let res = Interval.run m pa in
  Interval.certify_all res m;
  let b = Interval.bundle res in
  List.iter
    (fun fn ->
      if wanted fn then begin
        Printf.printf "== ranges @%s ==\n" fn;
        (match Interval.func_summary res fn with
        | Some (ps, ret) ->
            Printf.printf "  summary: (%s) -> %s\n"
              (String.concat ", "
                 (Array.to_list (Array.map Interval.ival_to_string ps)))
              (Interval.ival_to_string ret)
        | None -> ());
        List.iter
          (fun (r, iv) ->
            Printf.printf "  %%%d : %s\n" r (Interval.ival_to_string iv))
          (Interval.plain_facts res ~fname:fn)
      end)
    (Interval.analyzed_funcs res);
  print_endline "\n== range certificates ==";
  List.iter
    (fun (c : Interval.cert) ->
      if wanted c.Interval.ce_func then begin
        Printf.printf "  @%s %s: gep %%%d in %s [%s]\n" c.Interval.ce_func
          c.Interval.ce_block c.Interval.ce_gep
          (Interval.cert_kind_to_string c.Interval.ce_kind)
          (String.concat "; "
             (List.map
                (fun (pos, fi) ->
                  match Hashtbl.find_opt b.Interval.cb_facts c.Interval.ce_func with
                  | Some facts when fi >= 0 && fi < Array.length facts ->
                      let fa = facts.(fi) in
                      Printf.sprintf "op%d: %%%d %s via %s" pos
                        fa.Interval.fa_reg
                        (Interval.ival_to_string fa.Interval.fa_ival)
                        (Interval.just_to_string fa.Interval.fa_just)
                  | _ -> Printf.sprintf "op%d: fact #%d" pos fi)
                c.Interval.ce_idx))
      end)
    b.Interval.cb_certs;
  let cb, cl = Interval.cert_counts res in
  certify ~label:path
    ~ok:
      (Printf.sprintf
         "\nrange analysis: %d facts, %d bounds + %d lscheck certificates, \
          all re-verified by the trusted checker"
         (Interval.fact_count res) cb cl)
    (Sva_tyck.Rangecert.cert ~entries:(Interval.entry_config res))
    m b

let races path m pa wanted =
  let res = Lockset.run m pa in
  print_endline "== entry protection ==";
  List.iter
    (fun (f : Sva_ir.Func.t) ->
      let fn = f.Sva_ir.Func.f_name in
      if wanted fn then
        match Lockset.entry_config res fn with
        | Some p -> Printf.printf "  @%s : %s\n" fn (Lockset.prot_to_string p)
        | None -> ())
    m.Sva_ir.Irmod.m_funcs;
  print_endline "\n== lock-order graph ==";
  List.iter
    (fun (l1, l2) -> Printf.printf "  %s -> %s\n" l1 l2)
    (Lockset.lock_edges res);
  print_endline "\n== atomicity certificates ==";
  let b = Lockset.bundle res in
  List.iter
    (fun (c : Lockset.acert) ->
      if wanted c.Lockset.ac_func then
        Printf.printf "  @%s %%%d: %s under %s\n" c.Lockset.ac_func
          c.Lockset.ac_instr c.Lockset.ac_global
          (Lockset.prot_to_string c.Lockset.ac_prot))
    b.Lockset.cb_acerts;
  List.iter
    (fun f -> Printf.printf "\n%s\n" (Lockset.render_finding f))
    (Lockset.findings res);
  certify ~label:path
    ~ok:
      (Printf.sprintf
         "\nconcurrency analysis: %d shared classes, %d accesses, %d \
          certificates, all re-verified by the trusted checker"
         (Lockset.shared_count res) (Lockset.access_count res)
         (Lockset.cert_count res))
    (Sva_tyck.Atomcert.cert ~entries:(Lockset.entry_config res))
    m b

(* Points-to, metapools, then check insertion with evidence recording. *)
let poolcert path m pa wanted =
  let config = Cli.file_aconfig in
  let mps = Sva_safety.Metapool.infer m pa config.Pointsto.allocators in
  let b = Poolev.create m pa mps in
  ignore
    (Sva_safety.Checkinsert.run ~poolcert:b m pa mps
       config.Pointsto.allocators);
  let site_str (s : Poolev.site) =
    Printf.sprintf "@%s %%%d" s.Poolev.s_func s.Poolev.s_instr
  in
  print_endline "== type-homogeneity certificates ==";
  List.iter
    (fun (c : Poolev.th_cert) ->
      Printf.printf "  MP%d : %s (%d member sites)\n" c.Poolev.tc_mp
        (Sva_ir.Ty.to_string c.Poolev.tc_ty)
        (List.length c.Poolev.tc_members))
    b.Poolev.pb_th;
  print_endline "\n== completeness certificates ==";
  List.iter
    (fun (c : Poolev.comp_cert) ->
      Printf.printf "  MP%d : %s%s\n" c.Poolev.cc_mp
        (if c.Poolev.cc_complete then "complete" else "incomplete")
        (match c.Poolev.cc_frontier with
        | [] -> ""
        | fr ->
            " ["
            ^ String.concat "; " (List.map site_str fr)
            ^ "]"))
    b.Poolev.pb_comp;
  print_endline "\n== recorded elisions ==";
  List.iter
    (fun (e : Poolev.elision) ->
      match e with
      | Poolev.El_th (s, mp) when wanted s.Poolev.s_func ->
          Printf.printf "  %s : lscheck elided (MP%d type-homogeneous)\n"
            (site_str s) mp
      | Poolev.El_reduced (s, mp) when wanted s.Poolev.s_func ->
          Printf.printf "  %s : lscheck reduced (MP%d incomplete)\n"
            (site_str s) mp
      | Poolev.El_func (s, mp, j) when wanted s.Poolev.s_func ->
          Printf.printf "  %s : funccheck elided (MP%d %s)\n" (site_str s)
            mp
            (match j with
            | Poolev.Fc_th -> "type-homogeneous"
            | Poolev.Fc_incomplete -> "incomplete")
      | _ -> ())
    b.Poolev.pb_elisions;
  certify ~label:path
    ~ok:
      (Printf.sprintf
         "\npool-safety evidence: %d certificates, %d recorded elisions, \
          all re-verified by the trusted checker"
         (Poolev.cert_count b) (Poolev.elision_count b))
    (Sva_tyck.Inject.poolcert ~config) m b

let verify path =
  let m, data =
    Cli.guard ~code:1 path (fun () ->
        let data = In_channel.with_open_bin path In_channel.input_all in
        (Sva_pipeline.Pipeline.load_source ~name:path data, data))
  in
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

let modes =
  [ ("--ranges", ranges); ("--races", races); ("--poolcert", poolcert) ]

let usage =
  "usage: sva_verify FILE | sva_verify (--ranges | --races | --poolcert) \
   FILE [FUNC]"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ path ] when not (Cli.is_flag path) -> verify path
  | mode :: args when List.mem_assoc mode modes ->
      let path, m, func = Cli.module_func ~usage args in
      let wanted fn = Option.fold ~none:true ~some:(String.equal fn) func in
      List.assoc mode modes path m
        (Pointsto.run ~config:Cli.file_aconfig m)
        wanted
  | _ ->
      prerr_endline usage;
      exit 2

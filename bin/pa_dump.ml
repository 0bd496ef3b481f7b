(* pa-dump: run the safety-checking compiler's analysis on a MiniC (or
   SVA bytecode) file and dump the points-to graph, metapool assignment
   and instrumented IR — the Figure 2 view for arbitrary input.

     pa_dump FILE [FUNC]
     pa_dump --ranges FILE [FUNC]
     pa_dump --races FILE [FUNC]
     pa_dump --poolcert FILE [FUNC]

   With FUNC, only that function's IR (or range/lockset/certificate
   facts) is printed (the whole graph is always printed).  --ranges
   dumps the value-range analysis instead: per-function interval
   fixpoints, interprocedural summaries and the in-extent gep
   certificates, re-verified by the trusted checker.  --races dumps the
   concurrency pass: per-function entry protections, the lock-order
   graph, the atomicity certificates (re-verified by the trusted
   checker) and any findings.  --poolcert dumps the pool-safety
   evidence bundle: the TH, completeness and devirtualization
   certificates plus every recorded check elision, and the trusted
   checker's verdict over the whole bundle. *)

module Pointsto = Sva_analysis.Pointsto
module Interval = Sva_analysis.Interval
module Lockset = Sva_analysis.Lockset

let dump_ranges m config func =
  let pa = Pointsto.run ~config m in
  let res = Interval.run m pa in
  Interval.certify_all res m;
  let b = Interval.bundle res in
  let wanted fn = match func with Some f -> f = fn | None -> true in
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
  (match
     Sva_tyck.Rangecert.check ~entries:(Interval.entry_config res) m b
   with
  | [] ->
      Printf.printf
        "\nrange analysis: %d facts, %d bounds + %d lscheck certificates, \
         all re-verified by the trusted checker\n"
        (Interval.fact_count res) cb cl
  | errs ->
      Printf.printf "\nrange certificates REJECTED:\n";
      List.iter
        (fun e ->
          Printf.printf "  %s\n" (Sva_tyck.Cert.string_of_error e))
        errs;
      exit 1)

let dump_races m config func =
  let pa = Pointsto.run ~config m in
  let res = Lockset.run m pa in
  let wanted fn = match func with Some f -> f = fn | None -> true in
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
  match Sva_tyck.Atomcert.check ~entries:(Lockset.entry_config res) m b with
  | [] ->
      Printf.printf
        "\nconcurrency analysis: %d shared classes, %d accesses, %d \
         certificates, all re-verified by the trusted checker\n"
        (Lockset.shared_count res) (Lockset.access_count res)
        (Lockset.cert_count res)
  | errs ->
      Printf.printf "\natomicity certificates REJECTED:\n";
      List.iter
        (fun e -> Printf.printf "  %s\n" (Sva_tyck.Cert.string_of_error e))
        errs;
      exit 1

let dump_poolcert m config func =
  let module Poolev = Sva_safety.Poolev in
  let pa = Pointsto.run ~config m in
  let mps =
    Sva_safety.Metapool.infer m pa config.Pointsto.allocators
  in
  let b = Poolev.create m pa mps in
  ignore
    (Sva_safety.Checkinsert.run ~poolcert:b m pa mps
       config.Pointsto.allocators);
  let wanted fn = match func with Some f -> f = fn | None -> true in
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
  print_endline "\n== devirtualization certificates ==";
  List.iter
    (fun (c : Poolev.dv_cert) ->
      if wanted c.Poolev.dc_func then
        Printf.printf "  @%s %%%d MP%d -> {%s}\n" c.Poolev.dc_func
          c.Poolev.dc_instr c.Poolev.dc_mp
          (String.concat ", " c.Poolev.dc_targets))
    b.Poolev.pb_dv;
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
  match Sva_tyck.Poolcert.check ~config m b with
  | [] ->
      Printf.printf
        "\npool-safety evidence: %d certificates, %d recorded elisions, \
         all re-verified by the trusted checker\n"
        (Poolev.cert_count b) (Poolev.elision_count b)
  | errs ->
      Printf.printf "\npool-safety certificates REJECTED:\n";
      List.iter
        (fun e -> Printf.printf "  %s\n" (Sva_tyck.Cert.string_of_error e))
        errs;
      exit 1

let () =
  let mode, file, func =
    match Sys.argv with
    | [| _; "--ranges"; f |] -> (`Ranges, f, None)
    | [| _; "--ranges"; f; fn |] -> (`Ranges, f, Some fn)
    | [| _; "--races"; f |] -> (`Races, f, None)
    | [| _; "--races"; f; fn |] -> (`Races, f, Some fn)
    | [| _; "--poolcert"; f |] -> (`Poolcert, f, None)
    | [| _; "--poolcert"; f; fn |] -> (`Poolcert, f, Some fn)
    | [| _; f |] -> (`Pa, f, None)
    | [| _; f; fn |] -> (`Pa, f, Some fn)
    | _ ->
        prerr_endline
          "usage: pa_dump [--ranges | --races | --poolcert] FILE [FUNC]";
        exit 2
  in
  let m = Cli.load ~code:1 file in
  let config = Cli.file_aconfig in
  (match mode with
  | `Ranges ->
      dump_ranges m config func;
      exit 0
  | `Races ->
      dump_races m config func;
      exit 0
  | `Poolcert ->
      dump_poolcert m config func;
      exit 0
  | `Pa -> ());
  let pa = Pointsto.run ~config m in
  let mps = Sva_safety.Metapool.infer m pa [] in
  print_endline "== points-to graph ==";
  print_string (Pointsto.dump pa);
  print_endline "\n== metapools ==";
  print_endline (Sva_safety.Metapool.to_string mps);
  let summary = Sva_safety.Checkinsert.run m pa mps [] in
  Printf.printf
    "\n== instrumentation ==\nls=%d bounds=%d (static-safe=%d) funcchecks=%d \
     regs=%d drops=%d promoted=%d\n\n"
    summary.Sva_safety.Checkinsert.ls_inserted
    summary.Sva_safety.Checkinsert.bounds_inserted
    summary.Sva_safety.Checkinsert.bounds_static
    summary.Sva_safety.Checkinsert.funcchecks_inserted
    summary.Sva_safety.Checkinsert.regs_inserted
    summary.Sva_safety.Checkinsert.drops_inserted
    summary.Sva_safety.Checkinsert.stack_promoted;
  match func with
  | Some fn -> (
      match Sva_ir.Irmod.find_func m fn with
      | Some f -> print_string (Sva_ir.Pp.string_of_func f)
      | None -> Printf.eprintf "no function @%s\n" fn)
  | None -> print_string (Sva_ir.Pp.string_of_module m)

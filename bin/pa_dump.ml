(* pa-dump: run the safety-checking compiler's analysis on a MiniC (or
   SVA bytecode) file and dump the points-to graph, metapool assignment
   and instrumented IR — the Figure 2 view for arbitrary input.

     pa_dump FILE [FUNC]

   With FUNC, only that function's IR is printed (the whole graph is
   always printed).  The module's Section 5 evidence (value ranges,
   atomicity and pool-safety certificates) is shown and checked by
   sva_verify --ranges|--races|--poolcert. *)

module Pointsto = Sva_analysis.Pointsto

let () =
  let _, m, func =
    Cli.module_func ~usage:"usage: pa_dump FILE [FUNC]"
      (List.tl (Array.to_list Sys.argv))
  in
  let pa = Pointsto.run ~config:Cli.file_aconfig m in
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
  | Some fn ->
      print_string
        (Sva_ir.Pp.string_of_func (Option.get (Sva_ir.Irmod.find_func m fn)))
  | None -> print_string (Sva_ir.Pp.string_of_module m)

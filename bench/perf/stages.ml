(* A staged replay of [Pipeline.build] and [Pipeline.instantiate] for the
   benchmark image ([Kbuild.build ~conf:Sva_safe ~lint ~ranges ~races
   ~poolcert as_tested]): the same public stage calls in the same order,
   each inside its own span, so the traced run can attribute build and
   boot time to layers.  The traced run checks that the replay's bytecode
   equals [Kbuild.build]'s, so the replay cannot drift from the pipeline.

   Left out on purpose: the build-time [Stats] and [Trace] bookkeeping
   the pipeline does after each certificate check.  It is observation
   only and changes neither the module nor the booted kernel. *)

open Sva_ir
open Sva_analysis
open Sva_safety
module Pipeline = Sva_pipeline.Pipeline
module Kbuild = Ukern.Kbuild
module Boot = Ukern.Boot
module Interp = Sva_interp.Interp

let span = Span.with_span
let variant = Kbuild.as_tested

let gate what = function
  | [] -> ()
  | _ :: _ -> failwith (what ^ " certificate checking failed in the replay")

type build_counts = {
  ir_instrs : int;  (** instructions straight out of the front end *)
  instrs_after : int;  (** after the LLVM-like pass pipeline *)
}

let build () =
  let aconfig = Kbuild.aconfig variant in
  let name = "ukern-" ^ variant.Kbuild.v_name in
  let m =
    span "minic.lower" (fun () ->
        Minic.Lower.compile_strings ~name (Kbuild.sources variant))
  in
  let ir_instrs = Irmod.instr_count m in
  span "ir.passes" (fun () -> Passes.run Passes.Llvm_like m);
  let instrs_after = Irmod.instr_count m in
  let pa = span "analysis.pointsto" (fun () -> Pointsto.run ~config:aconfig m) in
  let mps =
    span "safety.metapool" (fun () ->
        Metapool.infer m pa aconfig.Pointsto.allocators)
  in
  let annot =
    span "tyck.check" (fun () ->
        let an = Sva_tyck.Tyck.extract m pa mps in
        gate "metapool type"
          (Sva_tyck.Tyck.check ~trusted:(Sva_tyck.Tyck.trusted_of_config aconfig) m an);
        an)
  in
  let pb = span "safety.poolev" (fun () -> Poolev.create m pa mps) in
  let rr = span "analysis.interval" (fun () -> Interval.run m pa) in
  let oracle kind ~fname i = Interval.elide rr ~fname i kind in
  let lint =
    span "lint.run" (fun () ->
        Sva_lint.Lint.run ~config:(Kbuild.lint_config variant)
          ~ranges:(oracle Interval.Cls) m pa)
  in
  let summary =
    span "safety.checkinsert" (fun () ->
        Checkinsert.run ~options:Checkinsert.default_options
          ~proofs:(fun ~fname id -> Sva_lint.Lint.proved_safe lint ~fname id)
          ~ranges:(oracle Interval.Cbounds) ~poolcert:pb m pa mps
          aconfig.Pointsto.allocators)
  in
  span "tyck.rangecert" (fun () ->
      gate "range"
        (Sva_tyck.Rangecert.check ~entries:(Interval.entry_config rr) m
           (Interval.bundle rr)));
  span "tyck.poolcert" (fun () ->
      gate "pool-safety" (Sva_tyck.Poolcert.check ~config:aconfig m pb));
  let races = span "analysis.lockset" (fun () -> Lockset.run m pa) in
  span "tyck.atomcert" (fun () ->
      gate "atomicity"
        (Sva_tyck.Atomcert.check ~entries:(Lockset.entry_config races) m
           (Lockset.bundle races)));
  let built =
    {
      Pipeline.bl_name = name;
      bl_conf = Pipeline.Sva_safe;
      bl_mod = m;
      bl_pa = Some pa;
      bl_mps = Some mps;
      bl_summary = Some summary;
      bl_aconfig = aconfig;
      bl_annot = Some annot;
      bl_cloned = 0;
      bl_devirt = 0;
      bl_checkopt = None;
      bl_lint = Some lint;
      bl_ranges = Some rr;
      bl_races = Some races;
      bl_poolcert = Some pb;
    }
  in
  (built, { ir_instrs; instrs_after })

(* MiB allocated on the OCaml heap by [f]. *)
let alloc_mb f =
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. a0) /. 1048576.)

type boot_counts = {
  create_mb : float;  (** MiB allocated creating the machine *)
  kmain_cycles : int;  (** modeled cycles of [kmain] alone *)
}

(* [Pipeline.instantiate] then [kmain], as [Boot.boot_built] does. *)
let boot ~(engine : Pipeline.engine_config) (built : Pipeline.built) =
  let sys, create_mb =
    span "svaos.create" (fun () ->
        alloc_mb (fun () ->
            Sva_os.Svaos.create ~mode:Sva_os.Svaos.Sva_mediated ~ncpus:1 ()))
  in
  let metapools =
    match built.Pipeline.bl_mps with
    | None -> []
    | Some mps ->
        span "safety.runtime_pools" (fun () ->
            Checkinsert.runtime_pools ~smp:(Sva_os.Svaos.smpctx sys)
              ~user_range:(Sva_hw.Machine.user_base, Sva_hw.Machine.user_size)
              mps)
  in
  let vm =
    span "interp.load" (fun () ->
        Interp.load ~sys ~metapools built.Pipeline.bl_mod)
  in
  (match engine.Pipeline.eng_tcache_dir with
  | Some _ as d -> Sva_interp.Tcache_disk.set_dir d
  | None -> ());
  (match engine.Pipeline.eng_kind with
  | Pipeline.Interp -> ()
  | Pipeline.Tiered -> invalid_arg "Stages.boot: no benchmark workload runs tiered"
  | Pipeline.Aot ->
      span "interp.compile_all" (fun () ->
          Sva_interp.Closcomp.enable ~threshold:1 vm;
          Sva_interp.Closcomp.compile_all vm));
  if Irmod.find_func built.Pipeline.bl_mod "__sva_register_globals" <> None then
    span "interp.globals" (fun () ->
        ignore (Interp.call vm "__sva_register_globals" []));
  let c0 = Interp.cycles vm in
  span "ukern.kmain" (fun () ->
      match Interp.call vm "kmain" [] with
      | Some _ -> ()
      | None -> raise (Boot.Boot_failure "kmain returned void")
      | exception e -> raise (Boot.Boot_failure (Printexc.to_string e)));
  ( { Boot.built; vm; sys; variant; signal_fired = [] },
    { create_mb; kmain_cycles = Interp.cycles vm - c0 } )

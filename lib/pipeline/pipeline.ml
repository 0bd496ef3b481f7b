open Sva_ir
open Sva_analysis
open Sva_safety

type conf = Native | Sva_gcc | Sva_llvm | Sva_safe

let conf_name = function
  | Native -> "Linux-native"
  | Sva_gcc -> "Linux-SVA-GCC"
  | Sva_llvm -> "Linux-SVA-LLVM"
  | Sva_safe -> "Linux-SVA-Safe"

let conf_of_string = function
  | "native" -> Some Native
  | "gcc" -> Some Sva_gcc
  | "llvm" -> Some Sva_llvm
  | "safe" -> Some Sva_safe
  | _ -> None

let all_confs = [ Native; Sva_gcc; Sva_llvm; Sva_safe ]

(* ---------- execution engine selection ---------- *)

type engine = Interp | Tiered | Aot

type engine_config = {
  eng_kind : engine;
  eng_tcache_dir : string option;
}

let default_engine = { eng_kind = Interp; eng_tcache_dir = None }
let aot_engine = { default_engine with eng_kind = Aot }

let engine_name = function
  | Interp -> "interp"
  | Tiered -> "tiered"
  | Aot -> "aot"

let engine_of_string = function
  | "interp" -> Some Interp
  | "aot" -> Some Aot
  | _ -> None

(* ---------- simulated-SMP selection ---------- *)

type smp_config = {
  smp_cpus : int;  (* modeled CPUs, 1..Machine.max_cpus *)
  smp_seed : int;  (* scheduler interleaving seed *)
}

let default_smp = { smp_cpus = 1; smp_seed = 1 }

type built = {
  bl_name : string;
  bl_conf : conf;
  bl_mod : Irmod.t;
  bl_pa : Pointsto.result option;
  bl_mps : Metapool.t option;
  bl_summary : Checkinsert.summary option;
  bl_aconfig : Pointsto.config;
  bl_annot : Sva_tyck.Tyck.annot option;
  bl_cloned : int;
  bl_devirt : int;
  bl_checkopt : unit option;
  bl_lint : Sva_lint.Lint.result option;
  bl_ranges : Interval.result option;
  bl_races : Lockset.result option;
  bl_poolcert : Poolev.bundle option;
}

(* ---------- module loading ---------- *)

let compile ?(pipeline = Passes.Llvm_like) ~name sources =
  let m = Minic.Lower.compile_strings ~name sources in
  Passes.run pipeline m;
  m

let is_bytecode data =
  let magic = Sva_bytecode.Codec.magic in
  String.length data >= String.length magic
  && String.sub data 0 (String.length magic) = magic

let load_source ~name data =
  if is_bytecode data then Sva_bytecode.Codec.decode data
  else compile ~name [ data ]

let load_file path =
  load_source
    ~name:(Filename.basename path)
    (In_channel.with_open_bin path In_channel.input_all)

let load_error file = function
  | Sva_bytecode.Codec.Decode_error msg ->
      Some (Printf.sprintf "%s: undecodable bytecode: %s" file msg)
  | Minic.Parser.Parse_error (msg, loc) ->
      Some
        (Printf.sprintf "%s:%d:%d: parse error: %s" file loc.Minic.Token.line
           loc.Minic.Token.col msg)
  | Minic.Lexer.Lex_error (msg, loc) ->
      Some
        (Printf.sprintf "%s:%d:%d: lex error: %s" file loc.Minic.Token.line
           loc.Minic.Token.col msg)
  | Minic.Lower.Lower_error msg -> Some (Printf.sprintf "%s: error: %s" file msg)
  | Sva_tyck.Cert.Rejected (what, errs) ->
      let first, more =
        match errs with
        | [] -> ("", "")
        | e :: rest ->
            ( ": " ^ Sva_tyck.Cert.string_of_error e,
              if rest = [] then ""
              else Printf.sprintf " (%d more)" (List.length rest) )
      in
      Some (Printf.sprintf "%s: %s checking failed%s%s" file what first more)
  | Sys_error msg ->
      (* A failed open already names the file; a failed read does not. *)
      let prefix = file ^ ": " in
      Some (if String.starts_with ~prefix msg then msg else prefix ^ msg)
  | _ -> None

(* ---------- building ---------- *)

(* Loads/stores whose lint proof needed a range fact. *)
let range_ls_elided = function
  | Some r -> r.Sva_lint.Lint.lr_range_geps
  | None -> 0

let build_module ?(conf = Sva_safe) ?(aconfig = Pointsto.default_config)
    ?(options = Checkinsert.default_options) ?(clone = false)
    ?(devirt = false) ?lint ?(ranges = false)
    ?(races = false) ?(poolcert = false) ~name m =
  match conf with
  | Native | Sva_gcc | Sva_llvm ->
      {
        bl_name = name;
        bl_conf = conf;
        bl_mod = m;
        bl_pa = None;
        bl_mps = None;
        bl_summary = None;
        bl_aconfig = aconfig;
        bl_annot = None;
        bl_cloned = 0;
        bl_devirt = 0;
        bl_checkopt = None;
        bl_lint = None;
        bl_ranges = None;
        bl_races = None;
        bl_poolcert = None;
      }
  | Sva_safe ->
      let cloned = if clone then Clone.run m else 0 in
      let pa = Pointsto.run ~config:aconfig m in
      let mps = Metapool.infer m pa aconfig.Pointsto.allocators in
      (* Section 5: encode the analysis as metapool type annotations and
         run the (simple, intraprocedural, trusted) checker before any
         instrumentation is emitted.  A trusted checker that rejects
         anything, here or below, fails the build. *)
      let annot = Sva_tyck.Tyck.extract m pa mps in
      Sva_tyck.Cert.gate
        (Sva_tyck.Inject.tyck
           ~trusted:(Sva_tyck.Tyck.trusted_of_config aconfig))
        m annot;
      (* Pool-safety evidence (Section 5 applied to the points-to layer):
         distill the analysis into an explicit certificate bundle before
         anything consumes it, so devirtualization and check insertion
         can append their dv-cert / elision records as they go.  Bundle
         construction and recording are pure observation — the built
         module is bit-identical with and without certification. *)
      let pbundle =
        if poolcert then Some (Poolev.create m pa mps) else None
      in
      let devirted =
        if devirt then Devirt.run ?poolcert:pbundle m pa else 0
      in
      (* Value-range abstract interpretation (untrusted): runs on the
         final pre-instrumentation IR; every elision it grants below is
         recorded as a certificate and re-verified by the trusted
         checker after instrumentation. *)
      let rres = if ranges then Some (Interval.run m pa) else None in
      (* The static lint layer runs on the analyzed, still-uninstrumented
         module; its safe-access proofs feed check insertion below. *)
      let range_oracle kind =
        match rres with
        | Some rr -> fun ~fname i -> Interval.elide rr ~fname i kind
        | None -> fun ~fname:_ _ -> false
      in
      let lint_res =
        Option.map
          (fun config ->
            Sva_lint.Lint.run ~config ~ranges:(range_oracle Interval.Cls) m pa)
          lint
      in
      let proofs =
        match lint_res with
        | Some r -> fun ~fname id -> Sva_lint.Lint.proved_safe r ~fname id
        | None -> fun ~fname:_ _ -> false
      in
      let summary =
        Checkinsert.run ~options ~proofs
          ~ranges:(range_oracle Interval.Cbounds) ?poolcert:pbundle m pa mps
          aconfig.Pointsto.allocators
      in
      (* Section 5 gate for the range pipeline: the trusted checker must
         accept every certificate behind an elision actually taken, or
         the build is rejected as a compiler bug. *)
      (match rres with
      | None -> ()
      | Some rr ->
          Sva_tyck.Cert.gate
            (Sva_tyck.Rangecert.cert ~entries:(Interval.entry_config rr))
            m (Interval.bundle rr);
          if !Sva_rt.Trace.active then begin
            Sva_rt.Trace.emit_range_elide ~what:"bounds"
              ~count:summary.Checkinsert.bounds_static_range;
            Sva_rt.Trace.emit_range_elide ~what:"ls"
              ~count:(range_ls_elided lint_res)
          end);
      (* Section 5 gate for the pool-safety pipeline: the trusted checker
         re-verifies every membership fact, TH/completeness/devirt
         certificate and elision record against the instrumented module,
         or the build is rejected as a compiler bug. *)
      Option.iter
        (Sva_tyck.Cert.gate (Sva_tyck.Inject.poolcert ~config:aconfig) m)
        pbundle;
      (* Concurrency-safety pass (untrusted): the interprocedural lockset
         analysis classifies interrupt/syscall-shared state and certifies
         every protected access; the trusted atomicity checker must accept
         the whole certificate bundle or the build is rejected.  Runs on
         the instrumented module — the inserted check intrinsics are
         identity for the protection lattice. *)
      let races_res =
        if not races then None
        else begin
          let rr = Lockset.run m pa in
          Sva_tyck.Cert.gate
            (Sva_tyck.Atomcert.cert ~entries:(Lockset.entry_config rr))
            m (Lockset.bundle rr);
          Some rr
        end
      in
      {
        bl_name = name;
        bl_conf = conf;
        bl_mod = m;
        bl_pa = Some pa;
        bl_mps = Some mps;
        bl_summary = Some summary;
        bl_aconfig = aconfig;
        bl_annot = Some annot;
        bl_cloned = cloned;
        bl_devirt = devirted;
        bl_checkopt = None;
        bl_lint = lint_res;
        bl_ranges = rres;
        bl_races = races_res;
        bl_poolcert = pbundle;
      }

let build ?conf ?aconfig ?options ?clone ?devirt ?lint ?ranges ?races
    ?poolcert ~name sources =
  let pipeline =
    match conf with
    | Some Native | Some Sva_gcc -> Passes.Gcc_like
    | Some Sva_llvm | Some Sva_safe | None -> Passes.Llvm_like
  in
  let m = compile ~pipeline ~name sources in
  build_module ?conf ?aconfig ?options ?clone ?devirt ?lint ?ranges ?races
    ?poolcert ~name m

(* ---------- build-time certification counts ---------- *)

let range_counts b =
  let bounds, facts, certs =
    match (b.bl_ranges, b.bl_summary) with
    | Some rr, Some s ->
        let cb, cl = Interval.cert_counts rr in
        (s.Checkinsert.bounds_static_range, Interval.fact_count rr, cb + cl)
    | _ -> (0, 0, 0)
  in
  Printf.sprintf "range-elided bounds=%d ls=%d facts=%d certs-verified=%d"
    bounds (range_ls_elided b.bl_lint) facts certs

(* An image exists only if the gate accepted its bundle, so every
   certificate in it was verified and none rejected. *)
let poolcert_counts b =
  let certs, elisions =
    match b.bl_poolcert with
    | Some pb -> (Poolev.cert_count pb, Poolev.elision_count pb)
    | None -> (0, 0)
  in
  Printf.sprintf "pool-certs emitted=%d verified=%d rejected=0 elisions=%d"
    certs certs elisions

let instantiate ?sys ?(engine = default_engine) ?(smp = default_smp) built =
  let mode =
    match built.bl_conf with
    | Native -> Sva_os.Svaos.Native_inline
    | Sva_gcc | Sva_llvm | Sva_safe -> Sva_os.Svaos.Sva_mediated
  in
  let sys =
    match sys with
    | Some s ->
        Sva_os.Svaos.set_mode s mode;
        s
    | None -> Sva_os.Svaos.create ~mode ~ncpus:smp.smp_cpus ()
  in
  let metapools =
    match built.bl_mps with
    | Some mps ->
        (* The pools' cache shards follow this instance's CPU context, so
           a check on CPU k consults CPU k's shard. *)
        Checkinsert.runtime_pools ~smp:(Sva_os.Svaos.smpctx sys)
          ~user_range:(Sva_hw.Machine.user_base, Sva_hw.Machine.user_size)
          mps
    | None -> []
  in
  let t = Sva_interp.Interp.load ~sys ~metapools built.bl_mod in
  (* Persistent translation store: installed only when the caller asked
     for one, so a test-installed directory survives instantiations that
     don't mention it. *)
  (match engine.eng_tcache_dir with
  | Some _ as d -> Sva_interp.Tcache_disk.set_dir d
  | None -> ());
  (* AOT closure-compiles the whole kernel before any code runs, the
     boot-time registration pass included; the installed translator
     compiles a function linked later on its first entry.  Against a
     populated persistent store this is pure verified reuse, so a second
     process boots hot. *)
  (match engine.eng_kind with
  | Interp -> ()
  | Tiered -> invalid_arg "Pipeline.instantiate: the tiered engine was deleted"
  | Aot ->
      Sva_interp.Closcomp.enable t;
      Sva_interp.Closcomp.compile_all t);
  (* SVM boot step: register every global object in its metapool before
     control first enters the program. *)
  if Irmod.find_func built.bl_mod "__sva_register_globals" <> None then
    ignore (Sva_interp.Interp.call t "__sva_register_globals" []);
  t

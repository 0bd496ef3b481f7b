(** The end-to-end SVA compilation pipeline.

    Models the four kernel configurations measured in Section 7.1:

    - {!conf.Native} — original kernel, GCC: no SVA-OS mediation, no
      checks, simple optimizer;
    - {!conf.Sva_gcc} — the SVA-ported kernel compiled with GCC: SVA-OS
      mediation, no checks, simple optimizer;
    - {!conf.Sva_llvm} — ported kernel through the LLVM-like pipeline;
    - {!conf.Sva_safe} — plus the safety-checking compiler: points-to
      analysis, metapool inference, run-time check insertion.

    The same MiniC sources build under every configuration; only the
    pass set and the SVA-OS execution mode differ. *)

open Sva_ir
open Sva_analysis
open Sva_safety

type conf = Native | Sva_gcc | Sva_llvm | Sva_safe

val conf_name : conf -> string

val conf_of_string : string -> conf option
(** The command-line short names: [native], [gcc], [llvm], [safe]. *)

val all_confs : conf list

(** {1 Execution engine selection}

    The SVM runs bytecode on one of two engines (Section 3.4): the
    pre-decoded interpreter, which is the oracle, or whole-kernel AOT,
    which closure-compiles every function at instantiate time through a
    signed translation cache ({!Sva_interp.Closcomp}), so a populated
    persistent store ({!Sva_interp.Tcache_disk}) lets a second process
    boot hot with zero re-translations.  The engines are semantically
    identical — same results, traps, check statistics and modeled
    cycles; only host wall-clock time differs. *)

type engine =
  | Interp
  | Tiered
      (** Deleted; kept only because [bench/perf] still matches it.
          {!engine_of_string} never returns it and {!instantiate} raises
          [Invalid_argument] on it. *)
  | Aot

type engine_config = {
  eng_kind : engine;
  eng_tcache_dir : string option;
      (** persistent signed translation store directory; [None] keeps
          the cache in-memory only *)
}

val default_engine : engine_config  (** [Interp] *)

val aot_engine : engine_config
(** [Aot]: whole-kernel compile at instantiate, no warmup. *)

val engine_name : engine -> string

val engine_of_string : string -> engine option
(** [interp] or [aot]. *)

(** {1 Simulated-SMP selection} *)

type smp_config = {
  smp_cpus : int;  (** modeled CPUs, 1..[Sva_hw.Machine.max_cpus] *)
  smp_seed : int;  (** deterministic scheduler-interleaving seed *)
}

val default_smp : smp_config
(** One CPU, seed 1 — bit-identical to the pre-SMP pipeline. *)

type built = {
  bl_name : string;
  bl_conf : conf;
  bl_mod : Irmod.t;
  bl_pa : Pointsto.result option;  (** present for [Sva_safe] *)
  bl_mps : Metapool.t option;
  bl_summary : Checkinsert.summary option;
  bl_aconfig : Pointsto.config;
  bl_annot : Sva_tyck.Tyck.annot option;
      (** the metapool type annotations, validated by the trusted checker
          before check insertion (Section 5) *)
  bl_cloned : int;  (** functions cloned (Section 4.8), when enabled *)
  bl_devirt : int;  (** indirect calls devirtualized (Section 4.8) *)
  bl_checkopt : unit option;
      (** always [None]: the Section 7.1.3 check optimizer was removed
          (it elided no executed check and left no record a checker
          could verify).  The field stays only because [bench/perf]
          builds a [built] record literal; it goes when that code moves
          onto the pipeline's public interface. *)
  bl_lint : Sva_lint.Lint.result option;
      (** static lint findings and safe-access proofs, when enabled *)
  bl_ranges : Interval.result option;
      (** the value-range analysis result, when [~ranges:true]; its
          certificate bundle has been verified by the trusted checker
          ([Sva_tyck.Rangecert]) against the instrumented module *)
  bl_races : Lockset.result option;
      (** the concurrency-safety analysis result, when [~races:true]; its
          atomicity certificate bundle has been verified by the trusted
          checker ([Sva_tyck.Atomcert]) against the instrumented module *)
  bl_poolcert : Poolev.bundle option;
      (** the pool-safety evidence bundle, when [~poolcert:true]; every
          membership fact, TH/completeness/devirt certificate and
          check-elision record in it has been verified by the trusted
          checker ([Sva_tyck.Poolcert]) against the instrumented module *)
}

val compile : ?pipeline:Passes.pipeline -> name:string -> string list -> Irmod.t
(** Compile MiniC sources and run the optimization pass pipeline
    (LLVM-like by default) — the shared front half of {!build}. *)

val is_bytecode : string -> bool
(** Does this data start with the SVA bytecode magic? *)

val load_source : name:string -> string -> Irmod.t
(** Load a module from raw bytes: SVA bytecode (recognized by its magic)
    is decoded, anything else is compiled as MiniC via {!compile}.
    @raise Sva_bytecode.Codec.Decode_error on corrupt bytecode
    @raise Minic.Parser.Parse_error / Minic.Lower.Lower_error on bad
    source *)

val load_file : string -> Irmod.t
(** {!load_source} on a file's contents, named after its basename. *)

val load_error : string -> exn -> string option
(** [load_error file e]: the one-line [FILE: ...] diagnostic for an
    exception {!load_file} (or {!load_source}, {!compile}) raises on
    unreadable input — a missing or unreadable file, corrupt bytecode, a
    MiniC parse or lowering error — or {!build} raises when a trusted
    checker rejects the evidence it produced
    ([FILE: <what> checking failed: <first error> (n more)]), and [None]
    for any other exception.  The command-line tools print it instead of
    letting the exception escape. *)

val build :
  ?conf:conf ->
  ?aconfig:Pointsto.config ->
  ?options:Checkinsert.options ->
  ?clone:bool ->
  ?devirt:bool ->
  ?lint:Sva_lint.Lint.config ->
  ?ranges:bool ->
  ?races:bool ->
  ?poolcert:bool ->
  name:string ->
  string list ->
  built
(** Compile MiniC sources under a configuration.  For [Sva_safe] the full
    safety pipeline runs: optional function cloning (Section 4.8),
    points-to analysis, metapool inference, metapool type annotation
    extraction + trusted type checking,
    optional devirtualization, the static lint stage under the [lint]
    configuration when one is given (its safe-access proofs elide
    provably-redundant load/store checks), run-time check insertion and
    IR re-verification.

    [~ranges:true] additionally runs the value-range abstract
    interpretation ({!Sva_analysis.Interval}) on the analyzed module:
    the lint prover consults it to widen safe-access proofs to
    variable-index geps, check insertion elides [pchk_bounds] for
    certified geps, and after instrumentation the trusted checker
    re-verifies every materialized certificate — the build fails if any
    is rejected (Section 5 discipline).

    [~races:true] additionally runs the interprocedural lockset +
    interrupt-atomicity analysis ({!Sva_analysis.Lockset}) on the
    instrumented module: shared state reachable from both interrupt and
    syscall context is classified, unsynchronized access pairs are
    reported as findings, and every access the analysis certifies as
    protected carries an atomicity certificate re-verified by the
    trusted checker ({!Sva_tyck.Atomcert}) — the build fails if any
    certificate is rejected.

    [~poolcert:true] additionally evicts the points-to layer from the
    TCB: before devirtualization and check insertion run, the analysis
    results are distilled into a {!Sva_safety.Poolev.bundle} of
    membership tables and TH/completeness certificates; devirtualization
    appends a certificate per rewritten call and check insertion appends
    a record per points-to-justified elision; after instrumentation the
    trusted checker ({!Sva_tyck.Poolcert}) re-verifies the whole bundle
    against an independent scan of the instrumented module — the build
    fails if anything is rejected.  Certification is pure observation:
    the built module, summary, verdicts and modeled cycles are
    bit-identical with and without it.
    @raise Sva_tyck.Cert.Rejected if the type checker rejects the
    annotations or the range-, atomicity- or pool-certificate checker
    rejects a certificate (a safety-checking-compiler bug). *)

val build_module :
  ?conf:conf ->
  ?aconfig:Pointsto.config ->
  ?options:Checkinsert.options ->
  ?clone:bool ->
  ?devirt:bool ->
  ?lint:Sva_lint.Lint.config ->
  ?ranges:bool ->
  ?races:bool ->
  ?poolcert:bool ->
  name:string ->
  Irmod.t ->
  built
(** The analysis half of {!build}, for a module already loaded (e.g.
    decoded from bytecode by {!load_source}).  The optimization passes
    are assumed to have run. *)

val range_counts : built -> string
(** [range-elided bounds=B ls=L facts=F certs-verified=C]: the checks
    range certificates elided, the interval facts and the certificates
    the trusted checker verified; all zero unless the build ran with
    [~ranges:true]. *)

val poolcert_counts : built -> string
(** [pool-certs emitted=N verified=N rejected=0 elisions=E]; all zero
    unless the build ran with [~poolcert:true]. *)

val instantiate :
  ?sys:Sva_os.Svaos.t -> ?engine:engine_config -> ?smp:smp_config -> built ->
  Sva_interp.Interp.t
(** Load a built image into an SVM instance.  The SVA-OS mode follows the
    configuration (Native_inline for [Native], mediated otherwise); the
    run-time metapools are created — their lookup-cache shards threaded
    onto the instance's CPU context — and userspace is pre-registered in
    pools reachable from syscall arguments.  [engine] (default
    {!default_engine}) selects the execution engine: [Aot] compiles the
    whole module before any code — including the global-registration
    boot pass — runs, and [Tiered] raises [Invalid_argument].  [smp]
    (default {!default_smp}) sizes the modeled CPU array when the
    instance is created here; it does not re-size a caller-supplied
    [sys]. *)

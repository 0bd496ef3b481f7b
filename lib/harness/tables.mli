(** Experiment runners: one section per table/figure of the paper's
    evaluation (Section 7), each rendering a formatted report that shows
    the paper's numbers next to the measured ones.

    Absolute times differ (the substrate is a simulator, not an 800MHz
    Pentium III), so every performance table reports {e relative
    overheads} — the quantity the paper itself reports — and the
    accompanying note says what shape property to look for. *)

type json = {
  payload : quick:bool -> Jsonout.t;
      (** The machine-readable payload: the section's memoized
          measurement itself.  [render] draws every measured number of
          its report from this payload, so asking for both measures
          once. *)
  check : Jsonout.t -> string list;
      (** The section's PASS/FAIL criteria over a payload: one message per
          criterion that does not hold, [[]] when all hold.  [render]
          ends with their verdict on its own payload, and [json_check]
          runs them on a payload read back from a file.  A missing or
          mistyped field raises {!Jsonout.Parse_error}. *)
}

type section = {
  name : string;  (** the section's name on the bench command line *)
  render : quick:bool -> strict:bool -> string;
      (** The formatted report.  [quick] reduces repetition counts.
          Sections with PASS/FAIL criteria end in a verdict line; under
          [strict] a failed criterion raises instead. *)
  json : json option;
      (** The payload and its check, for sections that have a payload:
          no section carries one without a check. *)
}

val sections : section list
(** Every section, in report order:
    - [table4]: lines modified porting the kernel;
    - [figure2]: the instrumented [fib_create_info] with its points-to
      partitions;
    - [checks]: static check-insertion statistics;
    - [lint]: kernel sanitizer findings (all zero) and the check
      reduction the safe-access prover buys;
    - [ranges]: value-range elision backed by re-verified certificates;
    - [race]: the concurrency-safety pass — clean audit, fixture
      exact-match, certificate-injection coverage;
    - [poolcert]: pool-safety certification, bit-identical on or off;
    - [table7], [table8], [table5], [table6]: latency and bandwidth
      overheads across the four kernels;
    - [table9]: static metrics of the safety-checking compiler;
    - [ablation]: the paper's proposed/used compiler optimizations as
      ablations on the checked kernel;
    - [fastpath]: the object-lookup cache off vs on (same checks, >= 2x
      fewer splay comparisons, no extra cycles);
    - [smp]: the syscall mix over 1, 2 and 4 modeled CPUs;
    - [aot]: the interpreter vs whole-kernel AOT against a warm
      persistent translation store;
    - [trace]: the event trace and profiler are semantically invisible
      and attribute >= 95% of cycles to syscalls;
    - [exploits]: the Section 7.2 exploit experiment;
    - [verifier]: the Section 5 bug-injection experiment — the clean
      kernel annotations pass and all 20 injected analysis bugs are
      caught.

    The ten sections with a payload (lint, ranges, race, poolcert,
    table7, fastpath, smp, aot, trace, verifier) end in the verdict of
    their [check].  Only the host wall-clock floor stays outside it, in
    the report alone: aot's >= 2.0x, judged only under [strict]. *)

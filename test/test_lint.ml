(* Tests for the static lint layer: the generic dataflow solver
   (convergence on diamonds and loops, edge refinement), one suite per
   checker over seeded-bug and clean inputs, the safe-access prover, the
   kernel-level guarantees (clean kernel, exact fixture match,
   deterministic output) and the Jsonout codec the benchmark --json flag
   uses. *)

open Sva_ir
module Dataflow = Sva_analysis.Dataflow
module Lint = Sva_lint.Lint
module Report = Sva_lint.Report
module Pointsto = Sva_analysis.Pointsto
module Pipeline = Sva_pipeline.Pipeline
module Kbuild = Ukern.Kbuild
module J = Harness.Jsonout

(* ---------- the dataflow solver ---------- *)

(* Counting lattice: bottom 0, join max — high enough for the tests,
   finite height via the capped transfer functions below. *)
module MaxInt = struct
  type t = int

  let bottom = 0
  let equal = Int.equal
  let join = max
end

module S = Dataflow.Make (MaxInt)

let imm n = Value.imm n

(* entry --> then/else --> join: the classic diamond. *)
let diamond () =
  let m = Irmod.create "df" in
  let f = Func.create "f" Ty.i64 [ ("a", Ty.i64) ] in
  Irmod.add_func m f;
  let bld = Builder.create m f in
  ignore (Builder.start_block bld "entry");
  let c = Builder.b_icmp bld Instr.Ne (Func.param_value f 0) (imm 0) in
  Builder.b_br bld c "then" "else";
  ignore (Builder.start_block bld "then");
  ignore (Builder.b_binop bld Instr.Add (Func.param_value f 0) (imm 1));
  ignore (Builder.b_binop bld Instr.Add (Func.param_value f 0) (imm 2));
  Builder.b_jmp bld "join";
  ignore (Builder.start_block bld "else");
  Builder.b_jmp bld "join";
  ignore (Builder.start_block bld "join");
  Builder.b_ret bld (Some (Func.param_value f 0));
  (f, Cfg.build f)

(* entry --> header <--> body, header --> exit: a single natural loop. *)
let loop () =
  let m = Irmod.create "df" in
  let f = Func.create "f" Ty.i64 [ ("a", Ty.i64) ] in
  Irmod.add_func m f;
  let bld = Builder.create m f in
  ignore (Builder.start_block bld "entry");
  Builder.b_jmp bld "header";
  ignore (Builder.start_block bld "header");
  let c = Builder.b_icmp bld Instr.Ne (Func.param_value f 0) (imm 0) in
  Builder.b_br bld c "body" "exit";
  ignore (Builder.start_block bld "body");
  Builder.b_jmp bld "header";
  ignore (Builder.start_block bld "exit");
  Builder.b_ret bld (Some (Func.param_value f 0));
  (f, Cfg.build f)

let test_solver_diamond () =
  let f, cfg = diamond () in
  (* Transfer: instructions seen along the hottest path. *)
  let r =
    S.solve ~transfer:(fun b v -> v + List.length b.Func.insns) f cfg
  in
  (* terminators live outside [insns]: entry carries the icmp, then the
     two adds, else nothing. *)
  Alcotest.(check int) "entry in" 0 (r.S.input "entry");
  Alcotest.(check int) "then out" 3 (r.S.output "then");
  Alcotest.(check int) "else out" 1 (r.S.output "else");
  Alcotest.(check int) "join in = max of branches" 3 (r.S.input "join");
  (* acyclic graph in RPO: every block exactly once *)
  Alcotest.(check int) "one visit per block" 4 r.S.iterations

let test_solver_loop_converges () =
  let f, cfg = loop () in
  let r = S.solve ~transfer:(fun _ v -> min 10 (v + 1)) f cfg in
  (* the back edge feeds the header until the cap fixes the point *)
  Alcotest.(check int) "header stabilizes at the cap" 10 (r.S.output "header");
  Alcotest.(check int) "exit sees the fixpoint" 10 (r.S.input "exit");
  Alcotest.(check bool) "loop forced revisits" true (r.S.iterations > 4)

let test_solver_edge_refinement () =
  let f, cfg = diamond () in
  let r =
    S.solve
      ~edge:(fun ~src ~dst v ->
        ignore src;
        if dst = "then" then v + 100 else v)
      ~transfer:(fun b v -> v + List.length b.Func.insns)
      f cfg
  in
  Alcotest.(check int) "then sees the refined fact" 101 (r.S.input "then");
  Alcotest.(check int) "else does not" 1 (r.S.input "else")

(* ---------- checker suites ---------- *)

let aconfig =
  {
    Pointsto.default_config with
    Pointsto.syscall_register = Some "sva_register_syscall";
    syscall_invoke = Some "sva_syscall";
  }

let lint_src ?(config = Lint.config_of_aconfig aconfig) src =
  let m = Pipeline.compile ~name:"lint-test" [ src ] in
  let pa = Pointsto.run ~config:aconfig m in
  Lint.run ~config m pa

let findings_of checker (r : Lint.result) =
  List.filter_map
    (fun (f : Report.finding) ->
      if f.Report.f_checker = checker then Some f.Report.f_func else None)
    r.Lint.lr_findings

let proofs_in (r : Lint.result) fname =
  Hashtbl.fold
    (fun (f, _) () n -> if f = fname then n + 1 else n)
    r.Lint.lr_proofs 0

(* user-pointer taint *)

let taint_src =
  "extern void sva_register_syscall(long num, ...);\n\
   long sys_direct(long a0, long a1, long a2, long a3) {\n\
  \  long *p = (long *)a0;\n\
  \  return *p;\n\
   }\n\
   long fetch(long *p) { return *p; }\n\
   long sys_indirect(long a0, long a1, long a2, long a3) {\n\
  \  return fetch((long *)a0);\n\
   }\n\
   long sys_ok(long a0, long a1, long a2, long a3) { return a0 + a1; }\n\
   void init(void) {\n\
  \  sva_register_syscall(1, sys_direct);\n\
  \  sva_register_syscall(2, sys_indirect);\n\
  \  sva_register_syscall(3, sys_ok);\n\
   }\n"

let test_taint_finds_derefs () =
  let r = lint_src taint_src in
  Alcotest.(check (list string)) "direct + interprocedural sink"
    [ "fetch"; "sys_direct" ]
    (findings_of "user-taint" r)

let test_taint_trusted_boundary () =
  (* routing the user pointer through a trusted copy function is the
     sanctioned pattern and must not be flagged *)
  let src =
    "extern void sva_register_syscall(long num, ...);\n\
     extern long copy_from_user(char *dst, char *src, long n);\n\
     long sys_copy(long a0, long a1, long a2, long a3) {\n\
    \  long v = 0;\n\
    \  copy_from_user((char *)&v, (char *)a0, 8);\n\
    \  return v;\n\
     }\n\
     void init(void) { sva_register_syscall(1, sys_copy); }\n"
  in
  let r = lint_src src in
  Alcotest.(check (list string)) "no taint findings" []
    (findings_of "user-taint" r)

(* null / uninitialized dereference *)

let test_null_definite () =
  let src =
    "long bad(int flag) {\n\
    \  long *p = (long *)0;\n\
    \  if (flag) return 0;\n\
    \  return *p;\n\
     }\n"
  in
  Alcotest.(check (list string)) "definite null flagged" [ "bad" ]
    (findings_of "null-deref" (lint_src src))

let test_null_guard_sensitivity () =
  (* the == 0 branch dereference is a bug; the fall-through is clean —
     both facts come from the same branch refinement *)
  let src =
    "long guard(long *q) {\n\
    \  if (q == 0) { return *q; }\n\
    \  return *q;\n\
     }\n"
  in
  let r = lint_src src in
  Alcotest.(check (list string)) "only the null branch" [ "guard" ]
    (findings_of "null-deref" r);
  Alcotest.(check int) "exactly one finding" 1
    (List.length r.Lint.lr_findings)

let test_null_clean_guard () =
  let src =
    "long ok(long *q) {\n\
    \  if (q == 0) return -1;\n\
    \  return *q;\n\
     }\n"
  in
  Alcotest.(check (list string)) "guarded deref clean" []
    (findings_of "null-deref" (lint_src src))

(* interrupt-context allocation *)

let irq_src =
  "extern void sva_register_interrupt(long vec, ...);\n\
   extern char *kmalloc(long n);\n\
   extern void kfree(char *p);\n\
   long helper(long n) {\n\
  \  char *b = kmalloc(n);\n\
  \  if (!b) return -1;\n\
  \  kfree(b);\n\
  \  return 0;\n\
   }\n\
   long storm_interrupt(long icp, long vec, long a2, long a3) {\n\
  \  return helper(64);\n\
   }\n\
   long quiet_interrupt(long icp, long vec, long a2, long a3) {\n\
  \  return 0;\n\
   }\n\
   void init(void) {\n\
  \  sva_register_interrupt(9, storm_interrupt);\n\
  \  sva_register_interrupt(10, quiet_interrupt);\n\
   }\n"

let test_irq_sleeping_alloc () =
  let r = lint_src irq_src in
  Alcotest.(check (list string)) "kmalloc reachable from handler"
    [ "helper" ]
    (findings_of "irq-sleep" r)

let test_irq_outside_handler_ok () =
  let src =
    "extern char *kmalloc(long n);\n\
     long worker(long n) {\n\
    \  char *b = kmalloc(n);\n\
    \  return (long)b;\n\
     }\n"
  in
  Alcotest.(check (list string)) "no handlers, no findings" []
    (findings_of "irq-sleep" (lint_src src))

(* the safe-access prover *)

let test_prover_local_array () =
  let src =
    "long roundtrip(long x) {\n\
    \  long a[2];\n\
    \  a[0] = x;\n\
    \  a[1] = x + 1;\n\
    \  return a[0] + a[1];\n\
     }\n"
  in
  let r = lint_src src in
  Alcotest.(check bool) "accesses proved" true (proofs_in r "roundtrip" > 0);
  Alcotest.(check (list string)) "and no findings" []
    (List.map (fun (f : Report.finding) -> f.Report.f_func) r.Lint.lr_findings)

let test_prover_escape_blocks_proof () =
  let src =
    "extern void sink(long *p);\n\
     long escapes(long x) {\n\
    \  long a[2];\n\
    \  a[0] = x;\n\
    \  sink(a);\n\
    \  return a[0];\n\
     }\n"
  in
  let r = lint_src src in
  Alcotest.(check int) "escaped array proves nothing" 0
    (proofs_in r "escapes")

let range_prover_src =
  "int tbl[64];\n\
   int kmain(void) {\n\
  \  long s = 0;\n\
  \  for (long i = 0; i < 64; i = i + 1) tbl[i] = (int)i;\n\
  \  for (long i = 0; i < 64; i = i + 1) s = s + tbl[i];\n\
  \  return (int)s;\n\
   }\n"

let test_prover_range_oracle () =
  (* the loop-guarded variable index is beyond static_safe; the interval
     analysis certifies it in extent and the prover widens accordingly *)
  let m = Pipeline.compile ~name:"lint-range-test" [ range_prover_src ] in
  let pa = Pointsto.run ~config:aconfig m in
  let config = Lint.config_of_aconfig aconfig in
  let plain = Lint.run ~config m pa in
  let res = Sva_analysis.Interval.run m pa in
  let ranges ~fname i =
    Sva_analysis.Interval.elide res ~fname i Sva_analysis.Interval.Cls
  in
  let wide = Lint.run ~config ~ranges m pa in
  Alcotest.(check int) "no range proofs without the oracle" 0
    plain.Lint.lr_range_geps;
  Alcotest.(check bool) "oracle proves variable-index geps" true
    (wide.Lint.lr_range_geps > 0);
  Alcotest.(check bool) "strictly more accesses proved" true
    (wide.Lint.lr_proof_count > plain.Lint.lr_proof_count);
  (* every elision the oracle granted is backed by a certificate the
     trusted checker accepts *)
  let b = Sva_analysis.Interval.bundle res in
  Alcotest.(check bool) "certificates materialized" true
    (b.Sva_analysis.Interval.cb_certs <> []);
  Alcotest.(check (list string)) "and they all re-verify" []
    (List.map Sva_tyck.Cert.string_of_error
       (Sva_tyck.Rangecert.check
          ~entries:(Sva_analysis.Interval.entry_config res)
          m b))

(* ---------- kernel-level guarantees ---------- *)

let lint_kernel ~fixture =
  let v = Kbuild.as_tested in
  let sources =
    if fixture then Kbuild.fixture_sources v else Kbuild.sources v
  in
  let m = Pipeline.compile ~name:"ukern-lint-test" sources in
  let pa = Pointsto.run ~config:(Kbuild.aconfig v) m in
  Lint.run ~config:(Kbuild.lint_config v) m pa

let test_kernel_clean () =
  let r = lint_kernel ~fixture:false in
  Alcotest.(check string) "zero findings on the shipped kernel" ""
    (Report.render r.Lint.lr_findings);
  Alcotest.(check bool) "but plenty proved safe" true
    (r.Lint.lr_proof_count > 50)

let test_fixture_exact () =
  let r = lint_kernel ~fixture:true in
  let got =
    List.map
      (fun (f : Report.finding) -> (f.Report.f_checker, f.Report.f_func))
      r.Lint.lr_findings
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair string string)))
    "fixture reports exactly the seeded bugs"
    (List.sort_uniq compare Ukern.Ksrc_lintbugs.expected)
    got

let test_deterministic_output () =
  let a = lint_kernel ~fixture:true and b = lint_kernel ~fixture:true in
  Alcotest.(check string) "two runs render identically" (Lint.render a)
    (Lint.render b);
  Alcotest.(check int) "same iteration count" a.Lint.lr_iterations
    b.Lint.lr_iterations

(* ---------- Jsonout (the bench --json codec) ---------- *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("name", J.Str "lint \"quoted\"\nline");
        ("count", J.Int 42);
        ("rate", J.Float 54.25);
        ("flag", J.Bool true);
        ("nothing", J.Null);
        ("rows", J.List [ J.Int 1; J.Obj []; J.List [] ]);
      ]
  in
  Alcotest.(check bool) "parse (emit doc) = doc" true (J.parse (J.emit doc) = doc)

let test_json_parse_basics () =
  let doc = J.parse {| {"a": [1, 2.5, "\u0078A", {"b": null}], "c": -3} |} in
  Alcotest.(check int) "int field" (-3) (J.to_int (Option.get (J.member "c" doc)));
  match J.member "a" doc with
  | Some (J.List [ J.Int 1; J.Float f; J.Str s; inner ]) ->
      Alcotest.(check (float 1e-9)) "float" 2.5 f;
      Alcotest.(check string) "\\u escape" "xA" s;
      Alcotest.(check bool) "nested null" true (J.member "b" inner = Some J.Null)
  | _ -> Alcotest.fail "unexpected shape"

let str_contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let test_json_control_chars () =
  (* every byte below 0x20 must leave the emitter escaped — either a
     short escape or \u00xx — and decode back to itself *)
  let s = String.init 0x20 Char.chr in
  let doc = J.Obj [ (s, J.Str s) ] in
  let text = J.emit doc in
  String.iter
    (fun c ->
      if Char.code c < 0x20 && c <> '\n' then
        Alcotest.failf "raw control byte %#x in emitted JSON" (Char.code c))
    text;
  Alcotest.(check bool) "NUL as \\u0000" true (str_contains text "\\u0000");
  Alcotest.(check bool) "0x1f as \\u001f" true (str_contains text "\\u001f");
  Alcotest.(check bool) "newline uses the short escape" true
    (str_contains text "\\n");
  Alcotest.(check bool) "round-trip through the parser" true
    (J.parse text = doc)

let test_json_backslash_quote_runs () =
  (* pathological backslash/quote runs, including a trailing backslash
     (the classic escape-the-closing-quote bug) and escaped keys *)
  let cases =
    [ "\\"; "\\\\"; "\\\""; "\"\"\""; "a\\"; "\\\"\\\"\\"; "\\u0041"; "" ]
  in
  List.iter
    (fun s ->
      let doc = J.Obj [ (s, J.List [ J.Str s ]) ] in
      if J.parse (J.emit doc) <> doc then
        Alcotest.failf "round-trip drifted for %S" s)
    cases;
  (* "A" the *content* must not be re-interpreted as an escape *)
  Alcotest.(check string) "literal backslash-u survives" "\\u0041"
    (J.to_string (J.parse (J.emit (J.Str "\\u0041"))))

let test_json_non_ascii_bytes () =
  (* UTF-8 (and arbitrary high) bytes pass through unescaped *)
  let s = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x90\xab \x80\xff" in
  let doc = J.Obj [ ("k", J.Str s) ] in
  let text = J.emit doc in
  Alcotest.(check bool) "bytes emitted verbatim" true
    (str_contains text "caf\xc3\xa9");
  Alcotest.(check bool) "round-trip" true (J.parse text = doc);
  (* \u escapes on the parse side decode to UTF-8 *)
  Alcotest.(check string) "2- and 3-byte code points" "\xc3\xa9\xe0\xa4\x85"
    (J.to_string (J.parse "\"\\u00e9\\u0905\""))

let test_json_rejects_garbage () =
  let bad s =
    match J.parse s with
    | exception J.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "nope")

let () =
  Alcotest.run "sva_lint"
    [
      ( "solver",
        [
          Alcotest.test_case "diamond join" `Quick test_solver_diamond;
          Alcotest.test_case "loop convergence" `Quick
            test_solver_loop_converges;
          Alcotest.test_case "edge refinement" `Quick
            test_solver_edge_refinement;
        ] );
      ( "user-taint",
        [
          Alcotest.test_case "direct + interprocedural" `Quick
            test_taint_finds_derefs;
          Alcotest.test_case "trusted copy boundary" `Quick
            test_taint_trusted_boundary;
        ] );
      ( "null-deref",
        [
          Alcotest.test_case "definite null" `Quick test_null_definite;
          Alcotest.test_case "branch sensitivity" `Quick
            test_null_guard_sensitivity;
          Alcotest.test_case "guarded deref clean" `Quick test_null_clean_guard;
        ] );
      ( "irq-sleep",
        [
          Alcotest.test_case "sleeping alloc in handler" `Quick
            test_irq_sleeping_alloc;
          Alcotest.test_case "no handler, no finding" `Quick
            test_irq_outside_handler_ok;
        ] );
      ( "prover",
        [
          Alcotest.test_case "local array proved" `Quick
            test_prover_local_array;
          Alcotest.test_case "escape blocks proof" `Quick
            test_prover_escape_blocks_proof;
          Alcotest.test_case "range oracle widens proofs" `Quick
            test_prover_range_oracle;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "clean kernel" `Quick test_kernel_clean;
          Alcotest.test_case "fixture exact match" `Quick test_fixture_exact;
          Alcotest.test_case "deterministic" `Quick test_deterministic_output;
        ] );
      ( "jsonout",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "control-char escaping" `Quick
            test_json_control_chars;
          Alcotest.test_case "backslash/quote runs" `Quick
            test_json_backslash_quote_runs;
          Alcotest.test_case "non-ASCII bytes" `Quick test_json_non_ascii_bytes;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
    ]

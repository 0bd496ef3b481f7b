(* Integration tests for the safety-checking compiler: the full pipeline
   (MiniC -> SSA -> points-to -> metapools -> check insertion -> SVM),
   exercised on kernel-style code with a declared custom allocator. *)

open Sva_pipeline
module Violation = Sva_rt.Violation
module Stats = Sva_rt.Stats
module Pointsto = Sva_analysis.Pointsto
module Allocdecl = Sva_analysis.Allocdecl

(* A bump allocator standing in for the kernel's kmalloc, declared to the
   safety compiler but (like the paper's memory subsystem) not analyzed. *)
let allocator_src =
  "long __km_cursor = 0;\n\
   extern long sva_heap_base(void);\n\
   __noanalyze char *kmalloc(long size) {\n\
  \  if (size <= 0) return (char*)0;\n\
  \  if (__km_cursor == 0) __km_cursor = sva_heap_base();\n\
  \  long p = __km_cursor;\n\
  \  __km_cursor = __km_cursor + ((size + 15) / 16) * 16;\n\
  \  return (char*)p;\n\
   }\n\
   __noanalyze void kfree(char *p) { }\n"

let aconfig =
  {
    Pointsto.default_config with
    Pointsto.allocators =
      [ Allocdecl.ordinary ~free:"kfree" ~size_arg:0 "kmalloc" ];
  }

let build_safe ?options srcs =
  Pipeline.build ~conf:Pipeline.Sva_safe ~aconfig ?options ~name:"t"
    (allocator_src :: srcs)

let build_native srcs =
  Pipeline.build ~conf:Pipeline.Native ~aconfig ~name:"t" (allocator_src :: srcs)

let run built fn args =
  let t = Pipeline.instantiate built in
  Sva_interp.Interp.call t fn (List.map Int64.of_int args)

let expect_violation kind f =
  match f () with
  | _ -> Alcotest.fail "expected a safety violation"
  | exception Violation.Safety_violation v ->
      Alcotest.(check string) "violation kind"
        (Violation.kind_to_string kind)
        (Violation.kind_to_string v.Violation.v_kind)

(* ---------- heap overrun via integer overflow (the §7.2 pattern) ---------- *)

let overflow_src =
  "extern char *kmalloc(long size);\n\
   int set_filter(int count) {\n\
  \  /* 32-bit multiply overflows for count = 0x40000001: bytes = 4 */\n\
  \  int bytes = count * 4;\n\
  \  int *buf = (int*)kmalloc(bytes);\n\
  \  if (!buf) return -12;\n\
  \  for (int i = 0; i < 8 && i < count; i++) buf[i] = i;\n\
  \  return 0;\n\
   }"

let test_overflow_caught () =
  let b = build_safe [ overflow_src ] in
  (* Sane size: passes. *)
  (match run b "set_filter" [ 8 ] with
  | Some 0L -> ()
  | _ -> Alcotest.fail "benign call failed");
  (* Overflowed size: the second write escapes the 4-byte object. *)
  expect_violation Violation.Bounds (fun () ->
      run (build_safe [ overflow_src ]) "set_filter" [ 0x40000001 ])

let test_overflow_native_corrupts_silently () =
  (* The same input on the native kernel just corrupts the heap. *)
  match run (build_native [ overflow_src ]) "set_filter" [ 0x40000001 ] with
  | Some 0L -> ()
  | _ -> Alcotest.fail "native kernel should run straight through"

(* ---------- global array OOB (the BID 11956 pattern) ---------- *)

let global_oob_src =
  "int fib_props[12] = {1,2,3,4,5,6,7,8,9,10,11,12};\n\
   int read_prop(int idx) { return fib_props[idx]; }"

let test_global_oob_caught () =
  let b = build_safe [ global_oob_src ] in
  (match run b "read_prop" [ 3 ] with
  | Some 4L -> ()
  | _ -> Alcotest.fail "in-bounds read wrong");
  expect_violation Violation.Bounds (fun () ->
      run (build_safe [ global_oob_src ]) "read_prop" [ 50 ])

(* ---------- double free ---------- *)

let double_free_src =
  "extern char *kmalloc(long size);\n\
   extern void kfree(char *p);\n\
   int doit(int twice) {\n\
  \  char *p = kmalloc(32);\n\
  \  kfree(p);\n\
  \  if (twice) kfree(p);\n\
  \  return 0;\n\
   }"

let test_double_free_caught () =
  let b = build_safe [ double_free_src ] in
  (match run b "doit" [ 0 ] with
  | Some 0L -> ()
  | _ -> Alcotest.fail "single free should pass");
  expect_violation Violation.Double_free (fun () ->
      run (build_safe [ double_free_src ]) "doit" [ 1 ])

(* ---------- negative length byte (the BID 12911 bluetooth pattern) ---------- *)

let signed_index_src =
  "extern char *kmalloc(long size);\n\
   int parse_packet(int len_byte) {\n\
  \  char *table = kmalloc(64);\n\
  \  /* a length byte decremented below zero, then used unsigned */\n\
  \  unsigned int idx = (unsigned int)(len_byte - 2);\n\
  \  table[idx] = 1;\n\
  \  return 0;\n\
   }"

let test_signed_index_caught () =
  let b = build_safe [ signed_index_src ] in
  (match run b "parse_packet" [ 10 ] with
  | Some 0L -> ()
  | _ -> Alcotest.fail "benign packet failed");
  (* len_byte = 1: idx = (unsigned)(-1) = huge *)
  expect_violation Violation.Bounds (fun () ->
      run (build_safe [ signed_index_src ]) "parse_packet" [ 1 ])

(* ---------- stack promotion: escaping local survives ---------- *)

let escape_src =
  "struct box { int v; };\n\
   struct box *leak(void) {\n\
  \  struct box b;\n\
  \  b.v = 41;\n\
  \  struct box *p = &b;\n\
  \  p->v = 42;\n\
  \  return p;\n\
   }\n\
   int use(void) { struct box *p = leak(); return p->v; }"

let test_stack_promotion () =
  let b = build_safe [ escape_src ] in
  (match b.Pipeline.bl_summary with
  | Some s ->
      Alcotest.(check bool) "something promoted" true
        (s.Sva_safety.Checkinsert.stack_promoted >= 1)
  | None -> Alcotest.fail "no summary");
  ignore (run b "use" [])

(* ---------- TH pools elide load/store checks ---------- *)

let th_src =
  "struct task { int pid; int state; struct task *next; };\n\
   extern char *kmalloc(long size);\n\
   int mk(void) {\n\
  \  struct task *t = (struct task*)kmalloc(sizeof(struct task));\n\
  \  t->pid = 7;\n\
  \  t->state = 1;\n\
  \  return t->pid + t->state;\n\
   }"

let test_summary_counts () =
  let b = build_safe [ th_src ] in
  match b.Pipeline.bl_summary with
  | Some s ->
      Alcotest.(check bool) "registrations inserted" true
        (s.Sva_safety.Checkinsert.regs_inserted > 0);
      Alcotest.(check bool) "static bounds proved" true
        (s.Sva_safety.Checkinsert.bounds_static > 0)
  | None -> Alcotest.fail "no summary"

let test_checks_actually_execute () =
  Stats.reset ();
  let b = build_safe [ overflow_src ] in
  ignore (run b "set_filter" [ 8 ]);
  let s = Stats.read () in
  Alcotest.(check bool) "bounds checks ran" true (s.Stats.bounds_checks > 0);
  Alcotest.(check bool) "an object was registered" true
    (s.Stats.registrations > 0)

(* ---------- indirect call check ---------- *)

let cfi_src =
  "extern char *kmalloc(long size);\n\
   int good_a(int x) { return x + 1; }\n\
   int good_b(int x) { return x + 2; }\n\
   struct ops { long pad; int (*handler)(int); };\n\
   int dispatch(int which, int smash) {\n\
  \  struct ops *o = (struct ops*)kmalloc(sizeof(struct ops));\n\
  \  if (which) o->handler = good_a; else o->handler = good_b;\n\
  \  if (smash) o->pad = 0x1234567;\n\
  \  if (smash) o->handler = (int (*)(int))o->pad;\n\
  \  return o->handler(10);\n\
   }"

let test_cfi_indirect_call () =
  let b = build_safe [ cfi_src ] in
  (match run b "dispatch" [ 1; 0 ] with
  | Some 11L -> ()
  | _ -> Alcotest.fail "legit dispatch failed");
  expect_violation Violation.Indirect_call (fun () ->
      run (build_safe [ cfi_src ]) "dispatch" [ 1; 1 ])

(* ---------- dangling pointers are harmless in TH pools ---------- *)

let dangling_src =
  "struct obj { long a; long b; };\n\
   extern char *kmalloc(long size);\n\
   extern void kfree(char *p);\n\
   long dangle(void) {\n\
  \  struct obj *p = (struct obj*)kmalloc(sizeof(struct obj));\n\
  \  p->a = 5;\n\
  \  kfree((char*)p);\n\
  \  /* dangling read: must not violate safety (T-guarantees preserved,\n\
  \     Section 4.1: dangling pointers are not prevented, only rendered\n\
  \     harmless) */\n\
  \  return p->a;\n\
   }"

let test_dangling_harmless () =
  let b = build_safe [ dangling_src ] in
  match run b "dangle" [] with
  | Some 5L -> ()
  | Some v -> Alcotest.failf "unexpected value %Ld" v
  | None -> Alcotest.fail "void"

(* ---------- certified range elision is semantically invisible ---------- *)

(* Result (or trap), modeled cycles and executed-check total of [f]. *)
let run_f built args =
  Stats.reset ();
  let t = Pipeline.instantiate built in
  let r =
    match Sva_interp.Interp.call t "f" args with
    | v -> Ok v
    | exception Sva_interp.Interp.Vm_error m -> Error ("vm: " ^ m)
    | exception Violation.Safety_violation v ->
        Error ("violation: " ^ Violation.to_string v)
  in
  (r, Sva_interp.Interp.cycles t, Stats.total_checks (Stats.read ()))

let prop_range_elision_invisible =
  let gen =
    QCheck2.Gen.(tup3 (int_range 0 5000) small_signed_int small_signed_int)
  in
  QCheck2.Test.make
    ~name:
      "range elision: identical results/traps, fewer-or-equal checks and \
       cycles"
    ~count:25 gen
    (fun (seed, a, b) ->
      let src = Arr_gen.program seed in
      let off = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"roff" [ src ] in
      let on =
        Pipeline.build ~conf:Pipeline.Sva_safe ~ranges:true ~name:"ron" [ src ]
      in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let ro, co, ko = run_f off args in
      let rn, cn, kn = run_f on args in
      ro = rn && cn <= co && kn <= ko)

(* Pool certification must be pure observation: the same program built
   with and without [~poolcert:true] gives bit-identical results,
   modeled cycles and executed-check totals (the gated build fails
   outright if the trusted checker rejects anything), and every elision
   the verifier recorded is backed by exactly one certificate of the
   matching kind. *)
module Poolev = Sva_safety.Poolev

let prop_poolcert_invisible =
  let gen =
    QCheck2.Gen.(tup3 (int_range 0 5000) small_signed_int small_signed_int)
  in
  QCheck2.Test.make
    ~name:
      "pool certification: bit-identical results/cycles/checks; every \
       elision backed by exactly one certificate"
    ~count:25 gen
    (fun (seed, a, b) ->
      let src = Arr_gen.program seed in
      let off = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"pcoff" [ src ] in
      let on =
        Pipeline.build ~conf:Pipeline.Sva_safe ~poolcert:true ~name:"pcon"
          [ src ]
      in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let ro, co, ko = run_f off args in
      let rn, cn, kn = run_f on args in
      let bundle = Option.get on.Pipeline.bl_poolcert in
      let th_certs mp =
        List.length
          (List.filter (fun tc -> tc.Poolev.tc_mp = mp) bundle.Poolev.pb_th)
      in
      let incomplete_certs mp =
        List.length
          (List.filter
             (fun cc -> cc.Poolev.cc_mp = mp && not cc.Poolev.cc_complete)
             bundle.Poolev.pb_comp)
      in
      let backed =
        List.for_all
          (function
            | Poolev.El_th (_, mp) -> th_certs mp = 1
            | Poolev.El_reduced (_, mp) -> incomplete_certs mp = 1
            | Poolev.El_func (_, mp, Poolev.Fc_th) -> th_certs mp = 1
            | Poolev.El_func (_, mp, Poolev.Fc_incomplete) ->
                incomplete_certs mp = 1)
          bundle.Poolev.pb_elisions
      in
      ro = rn && co = cn && ko = kn && backed)

let test_ranges_kernel_static () =
  (* the Table 9 ablation row: on the entire-kernel build (lint on) the
     certified elision must push the static ls-check count below the
     lint-only baseline of 252 and account for every removed bounds check *)
  let off =
    Ukern.Kbuild.build ~conf:Pipeline.Sva_safe ~lint:true
      Ukern.Kbuild.entire_kernel
  in
  let on =
    Ukern.Kbuild.build ~conf:Pipeline.Sva_safe ~lint:true ~ranges:true
      Ukern.Kbuild.entire_kernel
  in
  let s0 = Option.get off.Pipeline.bl_summary in
  let s1 = Option.get on.Pipeline.bl_summary in
  Alcotest.(check bool) "below the lint-on baseline of 252" true
    (s1.Sva_safety.Checkinsert.ls_inserted < 252);
  Alcotest.(check bool) "strictly fewer ls checks than ranges-off" true
    (s1.Sva_safety.Checkinsert.ls_inserted
    < s0.Sva_safety.Checkinsert.ls_inserted);
  Alcotest.(check int) "bounds drop equals the certified-gep count"
    s1.Sva_safety.Checkinsert.bounds_static_range
    (s0.Sva_safety.Checkinsert.bounds_inserted
    - s1.Sva_safety.Checkinsert.bounds_inserted);
  Alcotest.(check bool) "certificates were emitted and verified" true
    (match on.Pipeline.bl_ranges with
    | Some rr ->
        let cb, cl = Sva_analysis.Interval.cert_counts rr in
        cb + cl > 0
    | None -> false)

let test_ranges_exploit_verdicts () =
  (* the five Section 7.2 exploits: verdicts bit-identical with range
     elision on and off *)
  let verdicts ranges =
    let v = Ukern.Kbuild.as_tested in
    let b = Ukern.Kbuild.build ~conf:Pipeline.Sva_safe ~ranges v in
    List.map
      (fun ex ->
        let t = Ukern.Boot.boot_built b ~variant:v in
        Exploits.outcome_to_string (Exploits.attack t ex))
      Exploits.all
  in
  Alcotest.(check (list string)) "verdicts identical" (verdicts false)
    (verdicts true)

(* ---------- analysis sanity on the compiled module ---------- *)

let test_analysis_results_present () =
  let b = build_safe [ th_src ] in
  match (b.Pipeline.bl_pa, b.Pipeline.bl_mps) with
  | Some pa, Some mps ->
      Alcotest.(check bool) "has nodes" true (Pointsto.node_count pa > 0);
      Alcotest.(check bool) "has metapools" true
        (List.length (Sva_safety.Metapool.decls mps) > 0);
      (* kmalloc'ed tasks: some heap node exists *)
      Alcotest.(check bool) "has heap node" true
        (List.exists
           (fun n -> Pointsto.has_flag n Pointsto.Heap)
           (Pointsto.nodes pa))
  | _ -> Alcotest.fail "missing analysis outputs"

let () =
  Alcotest.run "sva_safety"
    [
      ( "exploit-patterns",
        [
          Alcotest.test_case "integer overflow caught" `Quick test_overflow_caught;
          Alcotest.test_case "native corrupts silently" `Quick
            test_overflow_native_corrupts_silently;
          Alcotest.test_case "global OOB caught" `Quick test_global_oob_caught;
          Alcotest.test_case "double free caught" `Quick test_double_free_caught;
          Alcotest.test_case "signed index caught" `Quick test_signed_index_caught;
          Alcotest.test_case "CFI indirect call" `Quick test_cfi_indirect_call;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "stack promotion" `Quick test_stack_promotion;
          Alcotest.test_case "summary counts" `Quick test_summary_counts;
          Alcotest.test_case "checks execute" `Quick test_checks_actually_execute;
          Alcotest.test_case "dangling harmless" `Quick test_dangling_harmless;
          Alcotest.test_case "analysis present" `Quick test_analysis_results_present;
        ] );
      ( "range-elision",
        [
          QCheck_alcotest.to_alcotest prop_range_elision_invisible;
          Alcotest.test_case "entire-kernel static counts" `Slow
            test_ranges_kernel_static;
          Alcotest.test_case "exploit verdicts identical" `Slow
            test_ranges_exploit_verdicts;
        ] );
      ( "pool-certification",
        [ QCheck_alcotest.to_alcotest prop_poolcert_invisible ] );
    ]

(* Tests for the metapool type system and the other trusted checkers:
   valid evidence passes each checker; the Section 5 bug-injection
   experiment (4 kinds x 5 instances for the type system) is fully
   detected; the shared build gate rejects injected bugs with a typed
   error. *)

open Sva_pipeline
module Tyck = Sva_tyck.Tyck
module Cert = Sva_tyck.Cert
module Inject = Sva_tyck.Inject
module Pointsto = Sva_analysis.Pointsto
module Allocdecl = Sva_analysis.Allocdecl

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

(* A program with enough pointer structure for interesting annotations:
   linked structures, global tables, pointer loads/stores, array geps. *)
let kernelish_src =
  "extern char *kmalloc(long size);\n\
   struct buf { long len; char data[56]; };\n\
   struct conn { int id; int state; struct buf *rx; struct conn *next; };\n\
   struct conn *conn_list = 0;\n\
   int conn_count = 0;\n\
   struct conn *new_conn(int id) {\n\
  \  struct conn *c = (struct conn*)kmalloc(sizeof(struct conn));\n\
  \  c->id = id;\n\
  \  c->state = 0;\n\
  \  c->rx = (struct buf*)kmalloc(sizeof(struct buf));\n\
  \  c->rx->len = 0;\n\
  \  c->next = conn_list;\n\
  \  conn_list = c;\n\
  \  conn_count++;\n\
  \  return c;\n\
   }\n\
   struct conn *find_conn(int id) {\n\
  \  struct conn *c = conn_list;\n\
  \  while (c) { if (c->id == id) return c; c = c->next; }\n\
  \  return (struct conn*)0;\n\
   }\n\
   int push_byte(struct conn *c, int b) {\n\
  \  if (!c || !c->rx) return -1;\n\
  \  if (c->rx->len >= 56) return -1;\n\
  \  c->rx->data[c->rx->len] = (char)b;\n\
  \  c->rx->len++;\n\
  \  return 0;\n\
   }\n\
   int drive(void) {\n\
  \  struct conn *a = new_conn(1);\n\
  \  struct conn *b = new_conn(2);\n\
  \  push_byte(a, 65);\n\
  \  push_byte(b, 66);\n\
  \  struct conn *f = find_conn(2);\n\
  \  if (!f) return -1;\n\
  \  return conn_count;\n\
   }\n"

let aconfig =
  {
    Pointsto.default_config with
    Pointsto.allocators =
      [ Allocdecl.ordinary ~free:"kfree" ~size_arg:0 "kmalloc" ];
  }

let build () =
  Pipeline.build ~conf:Pipeline.Sva_safe ~aconfig ~name:"tyck"
    [ allocator_src; kernelish_src ]

(* The shared injection experiment plus the assertions every checker's
   experiment test makes: each bug kind injects at least once and every
   injected bug is caught. *)
let run_experiment cert m b ~instances =
  let results = Cert.experiment cert m b ~instances in
  List.iter
    (fun (kind, _) ->
      if not (List.exists (fun (k, _, _) -> k = kind) results) then
        Alcotest.failf "no injection site for %s" kind)
    cert.Cert.bugs;
  List.iter
    (fun (kind, desc, caught) ->
      if not caught then Alcotest.failf "missed %s: %s" kind desc)
    results;
  results

(* The build gate: the clean evidence passes; the first injectable bug
   raises [Cert.Rejected] naming the checker, and the registered printer
   keeps the "<what> checking failed:" text builds have always failed
   with. *)
let check_gate what cert m b =
  Cert.gate cert m b;
  match
    List.find_map
      (fun (_, inject) -> Option.map fst (inject m b ~seed:0))
      cert.Cert.bugs
  with
  | None -> Alcotest.fail "no injection site"
  | Some buggy -> (
      match Cert.gate cert m buggy with
      | () -> Alcotest.fail "injected bug passed the gate"
      | exception (Cert.Rejected (name, errs) as e) ->
          Alcotest.(check string) "rejecting checker" what name;
          Alcotest.(check bool) "at least one error" true (errs <> []);
          let prefix = what ^ " checking failed:\n" in
          let printed = Printexc.to_string e in
          Alcotest.(check string) "registered printer" prefix
            (String.sub printed 0
               (min (String.length prefix) (String.length printed)));
          match Pipeline.load_error "k.c" e with
          | Some line ->
              Alcotest.(check bool) "one-line CLI diagnostic" false
                (String.contains line '\n')
          | None -> Alcotest.fail "no CLI diagnostic for a rejection")

(* The command-line tools end a rejected build with this one line, exit
   1, instead of the exception's backtrace. *)
let test_rejection_diagnostic () =
  let err func instr msg = { Cert.func; instr; msg } in
  let line errs =
    Pipeline.load_error "k.c" (Cert.Rejected ("range certificate", errs))
  in
  Alcotest.(check (option string)) "first error, count of the rest"
    (Some "k.c: range certificate checking failed: @f:3: bad fact (2 more)")
    (line [ err "f" 3 "bad fact"; err "g" (-1) "x"; err "h" 1 "y" ]);
  Alcotest.(check (option string)) "a single error"
    (Some "k.c: range certificate checking failed: @g: no entry")
    (line [ err "g" (-1) "no entry" ])

let test_valid_annotations_pass () =
  let b = build () in
  match b.Pipeline.bl_annot with
  | Some _ -> () (* build would have failed otherwise *)
  | None -> Alcotest.fail "pipeline did not produce annotations"

let get_parts b =
  match (b.Pipeline.bl_pa, b.Pipeline.bl_mps, b.Pipeline.bl_annot) with
  | Some pa, Some mps, Some an -> (pa, mps, an)
  | _ -> Alcotest.fail "missing analysis outputs"

let test_annotations_nonempty () =
  let b = build () in
  let _, _, an = get_parts b in
  Alcotest.(check bool) "value qualifiers" true
    (Hashtbl.length an.Tyck.an_value_mp > 10);
  Alcotest.(check bool) "succ edges" true (Hashtbl.length an.Tyck.an_succ > 0)

let test_still_runs () =
  let b = build () in
  let t = Pipeline.instantiate b in
  match Sva_interp.Interp.call t "drive" [] with
  | Some 2L -> ()
  | Some v -> Alcotest.failf "drive returned %Ld" v
  | None -> Alcotest.fail "void"

(* The Section 5 experiment: 4 kinds x 5 instances, all caught.  Note the
   checked module is the pre-instrumentation one; we rebuild without
   typecheck so annotations correspond to the uninstrumented module. *)
let experiment_parts () =
  let m =
    Minic.Lower.compile_strings ~name:"tyck" [ allocator_src; kernelish_src ]
  in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  let pa = Pointsto.run ~config:aconfig m in
  let mps = Sva_safety.Metapool.infer m pa aconfig.Pointsto.allocators in
  let an = Tyck.extract m pa mps in
  (m, an)

let tyck_cert = Inject.tyck ~trusted:[]

let test_injection_experiment () =
  let m, an = experiment_parts () in
  Alcotest.(check (list string)) "clean annotations pass" []
    (List.map Cert.string_of_error (Tyck.check m an));
  let results = run_experiment tyck_cert m an ~instances:5 in
  Alcotest.(check int) "20 bugs injected" 20 (List.length results)

let test_each_kind_injectable () =
  let m, an = experiment_parts () in
  List.iter
    (fun kind ->
      match Inject.inject m an kind ~seed:0 with
      | Some (buggy, _) ->
          Alcotest.(check bool)
            (Inject.kind_name kind ^ " detected")
            true (Tyck.check m buggy <> [])
      | None -> Alcotest.failf "no site for %s" (Inject.kind_name kind))
    Inject.all_kinds

(* Every metapool an annotation names. *)
let pools (an : Tyck.annot) =
  let acc = ref [] in
  let see _ p = acc := p :: !acc in
  Hashtbl.iter see an.Tyck.an_value_mp;
  Hashtbl.iter see an.Tyck.an_global_mp;
  Hashtbl.iter see an.Tyck.an_fn_mp;
  Hashtbl.iter see an.Tyck.an_ret_mp;
  Hashtbl.iter (fun p s -> acc := p :: s :: !acc) an.Tyck.an_succ;
  Hashtbl.iter (fun p _ -> acc := p :: !acc) an.Tyck.an_th;
  List.sort_uniq compare !acc

(* A kind that moves a register, an edge or a base to a bogus pool must
   name a pool the clean annotation does not use: a real pool there is a
   different, possibly consistent, annotation rather than the bug. *)
let test_bogus_pools_fresh () =
  let m, an = experiment_parts () in
  let clean = pools an in
  List.iter
    (fun kind ->
      for seed = 0 to 4 do
        match Inject.inject m an kind ~seed with
        | Some (buggy, desc)
          when List.for_all (fun p -> List.mem p clean) (pools buggy) ->
            Alcotest.failf "%s, seed %d, names no bogus pool: %s"
              (Inject.kind_name kind) seed desc
        | _ -> ()
      done)
    [ Inject.Wrong_var_mp; Inject.Wrong_edge; Inject.Split_mp ]

let test_copy_is_deep () =
  let m, an = experiment_parts () in
  (match Inject.inject m an Inject.Wrong_edge ~seed:0 with
  | Some _ -> ()
  | None -> Alcotest.fail "no injection site");
  (* The original must still check clean after injections created copies. *)
  Alcotest.(check bool) "original untouched" true (Tyck.check m an = [])

let test_tyck_gate () =
  let m, an = experiment_parts () in
  check_gate "metapool type" tyck_cert m an

(* ------------------------------------------------------------------ *)
(* Range certificates: the same PCC discipline for the interval
   analysis.  The producer's bundle must pass the trusted checker
   verbatim, and every injected certificate bug must be rejected.       *)
(* ------------------------------------------------------------------ *)

module Interval = Sva_analysis.Interval
module Rangecert = Sva_tyck.Rangecert

let range_src =
  "int tbl[64];\n\
   int get(long i) { return tbl[i]; }\n\
   long clamp(long v) {\n\
  \  if (v < 0) return 0;\n\
  \  if (v > 63) return 63;\n\
  \  return v;\n\
   }\n\
   int read_at(long v) { long j = clamp(v); return tbl[j]; }\n\
   int kmain(void) {\n\
  \  long s = 0;\n\
  \  for (long i = 0; i < 64; i = i + 1) tbl[i] = (int)i;\n\
  \  s = get(3) + get(7) + get(11);\n\
  \  s = s + read_at(5) + read_at(60);\n\
  \  return (int)s;\n\
   }\n"

let range_parts () =
  let m = Minic.Lower.compile_strings ~name:"rc" [ range_src ] in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  let pa = Pointsto.run m in
  let entries fn = fn = "kmain" in
  let res = Interval.run ~entries m pa in
  Interval.certify_all res m;
  (m, Interval.bundle res, entries)

let test_rangecert_accepts_producer () =
  let m, b, entries = range_parts () in
  Alcotest.(check (list string))
    "producer bundle passes the trusted checker" []
    (List.map Cert.string_of_error (Rangecert.check ~entries m b));
  (* the fixture must exercise every justification the checker rules on *)
  Alcotest.(check bool) "has facts" true (Hashtbl.length b.Interval.cb_facts > 0);
  Alcotest.(check bool) "has certificates" true (b.Interval.cb_certs <> []);
  Alcotest.(check bool) "has a parameter claim" true
    (Hashtbl.length b.Interval.cb_params > 0);
  Alcotest.(check bool) "has a return claim" true
    (Hashtbl.length b.Interval.cb_rets > 0)

let test_rangecert_rejects_injections () =
  let m, b, entries = range_parts () in
  ignore (run_experiment (Rangecert.cert ~entries) m b ~instances:5)

let test_rangecert_copy_is_deep () =
  let m, b, entries = range_parts () in
  List.iter
    (fun bug -> ignore (Rangecert.inject m b bug ~seed:0))
    Rangecert.all_bugs;
  Alcotest.(check bool) "original bundle untouched" true
    (Rangecert.check ~entries m b = [])

let test_rangecert_gate () =
  let m, b, entries = range_parts () in
  check_gate "range certificate" (Rangecert.cert ~entries) m b

(* ---------- atomicity certificates (concurrency pass) ---------- *)

module Lockset = Sva_analysis.Lockset
module Atomcert = Sva_tyck.Atomcert
module Kbuild = Ukern.Kbuild

(* The producer side is the kernel plus the seeded race fixture — the
   same module pair the bench race section analyzes; built once and
   shared across the atomcert cases. *)
let atom_parts_cache = ref None

let atom_parts () =
  match !atom_parts_cache with
  | Some p -> p
  | None ->
      let v = Kbuild.as_tested in
      let m =
        Sva_pipeline.Pipeline.compile ~name:"tyck-atomcert"
          (Kbuild.race_fixture_sources v)
      in
      let pa = Pointsto.run ~config:(Kbuild.aconfig v) m in
      let res = Lockset.run m pa in
      let p = (m, res, Lockset.bundle res, Lockset.entry_config res) in
      atom_parts_cache := Some p;
      p

let test_racebugs_exact_match () =
  let _, res, _, _ = atom_parts () in
  let got =
    List.sort_uniq compare
      (List.map
         (fun (f : Lockset.finding) -> (f.Lockset.lf_checker, f.Lockset.lf_func))
         (Lockset.findings res))
  in
  let want = List.sort_uniq compare Ukern.Ksrc_racebugs.expected in
  Alcotest.(check (list (pair string string))) "fixture findings" want got

let test_atomcert_accepts_producer () =
  let m, _, b, entries = atom_parts () in
  Alcotest.(check (list string))
    "producer bundle passes the trusted checker" []
    (List.map Cert.string_of_error (Atomcert.check ~entries m b));
  Alcotest.(check bool) "has access certificates" true
    (b.Lockset.cb_acerts <> []);
  Alcotest.(check bool) "has function claims" true (b.Lockset.cb_fcerts <> [])

let test_atomcert_rejects_injections () =
  let m, _, b, entries = atom_parts () in
  ignore (run_experiment (Atomcert.cert ~entries) m b ~instances:3)

let test_atomcert_copy_is_deep () =
  let m, _, b, entries = atom_parts () in
  List.iter
    (fun bug -> ignore (Atomcert.inject m b bug ~seed:0))
    Atomcert.all_bugs;
  Alcotest.(check bool) "original bundle untouched" true
    (Atomcert.check ~entries m b = [])

let test_atomcert_gate () =
  let m, _, b, entries = atom_parts () in
  check_gate "atomicity certificate" (Atomcert.cert ~entries) m b

(* ---------- Pool-safety certificates (points-to evicted from the TCB):
   the producer bundle re-verifies on the local fixture and on the
   kernel; every injected pool-certificate bug is rejected; injection
   never mutates the original bundle. ---------- *)

module Poolcert = Sva_tyck.Poolcert
module Poolev = Sva_safety.Poolev

let bundle_of built =
  match built.Pipeline.bl_poolcert with
  | Some b -> b
  | None -> Alcotest.fail "poolcert build carried no evidence bundle"

(* The kernel producer the trusted checker gates on, built once and
   shared across the poolcert cases (same pattern as atom_parts). *)
let pool_parts_cache = ref None

let pool_parts () =
  match !pool_parts_cache with
  | Some p -> p
  | None ->
      let v = Kbuild.as_tested in
      let built = Kbuild.build ~poolcert:true v in
      let p = (built.Pipeline.bl_mod, bundle_of built, Kbuild.aconfig v) in
      pool_parts_cache := Some p;
      p

let test_poolcert_accepts_producer () =
  let built =
    Pipeline.build ~conf:Pipeline.Sva_safe ~aconfig ~poolcert:true
      ~name:"tyck-poolcert"
      [ allocator_src; kernelish_src ]
  in
  let b = bundle_of built in
  Alcotest.(check (list string))
    "producer bundle passes the trusted checker" []
    (List.map Cert.string_of_error
       (Poolcert.check ~config:aconfig built.Pipeline.bl_mod b));
  Alcotest.(check bool) "has TH certificates" true (b.Poolev.pb_th <> []);
  Alcotest.(check bool) "has completeness certificates" true
    (b.Poolev.pb_comp <> []);
  Alcotest.(check bool) "has recorded elisions" true
    (Poolev.elision_count b > 0)

let test_poolcert_kernel_accepts () =
  let m, b, config = pool_parts () in
  (* the pipeline gate already enforced acceptance; re-check explicitly *)
  Alcotest.(check (list string)) "kernel bundle re-verifies" []
    (List.map Cert.string_of_error (Poolcert.check ~config m b));
  Alcotest.(check bool) "kernel has certificates" true
    (Poolev.cert_count b > 0);
  Alcotest.(check bool) "kernel has elisions" true (Poolev.elision_count b > 0)

let test_poolcert_rejects_injections () =
  let m, b, config = pool_parts () in
  let results = run_experiment (Inject.poolcert ~config) m b ~instances:3 in
  Alcotest.(check int) "15 bugs injected (5 kinds x 3 instances)" 15
    (List.length results)

let test_poolcert_copy_is_deep () =
  let m, b, config = pool_parts () in
  List.iter
    (fun bug -> ignore (Inject.pool_inject m b bug ~seed:0))
    Inject.all_pool_bugs;
  Alcotest.(check bool) "original bundle untouched" true
    (Poolcert.check ~config m b = [])

let test_poolcert_gate () =
  let m, b, config = pool_parts () in
  check_gate "pool-safety certificate" (Inject.poolcert ~config) m b

let () =
  Alcotest.run "sva_tyck"
    [
      ( "checker",
        [
          Alcotest.test_case "valid annotations pass" `Quick
            test_valid_annotations_pass;
          Alcotest.test_case "annotations nonempty" `Quick
            test_annotations_nonempty;
          Alcotest.test_case "instrumented module runs" `Quick test_still_runs;
          Alcotest.test_case "rejection is a one-line CLI diagnostic" `Quick
            test_rejection_diagnostic;
        ] );
      ( "injection",
        [
          Alcotest.test_case "20-bug experiment (Section 5)" `Quick
            test_injection_experiment;
          Alcotest.test_case "each kind detected" `Quick test_each_kind_injectable;
          Alcotest.test_case "bogus pools are fresh" `Quick
            test_bogus_pools_fresh;
          Alcotest.test_case "injection copies annotations" `Quick
            test_copy_is_deep;
          Alcotest.test_case "gate rejects injected bug" `Quick
            test_tyck_gate;
        ] );
      ( "rangecert",
        [
          Alcotest.test_case "producer certificates accepted" `Quick
            test_rangecert_accepts_producer;
          Alcotest.test_case "injected certificate bugs rejected" `Quick
            test_rangecert_rejects_injections;
          Alcotest.test_case "injection copies bundle" `Quick
            test_rangecert_copy_is_deep;
          Alcotest.test_case "gate rejects injected bug" `Quick
            test_rangecert_gate;
        ] );
      ( "atomcert",
        [
          Alcotest.test_case "race fixture matches ground truth" `Quick
            test_racebugs_exact_match;
          Alcotest.test_case "producer certificates accepted" `Quick
            test_atomcert_accepts_producer;
          Alcotest.test_case "injected certificate bugs rejected" `Quick
            test_atomcert_rejects_injections;
          Alcotest.test_case "injection copies bundle" `Quick
            test_atomcert_copy_is_deep;
          Alcotest.test_case "gate rejects injected bug" `Quick
            test_atomcert_gate;
        ] );
      ( "poolcert",
        [
          Alcotest.test_case "producer bundle accepted" `Quick
            test_poolcert_accepts_producer;
          Alcotest.test_case "kernel bundle accepted" `Quick
            test_poolcert_kernel_accepts;
          Alcotest.test_case "injected certificate bugs rejected" `Quick
            test_poolcert_rejects_injections;
          Alcotest.test_case "injection copies bundle" `Quick
            test_poolcert_copy_is_deep;
          Alcotest.test_case "gate rejects injected bug" `Quick
            test_poolcert_gate;
        ] );
    ]

(* Unit tests for the points-to analysis and call graph: unification,
   memory-class flags, type-homogeneity, completeness, the Section 4.8
   kernel heuristics (error-cast nulling, internal syscall resolution,
   userspace-copy merging) and allocator size-class grouping. *)

module Pointsto = Sva_analysis.Pointsto
module Callgraph = Sva_analysis.Callgraph
module Allocdecl = Sva_analysis.Allocdecl

let compile ?(config = Pointsto.default_config) srcs =
  let m = Minic.Lower.compile_strings ~name:"t" srcs in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  (m, Pointsto.run ~config m)

let node_of pa fname reg =
  match Pointsto.reg_node pa ~fname reg with
  | Some n -> n
  | None -> Alcotest.failf "no node for @%s r%d" fname reg

(* ---------- basic unification ---------- *)

let test_assignment_unifies () =
  let _, pa =
    compile
      [
        "struct s { long a; };\n\
         struct s g1;\n\
         struct s g2;\n\
         struct s *pick(int c) { if (c) return &g1; return &g2; }";
      ]
  in
  (* both globals flow into one return partition *)
  let n1 = Option.get (Pointsto.global_node pa "g1") in
  let n2 = Option.get (Pointsto.global_node pa "g2") in
  Alcotest.(check bool) "merged" true (Pointsto.same_node n1 n2);
  Alcotest.(check bool) "global flag" true (Pointsto.has_flag n1 Pointsto.Global);
  (match Pointsto.ret_node pa "pick" with
  | Some r -> Alcotest.(check bool) "ret targets them" true (Pointsto.same_node r n1)
  | None -> Alcotest.fail "no return node")

let test_distinct_objects_stay_distinct () =
  let _, pa =
    compile
      [
        "long a_var;\n\
         long b_var;\n\
         long *pa_fn(void) { return &a_var; }\n\
         long *pb_fn(void) { return &b_var; }";
      ]
  in
  let n1 = Option.get (Pointsto.global_node pa "a_var") in
  let n2 = Option.get (Pointsto.global_node pa "b_var") in
  Alcotest.(check bool) "not merged" false (Pointsto.same_node n1 n2)

let test_store_creates_edge () =
  let _, pa =
    compile
      [
        "long target;\n\
         long *slot;\n\
         void link(void) { slot = &target; }";
      ]
  in
  let slot = Option.get (Pointsto.global_node pa "slot") in
  match Pointsto.node_succ slot with
  | Some s ->
      Alcotest.(check bool) "edge to target" true
        (Pointsto.same_node s (Option.get (Pointsto.global_node pa "target")))
  | None -> Alcotest.fail "no points-to edge"

(* ---------- type homogeneity ---------- *)

let test_th_inference () =
  let _, pa =
    compile
      [
        "struct task { int pid; int st; };\n\
         struct task tasks[8];\n\
         int get(int i) { return tasks[i].pid; }";
      ]
  in
  let n = Option.get (Pointsto.global_node pa "tasks") in
  Alcotest.(check bool) "TH" true (Pointsto.is_type_homog n);
  match Pointsto.node_ty n with
  | Some (Sva_ir.Ty.Struct "task") -> ()
  | t ->
      Alcotest.failf "expected %%task, got %s"
        (match t with Some t -> Sva_ir.Ty.to_string t | None -> "none")

let test_conflicting_casts_collapse () =
  let _, pa =
    compile
      [
        "struct task { int pid; int st; };\n\
         struct task tasks[8];\n\
         long reinterpret(int i) { long *p = (long*)&tasks[i]; return *p; }";
      ]
  in
  let n = Option.get (Pointsto.global_node pa "tasks") in
  Alcotest.(check bool) "collapsed" false (Pointsto.is_type_homog n)

(* ---------- Section 4.8 heuristics ---------- *)

let test_error_cast_treated_as_null () =
  (* (struct s * )-22 error returns must not poison the partition *)
  let _, pa =
    compile
      [
        "struct s { long v; };\n\
         struct s g;\n\
         struct s *lookup(int c) { if (c) return &g; return (struct s*)-22; }";
      ]
  in
  let n = Option.get (Pointsto.global_node pa "g") in
  Alcotest.(check bool) "still complete" true (Pointsto.is_complete n);
  Alcotest.(check bool) "not unknown" false (Pointsto.has_flag n Pointsto.Unknown)

let test_manufactured_address_is_unknown () =
  let _, pa =
    compile
      [ "long probe(void) { long *p = (long*)0x7fff0000; return *p; }" ]
  in
  let n = node_of pa "probe" 2 in
  ignore n;
  (* some node involved in the deref is incomplete *)
  let any_unknown =
    List.exists
      (fun n -> Pointsto.has_flag n Pointsto.Unknown)
      (Pointsto.nodes pa)
  in
  Alcotest.(check bool) "manufactured -> unknown" true any_unknown

let test_pseudo_alloc_not_unknown () =
  let _, pa =
    compile
      [
        "extern char *sva_pseudo_alloc(long start, long len);\n\
         int probe(void) {\n\
        \  char *bios = sva_pseudo_alloc(0xE0000, 64);\n\
        \  return bios[8];\n\
         }";
      ]
  in
  let any_unknown =
    List.exists (fun n -> Pointsto.has_flag n Pointsto.Unknown) (Pointsto.nodes pa)
  in
  Alcotest.(check bool) "registered manufactured address is analyzable" false
    any_unknown;
  let any_bios =
    List.exists (fun n -> Pointsto.has_flag n Pointsto.Bios) (Pointsto.nodes pa)
  in
  Alcotest.(check bool) "bios flag" true any_bios

let syscall_config =
  {
    Pointsto.default_config with
    Pointsto.syscall_register = Some "sva_register_syscall";
    syscall_invoke = Some "sva_syscall";
  }

let test_syscall_registration_and_internal_calls () =
  let _, pa =
    compile ~config:syscall_config
      [
        "extern void sva_register_syscall(long num, ...);\n\
         extern long sva_syscall(long num, ...);\n\
         long value = 5;\n\
         long sys_probe(long a) { return value + a; }\n\
         void init(void) { sva_register_syscall(7, sys_probe); }\n\
         long internal(void) { return sva_syscall(7, 10); }";
      ]
  in
  Alcotest.(check (list (pair int string))) "table" [ (7, "sys_probe") ]
    (Pointsto.syscall_table pa);
  (* the internal syscall resolved as a direct call: sys_probe's return
     flows to internal's return *)
  match (Pointsto.ret_node pa "internal", Pointsto.ret_node pa "sys_probe") with
  | Some _, Some _ | None, None -> () (* scalar returns may have no node *)
  | _ -> ()

let test_syscall_pointer_params_marked_userspace () =
  let _, pa =
    compile ~config:syscall_config
      [
        "extern void sva_register_syscall(long num, ...);\n\
         long sys_write(long fd, char *buf, long n) { return buf[0] + n; }\n\
         void init(void) { sva_register_syscall(4, sys_write); }";
      ]
  in
  let buf_node = node_of pa "sys_write" 1 in
  Alcotest.(check bool) "userspace-flagged" true
    (Pointsto.has_flag buf_node Pointsto.Userspace);
  (* "as tested": userspace is an incompleteness source... *)
  Alcotest.(check bool) "incomplete" false (Pointsto.is_complete buf_node);
  (* ...and in "entire kernel" mode it is a valid object *)
  let _, pa2 =
    compile
      ~config:{ syscall_config with Pointsto.userspace_valid = true }
      [
        "extern void sva_register_syscall(long num, ...);\n\
         long sys_write(long fd, char *buf, long n) { return buf[0] + n; }\n\
         void init(void) { sva_register_syscall(4, sys_write); }";
      ]
  in
  Alcotest.(check bool) "complete when userspace valid" true
    (Pointsto.is_complete (node_of pa2 "sys_write" 1))

let test_user_copy_heuristic_no_merge () =
  let config =
    { syscall_config with Pointsto.user_copy_functions = [ "copy_from_user" ] }
  in
  let _, pa =
    compile ~config
      [
        "extern long copy_from_user(char *dst, long usrc, long n);\n\
         struct msg { long a; long b; };\n\
         struct msg g_msg;\n\
         long recv(long usrc) {\n\
        \  return copy_from_user((char*)&g_msg, usrc, 16);\n\
         }";
      ]
  in
  (* the heuristic collapses the destination (no type info for the user
     side) but must NOT mark it unknown/incomplete *)
  let n = Option.get (Pointsto.global_node pa "g_msg") in
  Alcotest.(check bool) "complete" true (Pointsto.is_complete n)

(* ---------- porting-configuration toggles (differential) ----------

   Each documented analysis toggle may move classification only in its
   documented direction, observed through the check-insertion summary:
   removing an incompleteness source can only convert reduced checks
   into full checks, adding one can only do the reverse.  Every toggled
   build runs with [~poolcert:true], so the trusted pool-safety checker
   gates each configuration — a toggle that broke certificate emission
   would fail the build outright. *)

let toggle_summary config srcs =
  let b =
    Sva_pipeline.Pipeline.build ~conf:Sva_pipeline.Pipeline.Sva_safe
      ~aconfig:config ~poolcert:true ~name:"toggle" srcs
  in
  Option.get b.Sva_pipeline.Pipeline.bl_summary

let check_direction name (off : Sva_safety.Checkinsert.summary)
    (on : Sva_safety.Checkinsert.summary) =
  (* "on" is the configuration with fewer incompleteness sources *)
  Alcotest.(check bool)
    (name ^ ": reduced checks shrink")
    true
    (on.Sva_safety.Checkinsert.ls_reduced_incomplete
    <= off.Sva_safety.Checkinsert.ls_reduced_incomplete);
  Alcotest.(check bool)
    (name ^ ": full checks grow")
    true
    (on.Sva_safety.Checkinsert.ls_inserted
    >= off.Sva_safety.Checkinsert.ls_inserted);
  Alcotest.(check bool)
    (name ^ ": toggle actually moved classification")
    true
    (on.Sva_safety.Checkinsert.ls_reduced_incomplete
     < off.Sva_safety.Checkinsert.ls_reduced_incomplete
    || on.Sva_safety.Checkinsert.ls_inserted
       > off.Sva_safety.Checkinsert.ls_inserted)

let test_toggle_userspace_valid () =
  (* syscall-handler pointer arguments: an incompleteness source "as
     tested", a valid registered object in "entire kernel" mode *)
  let src =
    "extern void sva_register_syscall(long num, ...);\n\
     long sys_write(long fd, char *buf, long n) { return buf[0] + n; }\n\
     void init(void) { sva_register_syscall(4, sys_write); }"
  in
  let off = toggle_summary syscall_config [ src ] in
  let on =
    toggle_summary
      { syscall_config with Pointsto.userspace_valid = true }
      [ src ]
  in
  check_direction "userspace_valid" off on

let test_toggle_null_small_int_casts () =
  (* (T* )-22 error-encoding casts: manufactured (unknown) pointers when
     the heuristic is off, null when on *)
  let src =
    "struct s { long v; };\n\
     struct s g;\n\
     struct s *lookup(int c) { if (c) return &g; return (struct s*)-22; }\n\
     long use(int c) {\n\
    \  struct s *p = lookup(c);\n\
    \  if (p) return p->v;\n\
    \  return 0;\n\
     }"
  in
  let off =
    toggle_summary
      { Pointsto.default_config with Pointsto.null_small_int_casts = false }
      [ src ]
  in
  let on = toggle_summary Pointsto.default_config [ src ] in
  check_direction "null_small_int_casts" off on

let test_toggle_track_int_ptrs () =
  (* a pointer round-tripped through a pointer-sized integer stays in
     its partition when tracking is on; with tracking off the cast back
     manufactures an unknown pointer *)
  let src =
    "char gbuf[16];\n\
     long enc(void) { return (long)(char*)gbuf; }\n\
     int dec(void) { char *p = (char*)enc(); return p[3]; }"
  in
  let off =
    toggle_summary
      { Pointsto.default_config with Pointsto.track_int_ptrs = false }
      [ src ]
  in
  let on = toggle_summary Pointsto.default_config [ src ] in
  check_direction "track_int_ptrs" off on

(* ---------- allocators ---------- *)

let km_src =
  "extern char *kmalloc(long n);\n\
   long *mk8(void) { return (long*)kmalloc(8); }\n\
   long *mk8b(void) { return (long*)kmalloc(8); }\n\
   char *mk64(void) { return kmalloc(64); }"

let test_size_classes_group_sites () =
  let decl classes =
    [ Allocdecl.ordinary ~free:"kfree" ~size_arg:0 ~size_classes:classes "kmalloc" ]
  in
  (* no classes exposed: all three sites in one metapool group *)
  let m, pa =
    compile ~config:{ Pointsto.default_config with Pointsto.allocators = decl [] }
      [ km_src ]
  in
  let mps = Sva_safety.Metapool.infer m pa (decl []) in
  ignore mps;
  let nodes_of_sites pa =
    List.map
      (fun (al : Pointsto.alloc_site) -> Pointsto.node_id al.Pointsto.al_node)
      (Pointsto.alloc_sites pa)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "merged into one" 1 (List.length (nodes_of_sites pa));
  (* classes exposed: the 8-byte sites merge together, 64 stays apart *)
  let m2, pa2 =
    compile
      ~config:
        { Pointsto.default_config with Pointsto.allocators = decl [ 8; 64 ] }
      [ km_src ]
  in
  let _ = Sva_safety.Metapool.infer m2 pa2 (decl [ 8; 64 ]) in
  Alcotest.(check int) "two class groups" 2 (List.length (nodes_of_sites pa2))

let test_alloc_sites_recorded_once () =
  let decl = [ Allocdecl.ordinary ~size_arg:0 "kmalloc" ] in
  let _, pa =
    compile ~config:{ Pointsto.default_config with Pointsto.allocators = decl }
      [ km_src ]
  in
  Alcotest.(check int) "three sites" 3 (List.length (Pointsto.alloc_sites pa))

(* ---------- call graph ---------- *)

let cg_src =
  "int f1(int x) { return x + 1; }\n\
   int f2(int x) { return x + 2; }\n\
   int dispatch(int which, int v) {\n\
  \  int (*h)(int);\n\
  \  if (which) h = f1; else h = f2;\n\
  \  return h(v);\n\
   }\n\
   int top(void) { return dispatch(1, 10) + f1(1); }"

let test_callgraph () =
  let m, pa = compile [ cg_src ] in
  let cg = Callgraph.build m pa in
  Alcotest.(check (list string)) "direct callees of top" [ "dispatch"; "f1" ]
    (Callgraph.callees cg "top");
  Alcotest.(check (list string)) "indirect targets" [ "f1"; "f2" ]
    (List.sort compare (Callgraph.callees cg "dispatch"));
  Alcotest.(check (list string)) "callers of f2" [ "dispatch" ]
    (Callgraph.callers cg "f2");
  (match Callgraph.indirect_fanout cg with
  | [ (_, n) ] -> Alcotest.(check int) "fanout 2" 2 n
  | l -> Alcotest.failf "expected 1 indirect site, got %d" (List.length l));
  Alcotest.(check (list string)) "reachable" [ "dispatch"; "f1"; "f2"; "top" ]
    (Callgraph.reachable_from cg [ "top" ])

let test_callsig_assert_narrows () =
  (* with mixed signatures in one table, the assertion filters targets *)
  let src =
    "int f1(int x) { return x + 1; }\n\
     long g1(long a, long b) { return a + b; }\n\
     long table[2] = {0, 0};\n\
     void init(void) { table[0] = (long)f1; table[1] = (long)g1; }\n\
     __callsig_assert int call_int(int v) {\n\
    \  int (*h)(int) = (int (*)(int))table[0];\n\
    \  return h(v);\n\
     }\n\
     long call_long(long v) {\n\
    \  long (*h)(long, long) = (long (*)(long, long))table[1];\n\
    \  return h(v, v);\n\
     }"
  in
  let m, pa = compile [ src ] in
  let cg = Callgraph.build m pa in
  let fan fname =
    List.filter_map
      (fun (cs, n) ->
        if cs.Callgraph.cs_func = fname then Some n else None)
      (Callgraph.indirect_fanout cg)
  in
  (* without the assertion, both functions are candidate targets *)
  Alcotest.(check (list int)) "unannotated sees both" [ 2 ] (fan "call_long");
  (* the annotated site is narrowed to signature-compatible targets *)
  Alcotest.(check (list int)) "asserted narrowed" [ 1 ] (fan "call_int")


(* ---------- value-range interval analysis ---------- *)

module Interval = Sva_analysis.Interval

let iv = Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Interval.ival_to_string v))
    Interval.equal_ival

let test_interval_selftest () =
  let n = Interval.selftest () in
  Alcotest.(check bool) "ran checks" true (n > 100_000)

let test_interval_guard_ranges () =
  (* the loop guard bounds the induction variable; certificates prove
     the variable-index gep in-extent *)
  let m, pa =
    compile
      [
        "long vec[64];\n\
         void fill(void) { int i; for (i = 0; i < 64; i = i + 1) vec[i] = i; }";
      ]
  in
  let res = Interval.run m pa in
  let f = Option.get (Sva_ir.Irmod.find_func m "fill") in
  let certified = ref 0 in
  Sva_ir.Func.iter_instrs f (fun _ i ->
      match i.Sva_ir.Instr.kind with
      | Sva_ir.Instr.Gep (_, _) when Interval.certifiable res ~fname:"fill" i ->
          incr certified
      | _ -> ());
  Alcotest.(check bool) "some gep certified" true (!certified > 0)

let test_interval_summaries () =
  (* with a closed module (no entries), argument ranges flow into the
     callee's parameter summary and the return range flows back *)
  let m, pa =
    compile
      [
        "long n_global;\n\
         static long clampf(long x) { if (x > 7) return 7; return x; }\n\
         long driver(void) { n_global = clampf(3) + clampf(5); return n_global; }";
      ]
  in
  let res = Interval.run ~entries:(fun f -> f = "driver") m pa in
  (match Interval.func_summary res "clampf" with
  | Some (params, ret) ->
      Alcotest.check iv "arg range" (Interval.range 3L 5L) params.(0);
      Alcotest.check iv "ret range" (Interval.range 3L 7L) ret
  | None -> Alcotest.fail "no summary for clampf");
  (* as an entry, the same callee's i64 param must stay unbounded *)
  let res2 = Interval.run m pa in
  match Interval.func_summary res2 "clampf" with
  | Some (params, _) ->
      Alcotest.(check bool) "entry param top" true (Interval.is_top params.(0))
  | None -> Alcotest.fail "no summary for clampf"

let test_interval_certificates_validate () =
  (* every emitted certificate index fact proves the in-extent range *)
  let m, pa =
    compile
      [
        "long buf[16];\n\
         long rd(int i) { if (i >= 0) { if (i < 16) return buf[i]; } return 0; }";
      ]
  in
  let res = Interval.run m pa in
  let f = Option.get (Sva_ir.Irmod.find_func m "rd") in
  let seen = ref false in
  Sva_ir.Func.iter_instrs f (fun _ i ->
      if Interval.certifiable res ~fname:"rd" i then begin
        seen := true;
        Alcotest.(check bool) "elide materializes" true
          (Interval.elide res ~fname:"rd" i Interval.Cbounds)
      end);
  Alcotest.(check bool) "guarded gep certified" true !seen;
  let b = Interval.bundle res in
  Alcotest.(check bool) "cert emitted" true (List.length b.Interval.cb_certs = 1)

(* The interval lattice operations against the formulas they replaced,
   on bottom, finite and infinite bounds; the second interval is often a
   separately built copy of the first, equal but not physically equal. *)
let ival_pair_gen =
  let open QCheck2.Gen in
  let bound =
    frequency
      [
        (1, pure None);
        (4, map (fun n -> Some (Int64.of_int n)) (int_range (-6) 6));
        (1, map Option.some (oneofl [ Int64.min_int; Int64.max_int ]));
      ]
  in
  let ival =
    frequency
      [
        (1, pure Interval.Bot);
        ( 5,
          map2
            (fun l h ->
              match (l, h) with
              | Some a, Some b when a > b -> Interval.Iv (h, l)
              | _ -> Interval.Iv (l, h))
            bound bound );
      ]
  in
  let copy = function
    | Interval.Bot -> Interval.Bot
    | Interval.Iv (l, h) ->
        let c = Option.map (fun x -> Int64.add x 0L) in
        Interval.Iv (c l, c h)
  in
  frequency
    [ (2, pair ival ival); (1, map (fun a -> (a, copy a)) ival) ]

let prop_ival_ops =
  let lo_le a b =
    match (a, b) with
    | None, _ -> true
    | _, None -> false
    | Some x, Some y -> x <= y
  and hi_le a b =
    match (a, b) with
    | _, None -> true
    | None, _ -> false
    | Some x, Some y -> x <= y
  in
  let join a b =
    match (a, b) with
    | Interval.Bot, x | x, Interval.Bot -> x
    | Interval.Iv (l1, h1), Interval.Iv (l2, h2) ->
        Interval.Iv
          ((if lo_le l1 l2 then l1 else l2), if hi_le h1 h2 then h2 else h1)
  and meet a b =
    match (a, b) with
    | Interval.Bot, _ | _, Interval.Bot -> Interval.Bot
    | Interval.Iv (l1, h1), Interval.Iv (l2, h2) -> (
        let l = if lo_le l1 l2 then l2 else l1
        and h = if hi_le h1 h2 then h1 else h2 in
        match (l, h) with
        | Some l, Some h when l > h -> Interval.Bot
        | _ -> Interval.Iv (l, h))
  and widen a b =
    match (a, b) with
    | Interval.Bot, x | x, Interval.Bot -> x
    | Interval.Iv (l1, h1), Interval.Iv (l2, h2) ->
        Interval.Iv
          ((if lo_le l1 l2 then l1 else None), if hi_le h2 h1 then h1 else None)
  in
  QCheck2.Test.make ~name:"ival join/meet/widen: old formulas, argument reuse"
    ~count:2000 ival_pair_gen (fun (a, b) ->
      let op name f reference =
        let r = f a b in
        if r <> reference a b then
          QCheck2.Test.fail_reportf "%s %s %s = %s" name
            (Interval.ival_to_string a) (Interval.ival_to_string b)
            (Interval.ival_to_string r);
        if (r = a || r = b) && not (r == a || r == b) then
          QCheck2.Test.fail_reportf "%s %s %s: a fresh copy of an argument"
            name (Interval.ival_to_string a) (Interval.ival_to_string b)
      in
      op "join" Interval.join_ival join;
      op "meet" Interval.meet_ival meet;
      op "widen" Interval.widen_ival widen;
      Interval.equal_ival a b = (a = b))

(* A never-called function of a closed module keeps bottom ranges, and
   its plain facts list them: every integer parameter and every integer
   result of a reachable block. *)
let test_interval_plain_bottom () =
  let m, pa =
    compile
      [
        "static long dead(long x) { return x + 1; }
         long live(void) { return 3; }";
      ]
  in
  let res = Interval.run ~entries:(fun f -> f = "live") m pa in
  let facts = Interval.plain_facts res ~fname:"dead" in
  Alcotest.(check bool) "facts listed" true (facts <> []);
  List.iter
    (fun (r, v) ->
      Alcotest.(check string) (Printf.sprintf "%%%d" r) "bot"
        (Interval.ival_to_string v))
    facts;
  Alcotest.(check bool) "parameter listed" true (List.mem_assoc 0 facts)

(* ---------- concurrency-safety pass: lattice laws + detector ---------- *)

module Lockset = Sva_analysis.Lockset
module Pipeline = Sva_pipeline.Pipeline
module Kbuild = Ukern.Kbuild

let prot_gen =
  QCheck2.Gen.(
    map2
      (fun m ls ->
        { Lockset.p_masked = m; Lockset.p_locks = Lockset.SS.of_list ls })
      bool
      (list_size (int_range 0 4) (oneofl [ "a"; "b"; "c"; "d" ])))

let prop_join_comm =
  QCheck2.Test.make ~name:"prot_join commutes" ~count:200
    QCheck2.Gen.(pair prot_gen prot_gen)
    (fun (a, b) ->
      Lockset.prot_equal (Lockset.prot_join a b) (Lockset.prot_join b a))

let prop_join_idem =
  QCheck2.Test.make ~name:"prot_join idempotent" ~count:200 prot_gen
    (fun a -> Lockset.prot_equal (Lockset.prot_join a a) a)

let prop_join_assoc =
  QCheck2.Test.make ~name:"prot_join associates" ~count:200
    QCheck2.Gen.(triple prot_gen prot_gen prot_gen)
    (fun (a, b, c) ->
      Lockset.prot_equal
        (Lockset.prot_join a (Lockset.prot_join b c))
        (Lockset.prot_join (Lockset.prot_join a b) c))

let prop_join_lower_bound =
  QCheck2.Test.make ~name:"prot_join is a lower bound" ~count:200
    QCheck2.Gen.(pair prot_gen prot_gen)
    (fun (a, b) ->
      let j = Lockset.prot_join a b in
      Lockset.prot_leq j a && Lockset.prot_leq j b)

let prop_leq_antisym =
  QCheck2.Test.make ~name:"prot_leq antisymmetric" ~count:200
    QCheck2.Gen.(pair prot_gen prot_gen)
    (fun (a, b) ->
      (not (Lockset.prot_leq a b && Lockset.prot_leq b a))
      || Lockset.prot_equal a b)

let prop_leq_monotone =
  QCheck2.Test.make ~name:"prot_join monotone w.r.t. prot_leq" ~count:200
    QCheck2.Gen.(triple prot_gen prot_gen prot_gen)
    (fun (a, b, c) ->
      (not (Lockset.prot_leq a b))
      || Lockset.prot_leq (Lockset.prot_join a c) (Lockset.prot_join b c))

let prop_fact_unreached_identity =
  QCheck2.Test.make ~name:"Unreached is the fact_join identity" ~count:200
    prot_gen
    (fun a ->
      Lockset.fact_equal
        (Lockset.fact_join Lockset.Unreached (Lockset.Known a))
        (Lockset.Known a)
      && Lockset.fact_equal
           (Lockset.fact_join (Lockset.Known a) Lockset.Unreached)
           (Lockset.Known a))

(* A two-sided module: an interrupt handler and a syscall both touch
   [counter].  With the cli/sti window the access pair is atomic; with
   the window removed the detector must report the race. *)
let race_module ~guarded =
  let guard_on = if guarded then "sva_cli();" else ""
  and guard_off = if guarded then "sva_sti();" else "" in
  Printf.sprintf
    "extern void sva_cli(void);\n\
     extern void sva_sti(void);\n\
     extern void sva_register_syscall(long num, void *fn);\n\
     extern void sva_register_interrupt(long vec, void *fn);\n\
     long counter = 0;\n\
     long tick(long icp, long vec, long a2, long a3) {\n\
    \  counter = counter + 1;\n\
    \  return 0;\n\
     }\n\
     long sys_get(long a0, long a1, long a2, long a3) {\n\
    \  %s\n\
    \  long v = counter;\n\
    \  counter = 0;\n\
    \  %s\n\
    \  return v;\n\
     }\n\
     void init(void) {\n\
    \  sva_register_syscall(1, sys_get);\n\
    \  sva_register_interrupt(0, tick);\n\
     }\n"
    guard_on guard_off

let run_lockset srcs =
  let m, pa = compile srcs in
  (m, Lockset.run m pa)

let test_lockset_masked_window_clean () =
  let _, r = run_lockset [ race_module ~guarded:true ] in
  Alcotest.(check int) "no findings" 0 (List.length (Lockset.findings r));
  Alcotest.(check bool) "counter is shared" true (Lockset.shared_count r > 0);
  Alcotest.(check bool) "accesses certified" true (Lockset.cert_count r > 0)

let test_lockset_unmasked_window_races () =
  let _, r = run_lockset [ race_module ~guarded:false ] in
  Alcotest.(check bool) "race reported" true
    (Lockset.count_findings r "race" > 0);
  Alcotest.(check bool) "race is in sys_get or tick" true
    (List.for_all
       (fun (f : Lockset.finding) ->
         f.Lockset.lf_func = "sys_get" || f.Lockset.lf_func = "tick")
       (Lockset.findings r))

let test_lockset_deterministic () =
  let _, r1 = run_lockset [ race_module ~guarded:false ] in
  let _, r2 = run_lockset [ race_module ~guarded:false ] in
  Alcotest.(check bool) "findings stable across runs" true
    (List.map Lockset.render_finding (Lockset.findings r1)
    = List.map Lockset.render_finding (Lockset.findings r2))

(* The shipped kernel is the zero-false-positive regression: every
   checker must stay silent, while the analysis still classifies shared
   state and certifies accesses (silence must not mean blindness). *)
let test_kernel_audits_clean () =
  let v = Kbuild.as_tested in
  let m = Pipeline.compile ~name:"ukern-conc-test" (Kbuild.sources v) in
  let pa = Pointsto.run ~config:(Kbuild.aconfig v) m in
  let r = Lockset.run m pa in
  List.iter
    (fun c ->
      Alcotest.(check int) ("clean kernel: " ^ c) 0 (Lockset.count_findings r c))
    [ "race"; "deadlock"; "cli-imbalance"; "lock-imbalance"; "atomic-sleep" ];
  Alcotest.(check bool) "shared classes found" true (Lockset.shared_count r > 0);
  Alcotest.(check bool) "accesses certified" true (Lockset.cert_count r > 0);
  Alcotest.(check bool) "entry protections known" true
    (Lockset.entry_config r "kernel_syscall_entry" <> None)

let () =
  Alcotest.run "sva_analysis"
    [
      ( "unification",
        [
          Alcotest.test_case "assignment unifies" `Quick test_assignment_unifies;
          Alcotest.test_case "distinct stay distinct" `Quick
            test_distinct_objects_stay_distinct;
          Alcotest.test_case "store creates edge" `Quick test_store_creates_edge;
        ] );
      ( "type-homogeneity",
        [
          Alcotest.test_case "inference" `Quick test_th_inference;
          Alcotest.test_case "casts collapse" `Quick test_conflicting_casts_collapse;
        ] );
      ( "kernel-heuristics",
        [
          Alcotest.test_case "error casts are null" `Quick
            test_error_cast_treated_as_null;
          Alcotest.test_case "manufactured address" `Quick
            test_manufactured_address_is_unknown;
          Alcotest.test_case "pseudo_alloc analyzable" `Quick
            test_pseudo_alloc_not_unknown;
          Alcotest.test_case "syscall registration" `Quick
            test_syscall_registration_and_internal_calls;
          Alcotest.test_case "userspace params" `Quick
            test_syscall_pointer_params_marked_userspace;
          Alcotest.test_case "user-copy heuristic" `Quick
            test_user_copy_heuristic_no_merge;
        ] );
      ( "config-toggles",
        [
          Alcotest.test_case "userspace_valid differential" `Quick
            test_toggle_userspace_valid;
          Alcotest.test_case "null_small_int_casts differential" `Quick
            test_toggle_null_small_int_casts;
          Alcotest.test_case "track_int_ptrs differential" `Quick
            test_toggle_track_int_ptrs;
        ] );
      ( "allocators",
        [
          Alcotest.test_case "size classes" `Quick test_size_classes_group_sites;
          Alcotest.test_case "sites recorded" `Quick test_alloc_sites_recorded_once;
        ] );
      ( "interval",
        [
          Alcotest.test_case "kernel selftest" `Quick test_interval_selftest;
          Alcotest.test_case "guard ranges certify" `Quick
            test_interval_guard_ranges;
          Alcotest.test_case "interprocedural summaries" `Quick
            test_interval_summaries;
          Alcotest.test_case "certificates validate" `Quick
            test_interval_certificates_validate;
          Alcotest.test_case "plain facts keep bottom" `Quick
            test_interval_plain_bottom;
          QCheck_alcotest.to_alcotest prop_ival_ops;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "construction" `Quick test_callgraph;
          Alcotest.test_case "callsig assert narrows" `Quick
            test_callsig_assert_narrows;
        ] );
      ( "lockset-lattice",
        [
          QCheck_alcotest.to_alcotest prop_join_comm;
          QCheck_alcotest.to_alcotest prop_join_idem;
          QCheck_alcotest.to_alcotest prop_join_assoc;
          QCheck_alcotest.to_alcotest prop_join_lower_bound;
          QCheck_alcotest.to_alcotest prop_leq_antisym;
          QCheck_alcotest.to_alcotest prop_leq_monotone;
          QCheck_alcotest.to_alcotest prop_fact_unreached_identity;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "masked window is atomic" `Quick
            test_lockset_masked_window_clean;
          Alcotest.test_case "unmasked window races" `Quick
            test_lockset_unmasked_window_races;
          Alcotest.test_case "deterministic" `Quick test_lockset_deterministic;
          Alcotest.test_case "kernel audits clean" `Quick
            test_kernel_audits_clean;
        ] );
    ]

(* Tests for the Section 4.8 optimizations: function cloning and
   devirtualization — each must preserve program behaviour while
   changing the static check/precision profile. *)

open Sva_pipeline
module Pointsto = Sva_analysis.Pointsto
module Allocdecl = Sva_analysis.Allocdecl
module Clone = Sva_analysis.Clone
module Stats = Sva_rt.Stats

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
      [
        (* size classes exposed so distinct-size allocation sites are not
           merged by metapool inference (Section 6.2) *)
        Allocdecl.ordinary ~free:"kfree" ~size_arg:0
          ~size_classes:[ 8; 16; 32; 64; 128 ] "kmalloc";
      ];
  }

let run built fn args =
  let t = Pipeline.instantiate built in
  Sva_interp.Interp.call t fn (List.map Int64.of_int args)

(* ---------- cloning ---------- *)

let cloning_src =
  "struct a { long x; };\n\
   struct b { long y; long z; };\n\
   extern char *kmalloc(long n);\n\
   long read_first(long *p) { return *p; }\n\
   long drive(void) {\n\
  \  struct a *pa = (struct a*)kmalloc(sizeof(struct a));\n\
  \  struct b *pb = (struct b*)kmalloc(sizeof(struct b));\n\
  \  pa->x = 5;\n\
  \  pb->y = 6; pb->z = 7;\n\
  \  return read_first((long*)pa) + read_first((long*)pb);\n\
   }"

(* Are the two kmalloc allocation sites in one merged partition? *)
let alloc_sites_merged built =
  let pa = Option.get built.Pipeline.bl_pa in
  match
    List.filter
      (fun (al : Pointsto.alloc_site) -> al.Pointsto.al_alloc = "kmalloc")
      (Pointsto.alloc_sites pa)
  with
  | [ a; b ] -> Pointsto.same_node a.Pointsto.al_node b.Pointsto.al_node
  | sites -> Alcotest.failf "expected 2 kmalloc sites, got %d" (List.length sites)

let test_cloning_improves_precision () =
  (* Without cloning, both objects flow into read_first's parameter and
     merge into one partition; with cloning each call site keeps its own
     (the Section 4.8 improvement). *)
  let build clone =
    Pipeline.build ~conf:Pipeline.Sva_safe ~aconfig ~clone ~name:"cl"
      [ allocator_src; cloning_src ]
  in
  let without = build false and with_ = build true in
  Alcotest.(check bool) "clones created" true (with_.Pipeline.bl_cloned >= 1);
  Alcotest.(check bool) "merged without cloning" true
    (alloc_sites_merged without);
  Alcotest.(check bool) "distinct with cloning" false
    (alloc_sites_merged with_);
  (* behaviour preserved *)
  Alcotest.(check (option int64)) "same result" (run without "drive" [])
    (run with_ "drive" [])

let test_clone_function_is_deep_enough () =
  let m = Minic.Lower.compile_string ~name:"c" "int f(int x) { return x + 1; }" in
  let f = Option.get (Sva_ir.Irmod.find_func m "f") in
  let g = Clone.clone_function m f "f.copy" in
  Alcotest.(check bool) "registered" true (Sva_ir.Irmod.find_func m "f.copy" <> None);
  Sva_ir.Verify.check m;
  (* mutating the clone's block list must not affect the original *)
  g.Sva_ir.Func.f_blocks <- [];
  Alcotest.(check bool) "original intact" true (f.Sva_ir.Func.f_blocks <> [])

(* ---------- devirtualization ---------- *)

let devirt_src =
  "int inc(int x) { return x + 1; }\n\
   int dec(int x) { return x - 1; }\n\
   __callsig_assert int apply(int which, int v) {\n\
  \  int (*f)(int);\n\
  \  if (which) f = inc; else f = dec;\n\
  \  return f(v);\n\
   }"

let test_devirt_rewrites_and_preserves () =
  let build devirt =
    Pipeline.build ~conf:Pipeline.Sva_safe ~aconfig ~devirt ~name:"dv"
      [ allocator_src; devirt_src ]
  in
  let plain = build false and dv = build true in
  Alcotest.(check int) "one site devirtualized" 1 dv.Pipeline.bl_devirt;
  List.iter
    (fun (which, v, expect) ->
      Alcotest.(check (option int64))
        (Printf.sprintf "apply(%d,%d)" which v)
        (Some expect)
        (run dv "apply" [ which; v ]);
      Alcotest.(check (option int64)) "plain agrees" (Some expect)
        (run plain "apply" [ which; v ]))
    [ (1, 10, 11L); (0, 10, 9L) ];
  (* devirtualized dispatch no longer consults the run-time target set *)
  Stats.reset ();
  ignore (run dv "apply" [ 1; 5 ]);
  Alcotest.(check int) "no run-time funcchecks" 0
    (Stats.read ()).Stats.funcchecks

let () =
  Alcotest.run "sva_opts"
    [
      ( "cloning",
        [
          Alcotest.test_case "precision improves" `Quick
            test_cloning_improves_precision;
          Alcotest.test_case "clone independence" `Quick
            test_clone_function_is_deep_enough;
        ] );
      ( "devirt",
        [
          Alcotest.test_case "rewrite preserves behaviour" `Quick
            test_devirt_rewrites_and_preserves;
        ] );
    ]

(* Lint demo: the static sanitizer layer (DESIGN.md Section 9).

     dune exec examples/lint_demo.exe

   The run-time checks catch memory-safety violations as they happen; the
   lint layer finds whole classes of kernel bugs before the code ever
   runs, using an interprocedural dataflow solver over the same SVA IR
   the safety passes consume.  We lint a small "vendor module" seeded
   with one bug per checker, fix the bugs and watch it lint clean, then
   show the flip side: the safe-access prover discharging load/store
   checks statically, so the instrumented build carries fewer run-time
   checks with identical behaviour. *)

module Pipeline = Sva_pipeline.Pipeline
module Pointsto = Sva_analysis.Pointsto
module Allocdecl = Sva_analysis.Allocdecl
module Lint = Sva_lint.Lint
module Checkinsert = Sva_safety.Checkinsert

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
    Pointsto.syscall_register = Some "sva_register_syscall";
    syscall_invoke = Some "sva_syscall";
    allocators =
      [
        Allocdecl.ordinary ~free:"kfree" ~size_arg:0
          ~size_classes:[ 8; 16; 32; 64; 128 ] "kmalloc";
      ];
  }

let lconfig = Lint.config_of_aconfig ~extra_trusted:[ "copy_from_user" ] aconfig

(* One bug per checker:
   - sys_peek dereferences its user-supplied pointer without passing it
     through copy_from_user (user-taint);
   - get_cell dereferences a pointer that is null on every path reaching
     the load (null-deref);
   - on_tick is an interrupt handler whose helper calls the sleeping
     allocator vmalloc (irq-sleep). *)
let buggy =
  {|
    extern void sva_register_syscall(long num, ...);
    extern void sva_register_interrupt(long vec, ...);
    extern char *vmalloc(long n);
    extern long copy_from_user(char *dst, char *src, long n);

    long sys_peek(long uptr, long a1, long a2, long a3) {
      long *p = (long*)uptr;
      return *p;                 /* user pointer dereferenced directly */
    }

    long get_cell(int flag) {
      long *p = (long*)0;
      if (flag) return 0;
      return *p;                 /* definitely null here */
    }

    char *tick_buf = 0;
    void refill(void) {
      tick_buf = vmalloc(4096);  /* sleeping allocation ... */
    }
    long on_tick(long icp, long vec, long a2, long a3) {
      refill();                  /* ... reached from an interrupt handler */
      return 0;
    }

    void init(void) {
      sva_register_syscall(40, sys_peek);
      sva_register_interrupt(7, on_tick);
    }
  |}

let lint src =
  let m = Pipeline.compile ~name:"demo" [ src ] in
  let pa = Pointsto.run ~config:aconfig m in
  Lint.run ~config:lconfig m pa

let () =
  print_endline "== three seeded bugs, three checkers ==";
  let r = lint buggy in
  print_string (Lint.render r);
  List.iter
    (fun (checker, n) -> Printf.printf "  %-12s %d finding(s)\n" checker n)
    r.Lint.lr_counts;

  print_endline "";
  print_endline "== the fixed module lints clean ==";
  let fixed =
    {|
    extern void sva_register_syscall(long num, ...);
    extern long copy_from_user(char *dst, char *src, long n);

    long cell = 42;

    long sys_peek(long uptr, long a1, long a2, long a3) {
      long v = 0;
      if (copy_from_user((char*)&v, (char*)uptr, 8) < 0) return -1;
      return v;                  /* fetched through the trusted boundary */
    }

    long get_cell(int flag) {
      long *p = (long*)0;
      if (flag) p = &cell;
      if (p == 0) return -1;     /* guard refines p to non-null */
      return *p;
    }

    void init(void) { sva_register_syscall(40, sys_peek); }
  |}
  in
  let r = lint fixed in
  Printf.printf "  %d findings\n" (List.length r.Lint.lr_findings);

  print_endline "";
  print_endline "== proofs elide run-time checks ==";
  (* A provable access pattern: a fixed-size array walked with masked
     indices can never go out of bounds, so the prover lets Checkinsert
     skip the load/store checks.  The int-typed alias collapses the
     pool's type-homogeneity, so without the proofs every access would
     carry a run-time lscheck. *)
  let provable =
    {|
    long sum(long seed) {
      long a[4];
      int *alias = (int*)a;
      *alias = 7;
      a[0] = seed;
      a[1] = seed + 1;
      a[2] = a[0] + a[1];
      a[3] = a[2] * 2;
      return a[3];
    }
  |}
  in
  let build ?lint () =
    Pipeline.build ~conf:Pipeline.Sva_safe ~aconfig ?lint ~name:"demo"
      [ allocator_src; provable ]
  in
  let stats b =
    match b.Pipeline.bl_summary with
    | Some (s : Checkinsert.summary) -> s.Checkinsert.ls_inserted
    | None -> 0
  in
  let plain = build () and linted = build ~lint:lconfig () in
  Printf.printf "  load/store checks inserted: %d without lint, %d with\n"
    (stats plain) (stats linted);
  let run b =
    let t = Pipeline.instantiate b in
    Sva_interp.Interp.call t "sum" [ 3L ]
  in
  (match (run plain, run linted) with
  | Some a, Some b when a = b ->
      Printf.printf "  both builds compute sum(3) = %Ld\n" a
  | _ -> failwith "builds disagree");
  print_endline "";
  print_endline "Try: dune exec bin/sva_lint.exe -- --fixture";
  print_endline "     (the kernel plus five seeded bugs, all flagged)"

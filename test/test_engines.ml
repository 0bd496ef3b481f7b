(* The two execution engines: AOT (closure-compiled code with a signed
   translation cache) must be semantically invisible — identical results,
   traps, exploit verdicts, check statistics and modeled cycle counts as
   the pre-decoded interpreter.  Plus the Section 3.4 cache integrity
   story: entries are signed, reuse verifies the signature, and a
   tampered entry falls back to re-translation. *)

module Pipeline = Sva_pipeline.Pipeline
module Interp = Sva_interp.Interp
module Closcomp = Sva_interp.Closcomp
module Tcache_disk = Sva_interp.Tcache_disk
module Signing = Sva_bytecode.Signing
module Stats = Sva_rt.Stats
module Boot = Ukern.Boot

let aot_engine ?dir () =
  { Pipeline.aot_engine with Pipeline.eng_tcache_dir = dir }

(* ---------- differential property: random programs ---------- *)

(* Random arithmetic over operands of every integer width and
   signedness: the int parameters, a computed c, and locals of type
   char, short, long, unsigned and unsigned long.  Compares mix signed
   and unsigned operands, casts narrow and widen, and / and % divide by
   nonzero constants and by an odd variable, so no program traps and
   every seed reaches the hot loop; test_division_by_zero_traps covers
   the zero divisor. *)
let leaves = [| "a"; "b"; "c"; "ch"; "sh"; "lg"; "u"; "ul" |]
let cmps = [| "<"; "<="; ">"; ">="; "=="; "!=" |]
let casts = [| "char"; "short"; "long"; "unsigned"; "unsigned long"; "int" |]
let divisors = [| 1; 2; 3; 5; 7; 9; 11; -5; 16 |]

let rec gen_expr ?(leaves = leaves) rng depth =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  if depth = 0 then
    if Random.State.int rng 5 = 0 then
      string_of_int (Random.State.int rng 2000 - 1000)
    else pick leaves
  else
    let l = gen_expr ~leaves rng (depth - 1)
    and r = gen_expr ~leaves rng (depth - 1) in
    let divisor () =
      if Random.State.bool rng then string_of_int (pick divisors)
      else Printf.sprintf "((%s & 15) | 1)" r
    in
    match Random.State.int rng 14 with
    | 0 -> Printf.sprintf "(%s + %s)" l r
    | 1 -> Printf.sprintf "(%s - %s)" l r
    | 2 -> Printf.sprintf "(%s * %s)" l r
    | 3 -> Printf.sprintf "(%s & %s)" l r
    | 4 -> Printf.sprintf "(%s | %s)" l r
    | 5 -> Printf.sprintf "(%s ^ %s)" l r
    | 6 -> Printf.sprintf "(%s << %d)" l (Random.State.int rng 8)
    | 7 -> Printf.sprintf "(%s >> %d)" l (Random.State.int rng 8)
    | 8 -> Printf.sprintf "(%s >> (%s & 7))" l r
    | 9 -> Printf.sprintf "(%s < %s ? %s : %s)" l r l r
    | 10 -> Printf.sprintf "(%s %s %s)" l (pick cmps) r
    | 11 -> Printf.sprintf "((%s)(%s))" (pick casts) l
    | 12 -> Printf.sprintf "(%s / %s)" l (divisor ())
    | _ -> Printf.sprintf "(%s %% %s)" l (divisor ())

let gen_program seed =
  let rng = Random.State.make [| seed |] in
  let e1 = gen_expr rng 3 in
  let e2 = gen_expr rng 3 in
  let e3 = gen_expr rng 2 in
  let shift = Random.State.int rng 8 in
  Printf.sprintf
    "int helper(int x, int i) { return (x ^ (x << %d)) + i * 3; }\n\
     int f(int a, int b) {\n\
    \  char ch = (char)(a * 7 + b);\n\
    \  short sh = (short)(a * 131 - b);\n\
    \  long lg = (long)a * 100003 + b;\n\
    \  unsigned u = (unsigned)(a ^ (b << 9));\n\
    \  unsigned long ul = (unsigned long)lg * 977;\n\
    \  int c = %s;\n\
    \  int acc = 0;\n\
    \  for (int i = 0; i < 8; i++) {\n\
    \    if ((%s) > acc) acc += helper(c, i); else acc ^= (%s);\n\
    \    c = c + i;\n\
    \  }\n\
    \  return acc;\n\
     }"
    shift e1 e2 e3

(* Run a safe-built module's [f] on an engine, under an optional step
   limit: result (or trap message), step count, modeled cycles and the
   check-stat snapshot. *)
let run_built ?limit built engine args =
  Stats.reset ();
  let t = Pipeline.instantiate ?engine built in
  Interp.set_step_limit t limit;
  let r =
    match Interp.call t "f" args with
    | v -> Ok v
    | exception Interp.Vm_error m -> Error ("vm: " ^ m)
    | exception Sva_rt.Violation.Safety_violation v ->
        Error ("violation: " ^ Sva_rt.Violation.to_string v)
  in
  (r, Interp.steps t, Interp.cycles t, Stats.read ())

let prop_engines_agree =
  let gen =
    QCheck2.Gen.(tup3 (int_range 0 5000) small_signed_int small_signed_int)
  in
  QCheck2.Test.make ~name:"aot and interpreter agree on random programs"
    ~count:30 gen (fun (seed, a, b) ->
      let src = gen_program seed in
      let built =
        Pipeline.build ~conf:Pipeline.Sva_safe ~name:"rand" [ src ]
      in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let ri = run_built built None args in
      Closcomp.clear_cache ();
      ri = run_built built (Some (aot_engine ())) args)

(* Every compiled closure checks the step limit where the interpreter
   does.  A limit from 0 to one past the interpreter's step count stops
   both engines at the same step with the same trap, or lets both
   finish. *)
let prop_step_limit_agrees =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 5000) small_signed_int small_signed_int
        (int_range 0 1_000_000))
  in
  QCheck2.Test.make
    ~name:"a step limit stops every engine at the same step" ~count:30 gen
    (fun (seed, a, b, r) ->
      let built =
        Pipeline.build ~conf:Pipeline.Sva_safe ~name:"rand"
          [ gen_program seed ]
      in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let _, steps, _, _ = run_built built None args in
      let limit = r mod (steps + 2) in
      let run engine =
        Closcomp.clear_cache ();
        run_built ~limit built engine args
      in
      let ri = run None in
      ri = run (Some (aot_engine ())))

(* Same property with the certified range elision on: the elided-check
   module must behave identically on both engines too. *)
let gen_range_program seed =
  let rng = Random.State.make [| seed |] in
  let e = gen_expr ~leaves:[| "a"; "b"; "c" |] rng 2 in
  let mask = (1 lsl (1 + Random.State.int rng 6)) - 1 in
  Printf.sprintf
    "int tbl[64];\n\
     int f(int a, int b) {\n\
    \  int c = %s;\n\
    \  long acc = 0;\n\
    \  for (long i = 0; i < 64; i = i + 1) tbl[i] = (int)(i + c);\n\
    \  for (long i = 0; i < 64; i = i + 1) acc = acc + tbl[i];\n\
    \  long k = (long)(a + b) & %d;\n\
    \  acc = acc + tbl[k];\n\
    \  return (int)acc;\n\
     }"
    e mask

let prop_engines_agree_with_ranges =
  let gen =
    QCheck2.Gen.(tup3 (int_range 0 5000) small_signed_int small_signed_int)
  in
  QCheck2.Test.make
    ~name:"range elision: aot agrees with the interpreter"
    ~count:15 gen
    (fun (seed, a, b) ->
      let src = gen_range_program seed in
      let built =
        Pipeline.build ~conf:Pipeline.Sva_safe ~ranges:true ~name:"rand-rg"
          [ src ]
      in
      let args = [ Int64.of_int a; Int64.of_int b ] in
      let ri = run_built built None args in
      Closcomp.clear_cache ();
      ri = run_built built (Some (aot_engine ())) args)

(* A zero divisor, constant or in a register, traps with the same
   message on both engines. *)
let test_division_by_zero_traps () =
  List.iter
    (fun body ->
      let src = Printf.sprintf "int f(int a, int b) { return %s; }" body in
      let built = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"div0" [ src ] in
      let args = [ 7L; 0L ] in
      let outcome engine =
        Closcomp.clear_cache ();
        let r, _, _, _ = run_built built engine args in
        r
      in
      let expected = Error "vm: division by zero in @f" in
      List.iter
        (fun (name, engine) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" body name) true
            (outcome engine = expected))
        [ ("interpreter", None); ("aot", Some (aot_engine ())) ])
    [ "a / b"; "a % b"; "a / 0"; "a % 0"; "(unsigned)a / (unsigned)b";
      "(unsigned long)a % (unsigned long)b" ]

(* ---------- every integer opcode, one instruction at a time ---------- *)

module Irmod = Sva_ir.Irmod
module Func = Sva_ir.Func
module Builder = Sva_ir.Builder
module Instr = Sva_ir.Instr
module Ty = Sva_ir.Ty
module Value = Sva_ir.Value

type one_op = Bin of Instr.binop | Cmp of Instr.icmp | Cast of Instr.cast

let one_ops =
  List.map (fun o -> Bin o)
    Instr.[ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; And; Or; Xor; Shl; Lshr; Ashr ]
  @ List.map (fun p -> Cmp p)
      Instr.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]
  @ List.map (fun c -> Cast c)
      Instr.[ Bitcast; Inttoptr; Ptrtoint; Trunc; Zext; Sext; Fptosi; Sitofp ]

(* [f(a, b) = a OP b] at width [w], one instruction and a return.  A
   binop or compare takes its second operand as the constant [k] when
   [shape] is 1 and its first when [shape] is 2.  A cast converts [a]
   between [w] and 64 bits (or a pointer, or a float). *)
let one_instr_module op w shape k =
  let m = Irmod.create "one" in
  let iw = Ty.Int w in
  let ptr = Ty.Ptr (Ty.Int 8) in
  let src_ty, ret_ty =
    match op with
    | Bin _ -> (iw, iw)
    | Cmp _ -> (iw, Ty.Int 1)
    | Cast Instr.Trunc -> (Ty.Int 64, iw)
    | Cast (Instr.Zext | Instr.Sext) -> (iw, Ty.Int 64)
    | Cast Instr.Bitcast -> (iw, iw)
    | Cast Instr.Inttoptr -> (iw, ptr)
    | Cast Instr.Ptrtoint -> (ptr, iw)
    | Cast Instr.Fptosi -> (Ty.Float, iw)
    | Cast Instr.Sitofp -> (iw, Ty.Float)
  in
  let f = Func.create "f" ret_ty [ ("a", src_ty); ("b", src_ty) ] in
  Irmod.add_func m f;
  let bld = Builder.create m f in
  ignore (Builder.start_block bld "entry");
  let a = Func.param_value f 0 and b = Func.param_value f 1 in
  let kv = Value.Imm (src_ty, k) in
  let x, y = match shape with 1 -> (a, kv) | 2 -> (kv, b) | _ -> (a, b) in
  let r =
    match op with
    | Bin o -> Builder.b_binop bld o x y
    | Cmp p -> Builder.b_icmp bld p x y
    | Cast c -> Builder.b_cast bld c a ret_ty
  in
  Builder.b_ret bld (Some r);
  Sva_ir.Verify.check m;
  m

(* Result (or the exception's text), steps and modeled cycles of [f] on
   the interpreter or on AOT. *)
let run_one m ~aot args =
  let t = Interp.load m in
  if aot then begin
    Closcomp.enable ~threshold:1 t;
    Closcomp.compile_all t
  end;
  let r =
    match Interp.call t "f" args with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  (r, Interp.steps t, Interp.cycles t)

(* Each case draws one set of operands and runs every opcode at every
   width with both operands in registers and with either one constant.
   Half the cases pass operands not truncated to the width, which the
   engines must treat alike too; a small second operand reaches the zero
   divisor and the shift edges. *)
let op_name = function
  | Bin o -> Sva_ir.Pp.string_of_binop o
  | Cmp p -> "icmp " ^ Sva_ir.Pp.string_of_icmp p
  | Cast c -> Sva_ir.Pp.string_of_cast c

(* A mismatch names the instruction rather than shrinking the operands:
   every shrink step would rerun all the opcodes. *)
let prop_opcodes_agree =
  let gen =
    QCheck2.Gen.(
      no_shrink (tup3 (tup3 ui64 ui64 ui64) bool (int_range (-3) 3)))
  in
  QCheck2.Test.make
    ~name:"every integer opcode agrees between the interpreter and aot"
    ~count:8 gen
    (fun ((a, b, k), canonical, small) ->
      let b = if small <> 0 then Int64.of_int small else b in
      List.for_all
        (fun op ->
          List.for_all
            (fun w ->
              let canon v =
                if canonical then Sva_ir.Constfold.truncate_to_width w v else v
              in
              let args = [ canon a; canon b ] in
              List.for_all
                (fun shape ->
                  let m = one_instr_module op w shape k in
                  run_one m ~aot:false args = run_one m ~aot:true args
                  || QCheck2.Test.fail_reportf
                       "%s at i%d, shape %d, k = %Ld, args %Ld, %Ld" (op_name op)
                       w shape k (List.nth args 0) (List.nth args 1))
                [ 0; 1; 2 ])
            [ 1; 8; 16; 32; 64 ])
        one_ops)

(* A gep into a [6 x [10 x i32]] through a register base, with one, two
   or three register indices and the rest constant:
   [f(p, i, j) = ptrtoint (gep p idxs)].  One register index compiles to
   an inline term, more take the interpreter's gep_offset; AOT must
   compute the interpreter's address either way. *)
let test_register_index_geps () =
  let i64 = Ty.Int 64 in
  let arr = Ty.Array (Ty.Array (Ty.Int 32, 10), 6) in
  List.iter
    (fun nregs ->
      let m = Irmod.create "gep" in
      let f =
        Func.create "f" i64 [ ("p", Ty.Ptr arr); ("i", i64); ("j", i64) ]
      in
      Irmod.add_func m f;
      let bld = Builder.create m f in
      ignore (Builder.start_block bld "entry");
      let p = Func.param_value f 0 and i = Func.param_value f 1 in
      let j = Func.param_value f 2 and k = Value.Imm (i64, 3L) in
      let idxs =
        match nregs with 1 -> [ i; k; k ] | 2 -> [ i; j; k ] | _ -> [ i; j; i ]
      in
      let g = Builder.b_gep bld p idxs in
      Builder.b_ret bld (Some (Builder.b_cast bld Instr.Ptrtoint g i64));
      Sva_ir.Verify.check m;
      List.iter
        (fun (i, j) ->
          let args = [ 0x10000L; i; j ] in
          Alcotest.(check bool)
            (Printf.sprintf "%d register indices, i = %Ld, j = %Ld" nregs i j)
            true
            (run_one m ~aot:false args = run_one m ~aot:true args))
        [ (0L, 0L); (2L, 7L); (5L, -3L); (-1L, 9L) ])
    [ 1; 2; 3 ]

(* ---------- the five exploits agree on both engines ---------- *)

let built_cache = Hashtbl.create 4

let kernel ?engine conf =
  let b =
    match Hashtbl.find_opt built_cache conf with
    | Some b -> b
    | None ->
        let b = Ukern.Kbuild.build ~conf Ukern.Kbuild.as_tested in
        Hashtbl.replace built_cache conf b;
        b
  in
  Boot.boot_built ?engine b ~variant:Ukern.Kbuild.as_tested

let test_exploit_verdicts_agree () =
  List.iter
    (fun ex ->
      let verdict engine =
        let t = kernel ?engine Pipeline.Sva_safe in
        Exploits.outcome_to_string (Exploits.attack t ex)
      in
      let vi = verdict None in
      Closcomp.clear_cache ();
      Alcotest.(check string)
        (Printf.sprintf "verdict for %s" (Exploits.name ex))
        vi
        (verdict (Some (aot_engine ()))))
    Exploits.all

(* ---------- a corrupted syscall table slot ---------- *)

(* The getpid slot overwritten with the address of a function outside
   the syscall set: the funccheck in kernel_syscall_entry must stop the
   trap with the same Indirect_call violation on both engines. *)
let test_corrupted_syscall_slot () =
  let violation engine =
    Closcomp.clear_cache ();
    let k = kernel ?engine Pipeline.Sva_safe in
    let slot = Interp.global_addr k.Boot.vm "syscall_table" + 8 in
    Sva_hw.Machine.write_int k.Boot.sys.Sva_os.Svaos.machine ~addr:slot ~width:8
      (Int64.of_int (Interp.func_addr k.Boot.vm "kcopy"));
    match Boot.syscall k 1 [] with
    | r -> Alcotest.failf "getpid through a corrupted slot returned %Ld" r
    | exception Sva_rt.Violation.Safety_violation v ->
        Alcotest.(check bool) "an indirect-call violation" true
          (v.Sva_rt.Violation.v_kind = Sva_rt.Violation.Indirect_call);
        Sva_rt.Violation.to_string v
  in
  Alcotest.(check string) "aot" (violation None)
    (violation (Some (aot_engine ())))

(* ---------- syscall mix: cycles, steps and stats bit-identical ---------- *)

let syscall_mix t =
  ignore (Boot.syscall t 1 []);
  Boot.write_user t 0 "engine.txt\000";
  let fd = Boot.syscall t 4 [ Boot.user_addr t 0; 1L ] in
  Boot.write_user t 1024 "secure virtual architecture";
  ignore (Boot.syscall t 7 [ fd; Boot.user_addr t 1024; 27L ]);
  ignore (Boot.syscall t 20 [ fd; 0L; 0L ]);
  ignore (Boot.syscall t 6 [ fd; Boot.user_addr t 2048; 64L ]);
  ignore (Boot.syscall t 9 [])

let measure_mix engine =
  let t = kernel ?engine Pipeline.Sva_safe in
  Stats.reset ();
  Boot.reset_cycles t;
  Boot.reset_steps t;
  for _ = 1 to 4 do
    syscall_mix t
  done;
  (Boot.cycles t, Boot.steps t, Stats.to_string (Stats.read ()))

(* Compiling the whole kernel at instantiate time must not move a single
   modeled number. *)
let test_syscall_mix_identical_aot () =
  let ci, si, ki = measure_mix None in
  Closcomp.clear_cache ();
  Stats.reset_tier ();
  let ca, sa, ka = measure_mix (Some (aot_engine ())) in
  let tier = Stats.read_tier () in
  Alcotest.(check int) "modeled cycles" ci ca;
  Alcotest.(check int) "steps" si sa;
  Alcotest.(check string) "check stats" ki ka;
  Alcotest.(check bool) "whole kernel was compiled" true
    (tier.Stats.promotions > 0)

(* ---------- allocation pins for warm AOT code ---------- *)

(* Minor-heap words allocated by compiled code, written like the in-page
   scalar test in test_hw.  Each pin sits just above what the closures
   allocate now: mostly the boxed int64 of each register write and each
   call's register file.  A wrap closure per arithmetic step, or a
   funccheck that evaluates all 33 of its operands on every trap, goes
   over. *)

let loop_src =
  "long loop(long n) {\n\
  \  long acc = 0;\n\
  \  for (long i = 0; i < n; i = i + 1) acc = acc + i;\n\
  \  return acc;\n\
   }"

(* 10 steps per iteration: 6 words for the two adds, 3 for the zext of
   the loop test. *)
let test_loop_allocation () =
  let built = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"loop" [ loop_src ] in
  Closcomp.clear_cache ();
  let t = Pipeline.instantiate ~engine:(aot_engine ()) built in
  ignore (Interp.call t "loop" [ 10L ]);
  let s0 = Interp.steps t in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Interp.call t "loop" [ 10_000L ]));
  let words = Gc.minor_words () -. w0 in
  let per_step = words /. float_of_int (Interp.steps t - s0) in
  if per_step > 0.95 then
    Alcotest.failf "%.3f minor words per step of a 64-bit add/compare loop"
      per_step

let test_getpid_allocation () =
  Closcomp.clear_cache ();
  let k = kernel ~engine:(aot_engine ()) Pipeline.Sva_safe in
  for _ = 1 to 3 do
    ignore (Boot.syscall k 1 [])
  done;
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Boot.syscall k 1 []))
  done;
  let per_trap = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_trap > 450. then
    Alcotest.failf "%.0f minor words per getpid trap" per_trap

(* ---------- signed translation cache ---------- *)

let sum_src =
  "int helper(int x) { return x * 3 + 1; }\n\
   int f(int a, int b) {\n\
  \  int acc = 0;\n\
  \  for (int i = 0; i < 8; i++) acc += helper(a + b + i);\n\
  \  return acc;\n\
   }"

let build_sum () = Pipeline.build ~conf:Pipeline.Sva_safe ~name:"sum" [ sum_src ]

let key_of built name =
  match Sva_ir.Irmod.find_func built.Pipeline.bl_mod name with
  | Some fn -> Closcomp.key_of_func fn
  | None -> Alcotest.failf "no function %s in the built module" name

let test_cache_hit_across_instances () =
  let built = build_sum () in
  Closcomp.clear_cache ();
  Stats.reset_tier ();
  let t1 = Pipeline.instantiate ~engine:(aot_engine ()) built in
  let r1 = Interp.call t1 "f" [ 5L; 7L ] in
  let after_first = Stats.read_tier () in
  Alcotest.(check bool) "first run populates the cache" true
    (after_first.Stats.tcache_misses > 0);
  Alcotest.(check bool) "cache holds entries" true (Closcomp.cache_size () > 0);
  (* a second VM instance reuses the signed translations *)
  let t2 = Pipeline.instantiate ~engine:(aot_engine ()) built in
  let r2 = Interp.call t2 "f" [ 5L; 7L ] in
  let after_second = Stats.read_tier () in
  Alcotest.(check bool) "same result" true (r1 = r2);
  Alcotest.(check bool) "cache hits on reuse" true
    (after_second.Stats.tcache_hits > after_first.Stats.tcache_hits);
  Alcotest.(check bool) "signatures were re-verified" true
    (after_second.Stats.sig_verifications > after_first.Stats.sig_verifications)

let test_tampered_entry_falls_back () =
  let built = build_sum () in
  (* reference result from the interpreter *)
  let ti = Pipeline.instantiate built in
  let expected = Interp.call ti "f" [ 5L; 7L ] in
  Closcomp.clear_cache ();
  let t1 = Pipeline.instantiate ~engine:(aot_engine ()) built in
  Alcotest.(check bool) "clean aot run" true
    (Interp.call t1 "f" [ 5L; 7L ] = expected);
  let key = key_of built "f" in
  Alcotest.(check bool) "entry for f is cached" true
    (Closcomp.cached_entry key <> None);
  Alcotest.(check bool) "tampering succeeds" true
    (Closcomp.tamper_cached key Signing.tamper_fentry_signature);
  Stats.reset_tier ();
  let t2 = Pipeline.instantiate ~engine:(aot_engine ()) built in
  let r2 = Interp.call t2 "f" [ 5L; 7L ] in
  let tier = Stats.read_tier () in
  Alcotest.(check bool) "tampered entry detected (cache miss + resign)" true
    (tier.Stats.tcache_misses > 0);
  Alcotest.(check bool) "semantics unchanged after fallback" true
    (r2 = expected);
  (* the fallback re-signed the entry: it verifies again *)
  (match Closcomp.cached_entry key with
  | Some fe ->
      Signing.verify_function fe ~bytecode:fe.Signing.fe_bytecode
        ~native:fe.Signing.fe_native
  | None -> Alcotest.fail "entry missing after fallback")

let test_tampered_native_falls_back () =
  let built = build_sum () in
  Closcomp.clear_cache ();
  let t1 = Pipeline.instantiate ~engine:(aot_engine ()) built in
  let expected = Interp.call t1 "f" [ 2L; 3L ] in
  let key = key_of built "f" in
  Alcotest.(check bool) "tampering succeeds" true
    (Closcomp.tamper_cached key Signing.tamper_fentry_native);
  Stats.reset_tier ();
  let t2 = Pipeline.instantiate ~engine:(aot_engine ()) built in
  Alcotest.(check bool) "fallback reproduces the result" true
    (Interp.call t2 "f" [ 2L; 3L ] = expected);
  Alcotest.(check bool) "tamper counted as a miss" true
    ((Stats.read_tier ()).Stats.tcache_misses > 0)

(* ---------- the deleted tiered engine's two vestiges ---------- *)

(* [Pipeline.Tiered] and [Closcomp.enable]'s [?threshold] stay only
   because bench/perf still names them; neither may select anything. *)
let test_vestiges_reject () =
  let built = build_sum () in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "instantiate on Tiered" (fun () ->
      ignore
        (Pipeline.instantiate
           ~engine:{ Pipeline.default_engine with Pipeline.eng_kind = Pipeline.Tiered }
           built));
  rejects "enable ~threshold:2" (fun () ->
      Closcomp.enable ~threshold:2 (Interp.load built.Pipeline.bl_mod));
  Alcotest.(check bool) "no engine is named tiered" true
    (Pipeline.engine_of_string "tiered" = None)

(* ---------- persistent translation store ---------- *)

let with_store f =
  let dir = Filename.temp_dir "sva-tc-test" "" in
  Fun.protect
    ~finally:(fun () ->
      Tcache_disk.set_dir None;
      Closcomp.clear_cache ();
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let disk_engine dir = aot_engine ~dir ()

(* A fresh process has an empty in-memory cache but the same store: the
   second instantiation must reload every translation from disk,
   re-verify it, and translate nothing. *)
let test_disk_cold_then_warm () =
  let built = build_sum () in
  with_store (fun dir ->
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t1 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let r1 = Interp.call t1 "f" [ 5L; 7L ] in
      let cold = Stats.read_tier () in
      Alcotest.(check bool) "cold run translated" true
        (cold.Stats.tcache_misses > 0);
      Alcotest.(check bool) "cold run persisted entries" true
        (cold.Stats.tcache_disk_writes > 0);
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t2 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let r2 = Interp.call t2 "f" [ 5L; 7L ] in
      let warm = Stats.read_tier () in
      Alcotest.(check bool) "same result" true (r1 = r2);
      Alcotest.(check bool) "warm run hits the store" true
        (warm.Stats.tcache_disk_hits >= 1);
      Alcotest.(check int) "warm run re-translates nothing" 0
        warm.Stats.tcache_misses;
      Alcotest.(check bool) "disk entries were re-verified" true
        (warm.Stats.sig_verifications > 0))

(* Corrupt the on-disk entry for [f] in a given way; the warm run must
   detect it (disk-stale), quietly re-translate, produce the identical
   result, and repair the store. *)
let test_disk_corruption mutate () =
  let built = build_sum () in
  with_store (fun dir ->
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t1 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let expected = Interp.call t1 "f" [ 5L; 7L ] in
      let key = key_of built "f" in
      let path = Filename.concat dir (key ^ ".fent") in
      Alcotest.(check bool) "entry for f is on disk" true (Sys.file_exists path);
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (mutate data));
      Closcomp.clear_cache ();
      Stats.reset_tier ();
      let t2 = Pipeline.instantiate ~engine:(disk_engine dir) built in
      let r = Interp.call t2 "f" [ 5L; 7L ] in
      let tier = Stats.read_tier () in
      Alcotest.(check bool) "identical result after fallback" true
        (r = expected);
      Alcotest.(check bool) "corruption detected as disk-stale" true
        (tier.Stats.tcache_disk_stale > 0);
      Alcotest.(check bool) "function re-translated" true
        (tier.Stats.tcache_misses > 0);
      Alcotest.(check bool) "store repaired" true
        (tier.Stats.tcache_disk_writes > 0);
      (* the repaired entry decodes and verifies again *)
      let repaired =
        Signing.decode_fentry (In_channel.with_open_bin path In_channel.input_all)
      in
      Signing.verify_function repaired
        ~bytecode:repaired.Signing.fe_bytecode
        ~native:repaired.Signing.fe_native)

let truncate_entry data = String.sub data 0 (String.length data / 2)

let flip_signature data =
  Signing.encode_fentry
    (Signing.tamper_fentry_signature (Signing.decode_fentry data))

let stale_bytecode data =
  Signing.encode_fentry
    (Signing.tamper_fentry_bytecode (Signing.decode_fentry data))

(* structurally valid and internally consistent, but signed by a key
   that is not the SVM's *)
let wrong_key data =
  let e = Signing.decode_fentry data in
  let saved = !Signing.svm_key in
  Signing.svm_key := "not-the-svm-key";
  let e' =
    Signing.sign_function ~name:e.Signing.fe_name
      ~bytecode:e.Signing.fe_bytecode ~native:e.Signing.fe_native
  in
  Signing.svm_key := saved;
  Signing.encode_fentry e'

let () =
  Alcotest.run "sva_engines"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_engines_agree;
          QCheck_alcotest.to_alcotest prop_engines_agree_with_ranges;
          QCheck_alcotest.to_alcotest prop_step_limit_agrees;
          Alcotest.test_case "division by zero traps identically" `Quick
            test_division_by_zero_traps;
          QCheck_alcotest.to_alcotest prop_opcodes_agree;
          Alcotest.test_case "register-index geps agree" `Quick
            test_register_index_geps;
          Alcotest.test_case "corrupted syscall slot: same violation" `Quick
            test_corrupted_syscall_slot;
          Alcotest.test_case "exploit verdicts agree" `Slow
            test_exploit_verdicts_agree;
          Alcotest.test_case "syscall mix bit-identical (aot)" `Quick
            test_syscall_mix_identical_aot;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "64-bit add/compare/branch loop" `Quick
            test_loop_allocation;
          Alcotest.test_case "getpid trap through kernel_syscall_entry" `Quick
            test_getpid_allocation;
        ] );
      ( "translation-cache",
        [
          Alcotest.test_case "signed entries reused across instances" `Quick
            test_cache_hit_across_instances;
          Alcotest.test_case "tampered signature falls back" `Quick
            test_tampered_entry_falls_back;
          Alcotest.test_case "tampered native artifact falls back" `Quick
            test_tampered_native_falls_back;
        ] );
      ( "persistent-store",
        [
          Alcotest.test_case "cold boot persists, warm process reloads" `Quick
            test_disk_cold_then_warm;
          Alcotest.test_case "truncated entry falls back" `Quick
            (test_disk_corruption truncate_entry);
          Alcotest.test_case "flipped signature byte falls back" `Quick
            (test_disk_corruption flip_signature);
          Alcotest.test_case "stale bytecode digest falls back" `Quick
            (test_disk_corruption stale_bytecode);
          Alcotest.test_case "wrong-key entry falls back" `Quick
            (test_disk_corruption wrong_key);
        ] );
      ( "vestiges",
        [
          Alcotest.test_case "Tiered and a threshold raise" `Quick
            test_vestiges_reject;
        ] );
    ]

(* Tests for the IR transformation passes: mem2reg, constant folding, DCE,
   local CSE, and the pipeline driver. *)

open Sva_ir

let new_module () = Irmod.create "p"

let count_kind f pred = Func.fold_instrs f (fun n _ i -> if pred i then n + 1 else n) 0

let is_alloca (i : Instr.t) = match i.Instr.kind with Instr.Alloca _ -> true | _ -> false
let is_load (i : Instr.t) = match i.Instr.kind with Instr.Load _ -> true | _ -> false
let is_store (i : Instr.t) = match i.Instr.kind with Instr.Store _ -> true | _ -> false
let is_phi = Instr.is_phi

(* A function written the way the MiniC front end lowers code:
     int f(int c) { int x; if (c) x = 1; else x = 2; return x; } *)
let if_else_slot_func m =
  let f = Func.create "f" Ty.i32 [ ("c", Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let x = Builder.b_alloca b ~name:"x" Ty.i32 in
  let cond = Builder.b_icmp b Instr.Ne (Func.param_value f 0) (Value.imm 0) in
  Builder.b_br b cond "then" "else";
  ignore (Builder.start_block b "then");
  Builder.b_store b (Value.imm 1) x;
  Builder.b_jmp b "join";
  ignore (Builder.start_block b "else");
  Builder.b_store b (Value.imm 2) x;
  Builder.b_jmp b "join";
  ignore (Builder.start_block b "join");
  let v = Builder.b_load b x in
  Builder.b_ret b (Some v);
  f

let test_mem2reg_inserts_phi () =
  let m = new_module () in
  let f = if_else_slot_func m in
  Verify.check m;
  let promoted = Mem2reg.run_func f in
  Alcotest.(check int) "one slot promoted" 1 promoted;
  Verify.check m;
  Alcotest.(check int) "allocas gone" 0 (count_kind f is_alloca);
  Alcotest.(check int) "loads gone" 0 (count_kind f is_load);
  Alcotest.(check int) "stores gone" 0 (count_kind f is_store);
  Alcotest.(check int) "one phi" 1 (count_kind f is_phi)

let test_mem2reg_loop () =
  (* int g(int n) { int i = 0; while (i < n) i = i + 1; return i; } *)
  let m = new_module () in
  let f = Func.create "g" Ty.i32 [ ("n", Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let i = Builder.b_alloca b ~name:"i" Ty.i32 in
  Builder.b_store b (Value.imm 0) i;
  Builder.b_jmp b "head";
  ignore (Builder.start_block b "head");
  let iv = Builder.b_load b i in
  let c = Builder.b_icmp b Instr.Slt iv (Func.param_value f 0) in
  Builder.b_br b c "body" "done";
  ignore (Builder.start_block b "body");
  let iv2 = Builder.b_load b i in
  let inc = Builder.b_binop b Instr.Add iv2 (Value.imm 1) in
  Builder.b_store b inc i;
  Builder.b_jmp b "head";
  ignore (Builder.start_block b "done");
  let out = Builder.b_load b i in
  Builder.b_ret b (Some out);
  Verify.check m;
  ignore (Mem2reg.run_func f);
  Verify.check m;
  Alcotest.(check int) "allocas gone" 0 (count_kind f is_alloca);
  Alcotest.(check bool) "phi at loop head" true (count_kind f is_phi >= 1)

let test_mem2reg_skips_escaping () =
  (* The address of the slot is passed to a call: not promotable. *)
  let m = new_module () in
  Irmod.declare_extern m "sink" (Ty.Func (Ty.Void, [ Ty.Ptr Ty.i32 ], false));
  let f = Func.create "h" Ty.Void [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let x = Builder.b_alloca b Ty.i32 in
  ignore (Builder.b_call_named b "sink" [ x ]);
  Builder.b_ret b None;
  Verify.check m;
  Alcotest.(check int) "nothing promoted" 0 (Mem2reg.run_func f);
  Alcotest.(check int) "alloca kept" 1 (count_kind f is_alloca)

let test_mem2reg_undef_on_no_store () =
  let m = new_module () in
  let f = Func.create "u" Ty.i32 [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let x = Builder.b_alloca b Ty.i32 in
  let v = Builder.b_load b x in
  Builder.b_ret b (Some v);
  ignore (Mem2reg.run_func f);
  Verify.check m;
  match (Func.entry f).Func.term with
  | Instr.Ret (Some (Value.Undef _)) -> ()
  | t -> Alcotest.failf "expected ret undef, got %s" (Pp.string_of_term t)

let test_constfold_arith () =
  Alcotest.(check (option int64)) "add" (Some 7L) (Constfold.eval_binop Instr.Add 32 3L 4L);
  Alcotest.(check (option int64)) "wrap i8" (Some (-128L)) (Constfold.eval_binop Instr.Add 8 127L 1L);
  Alcotest.(check (option int64)) "udiv" (Some 2L) (Constfold.eval_binop Instr.Udiv 32 7L 3L);
  Alcotest.(check (option int64)) "div0" None (Constfold.eval_binop Instr.Sdiv 32 7L 0L);
  (* Unsigned comparison of a negative number: the MCAST_MSFILTER-style bug. *)
  Alcotest.(check bool) "-1 >u 100" true (Constfold.eval_icmp Instr.Ugt 32 (-1L) 100L);
  Alcotest.(check bool) "-1 <s 100" true (Constfold.eval_icmp Instr.Slt 32 (-1L) 100L)

let test_constfold_folds_function () =
  let m = new_module () in
  let f = Func.create "cf" Ty.i32 [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let x = Builder.b_binop b Instr.Add (Value.imm 2) (Value.imm 3) in
  let y = Builder.b_binop b Instr.Mul x (Value.imm 4) in
  Builder.b_ret b (Some y);
  ignore (Constfold.run_func f);
  Verify.check m;
  match (Func.entry f).Func.term with
  | Instr.Ret (Some (Value.Imm (_, 20L))) -> ()
  | t -> Alcotest.failf "expected ret 20, got %s" (Pp.string_of_term t)

let test_constfold_branch_and_phi_pruning () =
  let m = new_module () in
  let f = Func.create "cb" Ty.i32 [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let c = Builder.b_icmp b Instr.Slt (Value.imm 1) (Value.imm 2) in
  Builder.b_br b c "then" "else";
  ignore (Builder.start_block b "then");
  Builder.b_jmp b "join";
  ignore (Builder.start_block b "else");
  Builder.b_jmp b "join";
  ignore (Builder.start_block b "join");
  let phi = Builder.b_phi b Ty.i32 [ ("then", Value.imm 10); ("else", Value.imm 20) ] in
  Builder.b_ret b (Some phi);
  Verify.check m;
  (* One fixpoint round as the pipeline does: fold the branch, remove the
     dead block (pruning the phi edge), then fold the now-trivial phi. *)
  ignore (Constfold.run_func f);
  ignore (Dce.run_func f);
  ignore (Constfold.run_func f);
  Verify.check m;
  match (Func.find_block f "join").Func.term with
  | Instr.Ret (Some (Value.Imm (_, 10L))) -> ()
  | t -> Alcotest.failf "expected ret 10, got %s" (Pp.string_of_term t)

let test_dce_removes_unreachable () =
  let m = new_module () in
  let f = Func.create "dead" Ty.Void [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  Builder.b_ret b None;
  ignore (Builder.start_block b "island");
  Builder.b_jmp b "island";
  Alcotest.(check bool) "removed something" true (Dce.run_func f > 0);
  Alcotest.(check int) "one block left" 1 (List.length f.Func.f_blocks);
  Verify.check m

let test_dce_keeps_side_effects () =
  let m = new_module () in
  Irmod.declare_extern m "effect" (Ty.Func (Ty.i32, [], false));
  let f = Func.create "keep" Ty.Void [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  ignore (Builder.b_call_named b "effect" []);
  let dead = Builder.b_binop b Instr.Add (Value.imm 1) (Value.imm 2) in
  ignore dead;
  Builder.b_ret b None;
  ignore (Dce.run_func f);
  Alcotest.(check int) "call survives, add dies" 1 (Func.instr_count f)

let test_cse_dedups () =
  let m = new_module () in
  let f = Func.create "cse" Ty.i32 [ ("x", Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let p = Func.param_value f 0 in
  let a = Builder.b_binop b Instr.Mul p p in
  let a' = Builder.b_binop b Instr.Mul p p in
  let s = Builder.b_binop b Instr.Add a a' in
  Builder.b_ret b (Some s);
  Alcotest.(check int) "one eliminated" 1 (Cse.run_func f);
  Verify.check m;
  Alcotest.(check int) "two instrs left" 2 (Func.instr_count f)

let test_cse_load_invalidation () =
  let m = new_module () in
  let f = Func.create "csel" Ty.i32 [ ("p", Ty.Ptr Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let p = Func.param_value f 0 in
  let l1 = Builder.b_load b p in
  Builder.b_store b (Value.imm 9) p;
  let l2 = Builder.b_load b p in
  let s = Builder.b_binop b Instr.Add l1 l2 in
  Builder.b_ret b (Some s);
  Alcotest.(check int) "store kills available load" 0 (Cse.run_func f);
  Verify.check m

(* Constants are keyed by type and value: an immediate or a null that
   differs from an available one only in its type is a different
   operand, so its computation is not merged; the same constant is. *)
let test_cse_typed_constants () =
  let m = new_module () in
  let f = Func.create "csek" Ty.i64 [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let i8_1 = Builder.b_cast b Instr.Zext (Value.Imm (Ty.Int 8, 1L)) Ty.i64 in
  let i16_1 = Builder.b_cast b Instr.Zext (Value.Imm (Ty.Int 16, 1L)) Ty.i64 in
  let i8_1' = Builder.b_cast b Instr.Zext (Value.Imm (Ty.Int 8, 1L)) Ty.i64 in
  let null8 =
    Builder.b_cast b Instr.Ptrtoint (Value.Null (Ty.Ptr (Ty.Int 8))) Ty.i64
  in
  let null32 =
    Builder.b_cast b Instr.Ptrtoint (Value.Null (Ty.Ptr Ty.i32)) Ty.i64
  in
  let s =
    List.fold_left (Builder.b_binop b Instr.Add) i8_1
      [ i16_1; i8_1'; null8; null32 ]
  in
  Builder.b_ret b (Some s);
  Alcotest.(check int) "only the same-typed repeat merges" 1 (Cse.run_func f);
  Verify.check m

(* A load [l1 = load p; <between>; l2 = load p]: how many loads CSE
   eliminates. *)
let cse_loads_around between =
  let m = new_module () in
  let g = Func.create "g" Ty.Void [] in
  Irmod.add_func m g;
  let gb = Builder.create m g in
  ignore (Builder.start_block gb "entry");
  Builder.b_ret gb None;
  let f = Func.create "csel2" Ty.i32 [ ("p", Ty.Ptr Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let p = Func.param_value f 0 in
  let l1 = Builder.b_load b p in
  between b p l1;
  let l2 = Builder.b_load b p in
  Builder.b_ret b (Some (Builder.b_binop b Instr.Add l1 l2));
  let n = Cse.run_func f in
  Verify.check m;
  n

let test_cse_load_reuse_and_kills () =
  Alcotest.(check int) "reused across an icmp" 1
    (cse_loads_around (fun b _ l1 ->
         ignore (Builder.b_icmp b Instr.Eq l1 (Value.imm 0))));
  List.iter
    (fun (what, between) ->
      Alcotest.(check int)
        (what ^ " kills the load")
        0 (cse_loads_around between))
    [
      ("store", fun b p _ -> Builder.b_store b (Value.imm 9) p);
      ("call", fun b _ _ -> ignore (Builder.b_call_named b "g" []));
      ( "atomic add",
        fun b p _ -> ignore (Builder.b_atomic_add b p (Value.imm 1)) );
      ("membar", fun b _ _ -> ignore (Builder.insert b Ty.Void Instr.Membar));
    ]

let test_pipeline_llvm_like () =
  let m = new_module () in
  let f = if_else_slot_func m in
  ignore f;
  Passes.run Passes.Llvm_like m;
  (* After the pipeline: no allocas remain anywhere. *)
  List.iter
    (fun f -> Alcotest.(check int) "no allocas" 0 (count_kind f is_alloca))
    m.Irmod.m_funcs

let () =
  Alcotest.run "sva_passes"
    [
      ( "mem2reg",
        [
          Alcotest.test_case "if/else phi" `Quick test_mem2reg_inserts_phi;
          Alcotest.test_case "loop" `Quick test_mem2reg_loop;
          Alcotest.test_case "escaping slot kept" `Quick test_mem2reg_skips_escaping;
          Alcotest.test_case "undef when never stored" `Quick test_mem2reg_undef_on_no_store;
        ] );
      ( "constfold",
        [
          Alcotest.test_case "arith eval" `Quick test_constfold_arith;
          Alcotest.test_case "function folding" `Quick test_constfold_folds_function;
          Alcotest.test_case "branch folding prunes phis" `Quick
            test_constfold_branch_and_phi_pruning;
        ] );
      ( "dce",
        [
          Alcotest.test_case "unreachable blocks" `Quick test_dce_removes_unreachable;
          Alcotest.test_case "side effects kept" `Quick test_dce_keeps_side_effects;
        ] );
      ( "cse",
        [
          Alcotest.test_case "dedup" `Quick test_cse_dedups;
          Alcotest.test_case "load invalidation" `Quick test_cse_load_invalidation;
          Alcotest.test_case "typed constants" `Quick test_cse_typed_constants;
          Alcotest.test_case "load reuse and kills" `Quick
            test_cse_load_reuse_and_kills;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "llvm-like" `Quick test_pipeline_llvm_like ] );
    ]

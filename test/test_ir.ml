(* Unit tests for the SVA-Core IR: type layout, builder, verifier, CFG. *)

open Sva_ir

let ctx_with_structs () =
  let ctx = Ty.create_ctx () in
  ignore (Ty.define_struct ctx "pair" [ ("a", Ty.i32); ("b", Ty.i32) ]);
  ignore
    (Ty.define_struct ctx "task"
       [ ("pid", Ty.i32); ("state", Ty.i8); ("next", Ty.Ptr (Ty.Struct "task")) ]);
  ignore
    (Ty.define_struct ctx "fib_nh" [ ("oif", Ty.i32); ("gw", Ty.i32); ("weight", Ty.i32) ]);
  ctx

(* ---------- Ty ---------- *)

let test_sizeof_scalars () =
  let ctx = Ty.create_ctx () in
  Alcotest.(check int) "i1" 1 (Ty.sizeof ctx Ty.i1);
  Alcotest.(check int) "i8" 1 (Ty.sizeof ctx Ty.i8);
  Alcotest.(check int) "i16" 2 (Ty.sizeof ctx Ty.i16);
  Alcotest.(check int) "i32" 4 (Ty.sizeof ctx Ty.i32);
  Alcotest.(check int) "i64" 8 (Ty.sizeof ctx Ty.i64);
  Alcotest.(check int) "double" 8 (Ty.sizeof ctx Ty.Float);
  Alcotest.(check int) "ptr" 8 (Ty.sizeof ctx (Ty.Ptr Ty.i8))

let test_sizeof_aggregates () =
  let ctx = ctx_with_structs () in
  Alcotest.(check int) "pair" 8 (Ty.sizeof ctx (Ty.Struct "pair"));
  (* task: i32 @0, i8 @4, padding, ptr @8 -> 16 bytes *)
  Alcotest.(check int) "task" 16 (Ty.sizeof ctx (Ty.Struct "task"));
  Alcotest.(check int) "array" 40 (Ty.sizeof ctx (Ty.Array (Ty.i32, 10)));
  Alcotest.(check int) "array of task" 160 (Ty.sizeof ctx (Ty.Array (Ty.Struct "task", 10)))

let test_field_offsets () =
  let ctx = ctx_with_structs () in
  let off, ty = Ty.field_offset ctx "task" "next" in
  Alcotest.(check int) "next offset" 8 off;
  Alcotest.(check bool) "next type" true (Ty.equal ty (Ty.Ptr (Ty.Struct "task")));
  let off, _ = Ty.field_offset ctx "task" "state" in
  Alcotest.(check int) "state offset" 4 off;
  Alcotest.(check int) "field_index" 2 (Ty.field_index ctx "task" "next")

let test_struct_redefinition () =
  let ctx = ctx_with_structs () in
  (* Same fields: idempotent. *)
  ignore (Ty.define_struct ctx "pair" [ ("a", Ty.i32); ("b", Ty.i32) ]);
  Alcotest.check_raises "conflicting redefinition"
    (Invalid_argument "Ty.define_struct: redefinition of %pair") (fun () ->
      ignore (Ty.define_struct ctx "pair" [ ("a", Ty.i64) ]))

let test_ty_to_string () =
  Alcotest.(check string) "ptr" "i32*" (Ty.to_string (Ty.Ptr Ty.i32));
  Alcotest.(check string) "array" "[4 x i8]" (Ty.to_string (Ty.Array (Ty.i8, 4)));
  Alcotest.(check string)
    "func" "void (i32, i8*)"
    (Ty.to_string (Ty.Func (Ty.Void, [ Ty.i32; Ty.Ptr Ty.i8 ], false)))

(* ---------- Builder & Verify ---------- *)

let simple_module () =
  let m = Irmod.create "t" in
  ignore (Ty.define_struct m.Irmod.m_ctx "pair" [ ("a", Ty.i32); ("b", Ty.i32) ]);
  m

let test_builder_add_function () =
  let m = simple_module () in
  let f = Func.create "add" Ty.i32 [ ("x", Ty.i32); ("y", Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let s = Builder.b_binop b Instr.Add (Func.param_value f 0) (Func.param_value f 1) in
  Builder.b_ret b (Some s);
  Alcotest.(check (list string)) "verifies" []
    (List.map Verify.string_of_error (Verify.verify_module m))

let test_builder_gep_struct () =
  let m = simple_module () in
  let f = Func.create "getb" Ty.i32 [ ("p", Ty.Ptr (Ty.Struct "pair")) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let addr = Builder.b_struct_gep b (Func.param_value f 0) "b" in
  Alcotest.(check bool) "gep type" true (Ty.equal (Value.ty addr) (Ty.Ptr Ty.i32));
  let v = Builder.b_load b addr in
  Builder.b_ret b (Some v);
  Alcotest.(check int) "no errors" 0 (List.length (Verify.verify_module m))

let test_verify_catches_type_error () =
  let m = simple_module () in
  let f = Func.create "bad" Ty.i32 [ ("x", Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  (* Return an i64 from an i32 function. *)
  Builder.b_ret b (Some (Value.imm64 3L));
  Alcotest.(check bool) "caught" true (Verify.verify_module m <> [])

let test_verify_catches_bad_branch () =
  let m = simple_module () in
  let f = Func.create "badbr" Ty.Void [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  Builder.b_jmp b "nowhere";
  Alcotest.(check bool) "caught" true (Verify.verify_module m <> [])

let test_verify_catches_double_def () =
  let m = simple_module () in
  let f = Func.create "dd" Ty.i32 [] in
  Irmod.add_func m f;
  let blk = Func.add_block f "entry" in
  let i1 = { Instr.id = 5; nm = ""; ty = Ty.i32; kind = Instr.Binop (Instr.Add, Value.imm 1, Value.imm 2) } in
  let i2 = { Instr.id = 5; nm = ""; ty = Ty.i32; kind = Instr.Binop (Instr.Add, Value.imm 3, Value.imm 4) } in
  blk.Func.insns <- [ i1; i2 ];
  blk.Func.term <- Instr.Ret (Some (Value.Reg (5, Ty.i32, "")));
  Alcotest.(check bool) "caught SSA violation" true
    (List.exists
       (fun e -> e.Verify.ve_msg = "register %r5 defined twice (SSA violation)")
       (Verify.verify_module m))

let test_verify_use_before_def () =
  let m = simple_module () in
  let f = Func.create "ubd" Ty.i32 [] in
  Irmod.add_func m f;
  let blk = Func.add_block f "entry" in
  let use = { Instr.id = 1; nm = ""; ty = Ty.i32; kind = Instr.Binop (Instr.Add, Value.Reg (2, Ty.i32, ""), Value.imm 1) } in
  let def = { Instr.id = 2; nm = ""; ty = Ty.i32; kind = Instr.Binop (Instr.Add, Value.imm 1, Value.imm 1) } in
  blk.Func.insns <- [ use; def ];
  blk.Func.term <- Instr.Ret (Some (Value.Reg (1, Ty.i32, "")));
  Alcotest.(check bool) "caught use-before-def" true
    (List.exists
       (fun e -> e.Verify.ve_msg = "register %r2 used before its definition")
       (Verify.verify_module m))

let test_call_arity_checked () =
  let m = simple_module () in
  let callee = Func.create "callee" Ty.i32 [ ("x", Ty.i32) ] in
  Irmod.add_func m callee;
  let cb = Builder.create m callee in
  ignore (Builder.start_block cb "entry");
  Builder.b_ret cb (Some (Func.param_value callee 0));
  let f = Func.create "caller" Ty.i32 [] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  let r = Builder.b_call_named b "callee" [] in
  Builder.b_ret b r;
  Alcotest.(check bool) "arity caught" true
    (List.exists
       (fun e -> e.Verify.ve_msg = "call arity: 0 args for 1 params")
       (Verify.verify_module m))

(* ---------- CFG / dominators ---------- *)

(* A diamond:      entry -> a, b; a -> exit; b -> exit *)
let diamond () =
  let m = simple_module () in
  let f = Func.create "diamond" Ty.i32 [ ("c", Ty.i1) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  Builder.b_br b (Func.param_value f 0) "a" "bb";
  ignore (Builder.start_block b "a");
  Builder.b_jmp b "exit";
  ignore (Builder.start_block b "bb");
  Builder.b_jmp b "exit";
  ignore (Builder.start_block b "exit");
  let phi = Builder.b_phi b Ty.i32 [ ("a", Value.imm 1); ("bb", Value.imm 2) ] in
  Builder.b_ret b (Some phi);
  (m, f)

let test_cfg_diamond () =
  let m, f = diamond () in
  Alcotest.(check int) "verifies" 0 (List.length (Verify.verify_module m));
  let cfg = Cfg.build f in
  Alcotest.(check (list string)) "succ entry" [ "a"; "bb" ] (Cfg.successors cfg "entry");
  Alcotest.(check (list string)) "pred exit" [ "a"; "bb" ]
    (List.sort compare (Cfg.predecessors cfg "exit"));
  Alcotest.(check (option string)) "idom exit" (Some "entry") (Cfg.idom cfg "exit");
  Alcotest.(check bool) "entry dom all" true (Cfg.dominates cfg "entry" "exit");
  Alcotest.(check bool) "a !dom exit" false (Cfg.dominates cfg "a" "exit");
  Alcotest.(check bool) "reflexive" true (Cfg.dominates cfg "a" "a")

let test_cfg_loop_backedge () =
  let m = simple_module () in
  let f = Func.create "loopy" Ty.Void [ ("n", Ty.i32) ] in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  Builder.b_jmp b "head";
  ignore (Builder.start_block b "head");
  let i = Builder.b_phi b Ty.i32 [ ("entry", Value.imm 0); ("body", Value.Reg (99, Ty.i32, "i2")) ] in
  let c = Builder.b_icmp b Instr.Slt i (Func.param_value f 0) in
  Builder.b_br b c "body" "done";
  ignore (Builder.start_block b "body");
  let i2 = Builder.b_binop b Instr.Add i (Value.imm 1) in
  (* Patch the phi to reference the real increment register. *)
  (match i2 with
  | Value.Reg (id, _, _) ->
      let head = Func.find_block f "head" in
      head.Func.insns <-
        List.map
          (fun (ins : Instr.t) ->
            match ins.Instr.kind with
            | Instr.Phi inc ->
                { ins with
                  Instr.kind =
                    Instr.Phi
                      (List.map
                         (fun (l, v) ->
                           if l = "body" then (l, Value.Reg (id, Ty.i32, "i2"))
                           else (l, v))
                         inc)
                }
            | _ -> ins)
          head.Func.insns
  | _ -> ());
  Builder.b_jmp b "head";
  ignore (Builder.start_block b "done");
  Builder.b_ret b None;
  Alcotest.(check int) "verifies" 0 (List.length (Verify.verify_module m));
  let cfg = Cfg.build f in
  Alcotest.(check (list (pair string string))) "back edge" [ ("body", "head") ]
    (Cfg.back_edges cfg)

(* entry: br %c, %a, %b; %r10 is defined in %a only.  Flowing %r10 into a
   phi along the edge from %b uses it where its definition does not
   dominate, exactly as a plain use in %b would. *)
let test_verify_phi_use_not_dominated () =
  let build join_incoming =
    let m = simple_module () in
    let f = Func.create "phidom" Ty.i32 [ ("c", Ty.i1) ] in
    Irmod.add_func m f;
    let r10 = Value.Reg (10, Ty.i32, "") in
    let blk label insns term =
      let b = Func.add_block f label in
      b.Func.insns <- insns;
      b.Func.term <- term
    in
    blk "entry" [] (Instr.Br (Func.param_value f 0, "a", "b"));
    blk "a"
      [ { Instr.id = 10; nm = ""; ty = Ty.i32; kind = Instr.Binop (Instr.Add, Value.imm 1, Value.imm 2) } ]
      (Instr.Jmp "j");
    blk "b" [] (Instr.Jmp "j");
    blk "j"
      [ { Instr.id = 11; nm = ""; ty = Ty.i32; kind = Instr.Phi [ ("a", r10); ("b", join_incoming r10) ] } ]
      (Instr.Ret (Some (Value.Reg (11, Ty.i32, ""))));
    f.Func.f_next_reg <- 12;
    List.map Verify.string_of_error (Verify.verify_module m)
  in
  Alcotest.(check (list string)) "dominated incoming values verify" []
    (build (fun _ -> Value.imm 0));
  Alcotest.(check (list string)) "undominated incoming value rejected"
    [ "@phidom/%j: phi use of %r10 from %b not dominated by its definition" ]
    (build (fun r10 -> r10))

(* ---------- CFG reuse ---------- *)

(* The same function with new blocks under a new record: no graph has
   been built for it. *)
let fresh_copy (f : Func.t) =
  {
    f with
    Func.f_blocks =
      List.map (fun (b : Func.block) -> { b with Func.insns = b.Func.insns }) f.Func.f_blocks;
  }

(* Everything the label API answers about every label [f] names. *)
let graph_facts (f : Func.t) cfg =
  let labels =
    List.sort_uniq compare
      (List.concat_map
         (fun (b : Func.block) -> b.Func.label :: Instr.successors b.Func.term)
         f.Func.f_blocks)
  in
  ( Cfg.reachable cfg,
    List.map
      (fun l ->
        ( (l, Cfg.successors cfg l, Cfg.predecessors cfg l),
          (Cfg.is_reachable cfg l, Cfg.idom cfg l),
          List.filter (Cfg.dominates cfg l) labels ))
      labels,
    Cfg.back_edges cfg )

let check_reuse (f : Func.t) =
  let what step = Printf.sprintf "@%s: %s" f.Func.f_name step in
  let same step =
    Alcotest.(check bool) (what step) true
      (graph_facts f (Cfg.build f) = graph_facts f (Cfg.build (fresh_copy f)))
  in
  let g = Cfg.build f in
  Alcotest.(check bool) (what "unchanged: same graph") true (Cfg.build f == g);
  same "unchanged";
  (* Rewrite a terminator's operand only: the graph is kept. *)
  (match List.find_opt (fun (b : Func.block) -> Instr.term_operands b.Func.term <> []) f.Func.f_blocks with
  | Some b ->
      b.Func.term <-
        Instr.map_term_operands (fun v -> Value.Undef (Value.ty v)) b.Func.term;
      Alcotest.(check bool) (what "operand rewritten: same graph") true (Cfg.build f == g);
      same "operand rewritten"
  | None -> ());
  let labels = List.map (fun (b : Func.block) -> b.Func.label) f.Func.f_blocks in
  let last = List.nth labels (List.length labels - 1) in
  (* Retarget a branch in place, keeping the block list. *)
  (match
     List.find_opt
       (fun (b : Func.block) ->
         match b.Func.term with Instr.Br (_, _, e) -> e <> last | _ -> false)
       f.Func.f_blocks
   with
  | Some ({ Func.term = Instr.Br (c, t, _); _ } as b) ->
      b.Func.term <- Instr.Br (c, t, last);
      same "branch retargeted"
  | Some _ | None -> ());
  (* Reorder every block after the entry. *)
  (match f.Func.f_blocks with
  | entry :: rest ->
      f.Func.f_blocks <- entry :: List.rev rest;
      same "blocks reordered"
  | [] -> ());
  (* Drop a block: branches to it now name a label no block carries. *)
  (match f.Func.f_blocks with
  | entry :: _ :: rest ->
      f.Func.f_blocks <- entry :: rest;
      same "block dropped"
  | _ -> ())

let test_cfg_reuse_sound () =
  let kernel =
    Sva_pipeline.Pipeline.compile ~name:"cfg-reuse"
      (Ukern.Kbuild.sources Ukern.Kbuild.as_tested)
  in
  let programs =
    List.init 20 (fun seed ->
        Sva_pipeline.Pipeline.compile ~name:"cfg-reuse" [ Arr_gen.program seed ])
  in
  let funcs =
    List.concat_map (fun (m : Irmod.t) -> m.Irmod.m_funcs) (kernel :: programs)
    |> List.filter (fun (f : Func.t) -> f.Func.f_blocks <> [])
  in
  Alcotest.(check bool) "kernel functions" true (List.length funcs > 90);
  List.iter (fun f -> check_reuse (fresh_copy f)) funcs

(* ---------- Pretty printer ---------- *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_pp_roundtrip_content () =
  let _, f = diamond () in
  let text = Pp.string_of_func f in
  Alcotest.(check bool) "has define" true (contains text "define i32 @diamond");
  Alcotest.(check bool) "mentions phi" true (contains text "phi i32");
  Alcotest.(check bool) "mentions br" true (contains text "br %c.0, %a, %bb")

(* ---------- Irmod.merge ---------- *)

let test_merge_modules () =
  let m1 = simple_module () in
  let f1 = Func.create "f1" Ty.Void [] in
  Irmod.add_func m1 f1;
  let b1 = Builder.create m1 f1 in
  ignore (Builder.start_block b1 "entry");
  Builder.b_ret b1 None;
  Irmod.declare_extern m1 "f2" (Ty.Func (Ty.Void, [], false));
  let m2 = Irmod.create "mod2" in
  let f2 = Func.create "f2" Ty.Void [] in
  Irmod.add_func m2 f2;
  let b2 = Builder.create m2 f2 in
  ignore (Builder.start_block b2 "entry");
  Builder.b_ret b2 None;
  Irmod.merge m1 m2;
  Alcotest.(check bool) "f2 now defined" true (Irmod.find_func m1 "f2" <> None);
  Alcotest.(check int) "verifies" 0 (List.length (Verify.verify_module m1))

let () =
  Alcotest.run "sva_ir"
    [
      ( "ty",
        [
          Alcotest.test_case "sizeof scalars" `Quick test_sizeof_scalars;
          Alcotest.test_case "sizeof aggregates" `Quick test_sizeof_aggregates;
          Alcotest.test_case "field offsets" `Quick test_field_offsets;
          Alcotest.test_case "struct redefinition" `Quick test_struct_redefinition;
          Alcotest.test_case "to_string" `Quick test_ty_to_string;
        ] );
      ( "builder-verify",
        [
          Alcotest.test_case "add function" `Quick test_builder_add_function;
          Alcotest.test_case "struct gep" `Quick test_builder_gep_struct;
          Alcotest.test_case "type error caught" `Quick test_verify_catches_type_error;
          Alcotest.test_case "bad branch caught" `Quick test_verify_catches_bad_branch;
          Alcotest.test_case "double def caught" `Quick test_verify_catches_double_def;
          Alcotest.test_case "use before def caught" `Quick test_verify_use_before_def;
          Alcotest.test_case "call arity" `Quick test_call_arity_checked;
          Alcotest.test_case "phi use not dominated caught" `Quick
            test_verify_phi_use_not_dominated;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "diamond" `Quick test_cfg_diamond;
          Alcotest.test_case "loop back edge" `Quick test_cfg_loop_backedge;
          Alcotest.test_case "reuse is sound" `Quick test_cfg_reuse_sound;
        ] );
      ( "pp",
        [ Alcotest.test_case "function text" `Quick test_pp_roundtrip_content ] );
      ( "irmod",
        [ Alcotest.test_case "merge" `Quick test_merge_modules ] );
    ]

(* Tests for the SVM executor itself: memory semantics, atomics, traps,
   step limits, heap reuse, user-address translation, the compiled tier's
   frame cache, the C string builtins, code addresses and global
   layout. *)

open Sva_ir
module Interp = Sva_interp.Interp
module Machine = Sva_hw.Machine
module Svaos = Sva_os.Svaos

let build_module f =
  let m = Irmod.create "t" in
  f m;
  Verify.check m;
  m

let simple_fn m ?(params = []) ?(ret = Ty.i64) name body =
  let f = Func.create name ret params in
  Irmod.add_func m f;
  let b = Builder.create m f in
  ignore (Builder.start_block b "entry");
  body f b

(* ---------- memory and layout ---------- *)

let test_global_layout_and_init () =
  let m =
    build_module (fun m ->
        Irmod.add_global m
          { Irmod.g_name = "tbl"; g_ty = Ty.Array (Ty.i32, 4);
            g_init = Irmod.Ints (Ty.i32, [ 10L; 20L; 30L; 40L ]); g_const = false };
        Irmod.add_global m
          { Irmod.g_name = "msg"; g_ty = Ty.Array (Ty.i8, 6);
            g_init = Irmod.Str "hello\000"; g_const = true };
        simple_fn m ~ret:Ty.i32 "third" (fun _ b ->
            let addr =
              Builder.b_gep b
                (Value.Global ("tbl", Ty.Array (Ty.i32, 4)))
                [ Value.imm 0; Value.imm 2 ]
            in
            let v = Builder.b_load b addr in
            Builder.b_ret b (Some v)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "tbl[2]" (Some 30L) (Interp.call t "third" []);
  (* the string initializer landed in machine memory *)
  let addr = Interp.global_addr t "msg" in
  Alcotest.(check string) "string bytes" "hello"
    (Bytes.to_string (Machine.read (Interp.sys t).Svaos.machine ~addr ~len:5));
  Alcotest.(check int) "sizes" 16 (Interp.global_size t "tbl")

let test_gep_struct_addressing () =
  let m =
    build_module (fun m ->
        ignore
          (Ty.define_struct m.Irmod.m_ctx "task"
             [ ("pid", Ty.i32); ("state", Ty.i8); ("next", Ty.Ptr (Ty.Struct "task")) ]);
        Irmod.add_global m
          { Irmod.g_name = "t0"; g_ty = Ty.Struct "task"; g_init = Irmod.Zero;
            g_const = false };
        simple_fn m "field_addr_delta" (fun _ b ->
            let base = Value.Global ("t0", Ty.Struct "task") in
            let next = Builder.b_struct_gep b base "next" in
            let pid = Builder.b_struct_gep b base "pid" in
            let ni = Builder.b_cast b Instr.Ptrtoint next Ty.i64 in
            let pi = Builder.b_cast b Instr.Ptrtoint pid Ty.i64 in
            let d = Builder.b_binop b Instr.Sub ni pi in
            Builder.b_ret b (Some d)))
  in
  let t = Interp.load m in
  (* next is at offset 8 (i32 pid, i8 state, padding) *)
  Alcotest.(check (option int64)) "field offset" (Some 8L)
    (Interp.call t "field_addr_delta" [])

let test_wild_store_faults () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.Void "wild" (fun _ b ->
            let p =
              Builder.b_cast b Instr.Inttoptr (Value.imm64 0x150000L (* unmapped gap between SVM and globals regions *))
                (Ty.Ptr Ty.i64)
            in
            Builder.b_store b (Value.imm64 1L) p;
            Builder.b_ret b None))
  in
  let t = Interp.load m in
  match Interp.call t "wild" [] with
  | _ -> Alcotest.fail "wild store must fault"
  | exception Machine.Hw_fault _ -> ()

let test_null_deref_faults () =
  let m =
    build_module (fun m ->
        simple_fn m "nullread" (fun _ b ->
            let v = Builder.b_load b (Value.Null (Ty.Ptr Ty.i64)) in
            Builder.b_ret b (Some v)))
  in
  let t = Interp.load m in
  match Interp.call t "nullread" [] with
  | _ -> Alcotest.fail "null deref must fault"
  | exception Machine.Hw_fault _ -> ()

(* ---------- arithmetic traps and limits ---------- *)

let test_division_by_zero_traps () =
  let m =
    build_module (fun m ->
        simple_fn m ~params:[ ("a", Ty.i64); ("b", Ty.i64) ] "div" (fun f b ->
            let q =
              Builder.b_binop b Instr.Sdiv (Func.param_value f 0)
                (Func.param_value f 1)
            in
            Builder.b_ret b (Some q)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "7/2" (Some 3L) (Interp.call t "div" [ 7L; 2L ]);
  match Interp.call t "div" [ 7L; 0L ] with
  | _ -> Alcotest.fail "division by zero must trap"
  | exception Interp.Vm_error _ -> ()

let test_step_limit () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.Void "spin" (fun _ b ->
            Builder.b_jmp b "loop";
            ignore (Builder.start_block b "loop");
            Builder.b_jmp b "loop"))
  in
  let t = Interp.load m in
  Interp.set_step_limit t (Some 10_000);
  match Interp.call t "spin" [] with
  | _ -> Alcotest.fail "must hit the step limit"
  | exception Interp.Vm_error msg ->
      Alcotest.(check bool) "limit message" true
        (String.length msg > 0 && msg.[0] = 's')

(* ---------- atomics ---------- *)

let test_atomics () =
  let m =
    build_module (fun m ->
        Irmod.add_global m
          { Irmod.g_name = "ctr"; g_ty = Ty.i64; g_init = Irmod.Ints (Ty.i64, [ 5L ]);
            g_const = false };
        simple_fn m "bump" (fun _ b ->
            let g = Value.Global ("ctr", Ty.i64) in
            let old = Builder.b_atomic_add b g (Value.imm64 3L) in
            Builder.b_ret b (Some old));
        simple_fn m ~params:[ ("expect", Ty.i64); ("repl", Ty.i64) ] "swap"
          (fun f b ->
            let g = Value.Global ("ctr", Ty.i64) in
            let old =
              Builder.b_cas b g (Func.param_value f 0) (Func.param_value f 1)
            in
            Builder.b_ret b (Some old)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "add returns old" (Some 5L)
    (Interp.call t "bump" []);
  Alcotest.(check (option int64)) "cas mismatch returns current" (Some 8L)
    (Interp.call t "swap" [ 0L; 99L ]);
  Alcotest.(check (option int64)) "cas match swaps" (Some 8L)
    (Interp.call t "swap" [ 8L; 99L ]);
  Alcotest.(check (option int64)) "swapped" (Some 99L)
    (Interp.call t "swap" [ 0L; 0L ])

(* ---------- heap ---------- *)

let test_malloc_free_reuse () =
  let m =
    build_module (fun m ->
        simple_fn m "churn" (fun _ b ->
            let p1 = Builder.b_malloc b ~count:(Value.imm 4) Ty.i64 in
            Builder.b_free b p1;
            let p2 = Builder.b_malloc b ~count:(Value.imm 4) Ty.i64 in
            let i1 = Builder.b_cast b Instr.Ptrtoint p1 Ty.i64 in
            let i2 = Builder.b_cast b Instr.Ptrtoint p2 Ty.i64 in
            let same = Builder.b_icmp b Instr.Eq i1 i2 in
            let z = Builder.b_cast b Instr.Zext same Ty.i64 in
            Builder.b_free b p2;
            Builder.b_ret b (Some z)))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "freed block reused" (Some 1L)
    (Interp.call t "churn" []);
  Alcotest.(check int) "no live bytes" 0 (Interp.heap_live_bytes t)

let test_double_free_is_vm_error () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.Void "df" (fun _ b ->
            let p = Builder.b_malloc b Ty.i64 in
            Builder.b_free b p;
            Builder.b_free b p;
            Builder.b_ret b None))
  in
  let t = Interp.load m in
  match Interp.call t "df" [] with
  | _ -> Alcotest.fail "double free must error"
  | exception Interp.Vm_error _ -> ()

(* ---------- code addresses and indirect calls ---------- *)

let test_function_addresses () =
  let m =
    build_module (fun m ->
        simple_fn m ~ret:Ty.i32 "aa" (fun _ b -> Builder.b_ret b (Some (Value.imm 1)));
        simple_fn m ~ret:Ty.i32 "bb" (fun _ b -> Builder.b_ret b (Some (Value.imm 2))))
  in
  let t = Interp.load m in
  let a = Interp.func_addr t "aa" and b = Interp.func_addr t "bb" in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check (option string)) "reverse" (Some "aa") (Interp.func_name t a);
  Alcotest.(check (option int64)) "call_addr" (Some 2L) (Interp.call_addr t b []);
  match Interp.call_addr t (a + 1) [] with
  | _ -> Alcotest.fail "bad code address must error"
  | exception Interp.Vm_error _ -> ()

let test_indirect_call_through_memory () =
  let m =
    build_module (fun m ->
        Irmod.add_global m
          { Irmod.g_name = "fptr"; g_ty = Ty.Ptr (Ty.Func (Ty.i32, [], false));
            g_init = Irmod.Ptrs [ "target" ]; g_const = false };
        simple_fn m ~ret:Ty.i32 "target" (fun _ b ->
            Builder.b_ret b (Some (Value.imm 77)));
        simple_fn m ~ret:Ty.i32 "dispatch" (fun _ b ->
            let cell =
              Value.Global ("fptr", Ty.Ptr (Ty.Func (Ty.i32, [], false)))
            in
            let fp = Builder.b_load b cell in
            let r = Builder.b_call b fp [] in
            Builder.b_ret b r))
  in
  let t = Interp.load m in
  Alcotest.(check (option int64)) "via table" (Some 77L)
    (Interp.call t "dispatch" [])

(* ---------- user-address translation ---------- *)

let test_user_translation () =
  let m =
    build_module (fun m ->
        simple_fn m ~params:[ ("p", Ty.Ptr Ty.i64) ] "peek" (fun f b ->
            let v = Builder.b_load b (Func.param_value f 0) in
            Builder.b_ret b (Some v)))
  in
  let sys = Svaos.create () in
  let t = Interp.load ~sys m in
  (* no active space: user access faults *)
  (match Interp.call t "peek" [ Int64.of_int Machine.user_base ] with
  | _ -> Alcotest.fail "untranslatable access must fault"
  | exception Sva_hw.Mmu.Mmu_fault _ -> ());
  (* map user page 0 to a shifted frame and verify the translation *)
  let sid = Svaos.mmu_new_space sys in
  Svaos.mmu_activate sys ~sid;
  let vpn = Machine.user_base / Machine.page_size in
  Svaos.mmu_map_page sys ~sid ~vpn ~ppn:(vpn + 3) ~writable:true;
  Machine.write_int sys.Svaos.machine
    ~addr:(Machine.user_base + (3 * Machine.page_size))
    ~width:8 424242L;
  Alcotest.(check (option int64)) "translated read" (Some 424242L)
    (Interp.call t "peek" [ Int64.of_int Machine.user_base ])

(* ---------- the compiled tier's frame cache ---------- *)

(* One step of a random history, run on two identical systems: one
   reaches memory through the cached accessors compiled code uses, the
   other through the interpreter's uncached ones.  Spaces are indices
   into the ids created so far; pages are numbered inside the user
   window; [Poke], [Fill] and [Blit] are direct machine stores at
   physical addresses, the paths that bypass the cache. *)
type mop =
  | Map of int * int * int * bool  (* space, user page, frame, writable *)
  | Unmap of int * int
  | Activate of int
  | Clone of int
  | Destroy of int
  | Poke of int * int  (* physical address, byte *)
  | Fill of int * int * char
  | Blit of int * int * int
  | Load of int * int  (* address, width *)
  | Store of int * int * int64
  | Svm_store of int * int * int64  (* with SVM privileges *)

let show_mop = function
  | Map (s, p, f, w) -> Printf.sprintf "map s%d p%d -> 0x%x %b" s p f w
  | Unmap (s, p) -> Printf.sprintf "unmap s%d p%d" s p
  | Activate s -> Printf.sprintf "activate s%d" s
  | Clone s -> Printf.sprintf "clone s%d" s
  | Destroy s -> Printf.sprintf "destroy s%d" s
  | Poke (a, b) -> Printf.sprintf "poke 0x%x %d" a b
  | Fill (a, n, c) -> Printf.sprintf "fill 0x%x %d %C" a n c
  | Blit (s, d, n) -> Printf.sprintf "blit 0x%x -> 0x%x %d" s d n
  | Load (a, w) -> Printf.sprintf "load%d 0x%x" (8 * w) a
  | Store (a, w, v) -> Printf.sprintf "store%d 0x%x %Ld" (8 * w) a v
  | Svm_store (a, w, v) -> Printf.sprintf "svm store%d 0x%x %Ld" (8 * w) a v

let page = Machine.page_size
let user_vpn = Machine.user_base / page

(* Kernel, SVM-reserved, unmapped and user pages; the heap page is also
   a frame the user pages may map, so it is reachable by two names. *)
let heap_page = Machine.heap_base + page

let kpages =
  [ Machine.globals_base; heap_page; Machine.svm_base;
    0x150000 (* between the SVM and globals regions *) ]

let upages = List.init 3 (fun k -> Machine.user_base + (k * page))
let vpages = kpages @ upages

(* Frames a user page may map: user frames (aliases among themselves),
   the heap page, and an SVM-reserved frame the MMU refuses. *)
let frames =
  (List.init 3 (fun k -> user_vpn + k))
  @ [ heap_page / page; Machine.svm_base / page ]

(* Few pages, so that a history revisits what it cached. *)
let gen_mop =
  QCheck2.Gen.(
    let space = int_bound 2 in
    let upage = int_bound 2 in
    let addr =
      map2 (fun p o -> p + o)
        (frequency [ (2, oneofl kpages); (3, oneofl upages) ])
        (frequency [ (3, int_bound 24); (1, int_range (page - 12) (page - 1)) ])
    in
    let width = oneofl [ 1; 2; 4; 8 ] in
    let value = oneof [ int64; map Int64.of_int small_signed_int ] in
    frequency
      [
        ( 2,
          map4 (fun s p f w -> Map (s, p, f, w)) space upage (oneofl frames) bool
        );
        (1, map2 (fun s p -> Unmap (s, p)) space upage);
        (1, map (fun s -> Activate s) space);
        (1, map (fun s -> Clone s) space);
        (1, map (fun s -> Destroy s) space);
        (1, map2 (fun a b -> Poke (a, b)) addr (int_bound 255));
        (1, map3 (fun a n c -> Fill (a, n, c)) addr (int_bound 24) char);
        (1, map3 (fun s d n -> Blit (s, d, n)) addr addr (int_bound 24));
        (6, map2 (fun a w -> Load (a, w)) addr width);
        (5, map3 (fun a w v -> Store (a, w, v)) addr width value);
        (2, map3 (fun a w v -> Svm_store (a, w, v)) addr width value);
      ])

let frame_cache_system () =
  let sys = Svaos.create () in
  let t = Interp.load ~sys (Irmod.create "t") in
  let sids = ref [ Svaos.mmu_new_space sys; Svaos.mmu_new_space sys ] in
  Svaos.mmu_activate sys ~sid:(List.hd !sids);
  (t, sids)

(* The step's outcome: its value, or the exception it raised. *)
let run_mop ~cached (t, sids) op =
  let sys = Interp.sys t in
  let m = sys.Svaos.machine in
  let sid s = List.nth !sids (s mod List.length !sids) in
  let load a w =
    if cached then Interp.mem_read_cached t ~addr:a ~width:w
    else Interp.mem_read_int t ~addr:a ~width:w
  in
  let store a w v =
    if cached then Interp.mem_write_cached t ~addr:a ~width:w v
    else Interp.mem_write_int t ~addr:a ~width:w v
  in
  match
    match op with
    | Map (s, p, f, w) ->
        Svaos.mmu_map_page sys ~sid:(sid s) ~vpn:(user_vpn + p) ~ppn:f
          ~writable:w;
        0L
    | Unmap (s, p) ->
        Svaos.mmu_unmap_page sys ~sid:(sid s) ~vpn:(user_vpn + p);
        0L
    | Activate s ->
        Svaos.mmu_activate sys ~sid:(sid s);
        0L
    | Clone s ->
        sids := !sids @ [ Svaos.mmu_clone_space sys ~sid:(sid s) ];
        0L
    | Destroy s ->
        Svaos.mmu_destroy_space sys ~sid:(sid s);
        0L
    | Poke (a, b) ->
        Machine.write m ~addr:a (Bytes.make 1 (Char.chr b));
        0L
    | Fill (a, n, c) ->
        Machine.fill m ~addr:a ~len:n c;
        0L
    | Blit (src, dst, n) ->
        Machine.blit m ~src ~dst ~len:n;
        0L
    | Load (a, w) -> load a w
    | Store (a, w, v) ->
        store a w v;
        0L
    | Svm_store (a, w, v) ->
        Machine.with_svm_mode m (fun () -> store a w v);
        0L
  with
  | v -> Int64.to_string v
  | exception e -> Printexc.to_string e

let prop_frame_cache_matches_uncached =
  QCheck2.Test.make ~name:"cached accessors agree with the uncached path"
    ~count:1000
    ~print:(fun ops -> String.concat "\n" (List.map show_mop ops))
    QCheck2.Gen.(list_size (int_range 1 80) gen_mop)
    (fun ops ->
      let a = frame_cache_system () and b = frame_cache_system () in
      List.iter
        (fun op ->
          let got = run_mop ~cached:true a op
          and want = run_mop ~cached:false b op in
          if got <> want then
            QCheck2.Test.fail_reportf "%s: cached %s, uncached %s" (show_mop op)
              got want)
        ops;
      let mem (t, _) p =
        try Some (Machine.read (Interp.sys t).Svaos.machine ~addr:p ~len:page)
        with Machine.Hw_fault _ -> None
      in
      List.iter
        (fun p ->
          if mem a p <> mem b p then
            QCheck2.Test.fail_reportf "page 0x%x differs" p)
        (vpages @ List.map (fun f -> f * page) frames);
      true)

(* A hit serves a page the cache filled, and only a store opens a page
   to stores; a fault is the uncached path's, and the MMU's changes
   flush every slot. *)
let test_frame_cache_counts () =
  let t, sids = frame_cache_system () in
  let sys = Interp.sys t in
  let a = Machine.heap_base + 64 in
  (* the space activated after load is the first flush *)
  let counts () =
    let misses, flushes = Interp.frame_cache_counts t in
    (misses, flushes - 1)
  in
  ignore (Interp.mem_read_cached t ~addr:a ~width:8);
  ignore (Interp.mem_read_cached t ~addr:a ~width:8);
  Alcotest.(check (pair int int)) "an untouched page is never filled" (2, 0)
    (counts ());
  Interp.mem_write_cached t ~addr:a ~width:8 7L;
  Interp.mem_write_cached t ~addr:(a + 8) ~width:4 9L;
  Alcotest.(check int64) "hit" 7L (Interp.mem_read_cached t ~addr:a ~width:8);
  Alcotest.(check int64) "hit, other width" 9L
    (Interp.mem_read_cached t ~addr:(a + 8) ~width:2);
  Alcotest.(check (pair int int)) "one store filled the slot" (3, 0) (counts ());
  ignore (Interp.mem_read_cached t ~addr:(a - 64 + page - 4) ~width:8);
  Alcotest.(check (pair int int)) "a straddling access misses" (4, 0) (counts ());
  Svaos.mmu_activate sys ~sid:(List.nth !sids 1);
  ignore (Interp.mem_read_cached t ~addr:a ~width:8);
  ignore (Interp.mem_read_cached t ~addr:a ~width:8);
  Alcotest.(check (pair int int)) "activate flushed, the refill hits" (5, 1)
    (counts ())

let test_string_builtins_unsigned () =
  let t = Interp.load (Irmod.create "t") in
  let m = (Interp.sys t).Svaos.machine in
  let x = Machine.heap_base and y = Machine.heap_base + 16 in
  Machine.write m ~addr:x (Bytes.of_string "\x80\000");
  Machine.write m ~addr:y (Bytes.of_string "\x7f\000");
  let call name args = Interp.builtin t name (Array.of_list args) in
  let ax = Int64.of_int x and ay = Int64.of_int y in
  Alcotest.(check (option int64)) "memcmp(\"\\x80\", \"\\x7f\", 1)" (Some 1L)
    (call "memcmp" [ ax; ay; 1L ]);
  Alcotest.(check (option int64)) "memcmp(\"\\x7f\", \"\\x80\", 1)" (Some (-1L))
    (call "memcmp" [ ay; ax; 1L ]);
  Alcotest.(check (option int64)) "strcmp(\"\\x80\", \"\\x7f\")" (Some 1L)
    (call "strcmp" [ ax; ay ]);
  Alcotest.(check (option int64)) "strcmp(\"\\x80\", \"\")" (Some 1L)
    (call "strcmp" [ ax; Int64.of_int (y + 1) ]);
  Alcotest.(check (option int64)) "equal" (Some 0L) (call "strcmp" [ ax; ax ])

let test_cycle_model_monotone () =
  let m =
    build_module (fun m ->
        simple_fn m ~params:[ ("n", Ty.i64) ] "loop" (fun f b ->
            Builder.b_jmp b "head";
            ignore (Builder.start_block b "head");
            let i =
              Builder.b_phi b Ty.i64
                [ ("entry", Value.imm64 0L); ("head", Value.Reg (99, Ty.i64, "")) ]
            in
            let i' = Builder.b_binop b Instr.Add i (Value.imm64 1L) in
            (* patch the placeholder *)
            (match i' with
            | Value.Reg (id, _, _) ->
                let blk = Func.find_block f "head" in
                blk.Func.insns <-
                  List.map
                    (fun (ins : Instr.t) ->
                      match ins.Instr.kind with
                      | Instr.Phi inc ->
                          { ins with
                            Instr.kind =
                              Instr.Phi
                                (List.map
                                   (fun (l, v) ->
                                     if l = "head" then (l, Value.Reg (id, Ty.i64, ""))
                                     else (l, v))
                                   inc) }
                      | _ -> ins)
                    blk.Func.insns
            | _ -> ());
            let c = Builder.b_icmp b Instr.Slt i' (Func.param_value f 0) in
            Builder.b_br b c "head" "out";
            ignore (Builder.start_block b "out");
            Builder.b_ret b (Some i')))
  in
  let t = Interp.load m in
  Interp.reset_cycles t;
  ignore (Interp.call t "loop" [ 10L ]);
  let c10 = Interp.cycles t in
  Interp.reset_cycles t;
  ignore (Interp.call t "loop" [ 100L ]);
  let c100 = Interp.cycles t in
  Alcotest.(check bool)
    (Printf.sprintf "cycles scale with work (%d < %d)" c10 c100)
    true
    (c10 * 5 < c100)

let () =
  Alcotest.run "sva_interp"
    [
      ( "memory",
        [
          Alcotest.test_case "globals" `Quick test_global_layout_and_init;
          Alcotest.test_case "struct gep" `Quick test_gep_struct_addressing;
          Alcotest.test_case "wild store faults" `Quick test_wild_store_faults;
          Alcotest.test_case "null deref faults" `Quick test_null_deref_faults;
        ] );
      ( "execution",
        [
          Alcotest.test_case "div by zero" `Quick test_division_by_zero_traps;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "atomics" `Quick test_atomics;
          Alcotest.test_case "cycle model" `Quick test_cycle_model_monotone;
        ] );
      ( "heap",
        [
          Alcotest.test_case "malloc/free reuse" `Quick test_malloc_free_reuse;
          Alcotest.test_case "double free" `Quick test_double_free_is_vm_error;
        ] );
      ( "code",
        [
          Alcotest.test_case "function addresses" `Quick test_function_addresses;
          Alcotest.test_case "indirect via memory" `Quick
            test_indirect_call_through_memory;
        ] );
      ( "mmu", [ Alcotest.test_case "user translation" `Quick test_user_translation ] );
      ( "frame-cache",
        [
          QCheck_alcotest.to_alcotest prop_frame_cache_matches_uncached;
          Alcotest.test_case "misses and flushes" `Quick test_frame_cache_counts;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "memcmp/strcmp compare unsigned bytes" `Quick
            test_string_builtins_unsigned;
        ] );
    ]

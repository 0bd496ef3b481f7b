(* Tests for the bytecode layer: SHA-256 vectors, codec roundtrips
   (including QCheck-generated modules), and the signed translation
   cache. *)

open Sva_bytecode

(* ---------- SHA-256 (FIPS 180-4 vectors) ---------- *)

let test_sha_vectors () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  Alcotest.(check string) "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha_block_boundaries () =
  (* Lengths around the 55/56/64 padding boundaries. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      Alcotest.(check int) "digest length" 32 (String.length (Sha256.digest s));
      Alcotest.(check bool) "deterministic" true
        (String.equal (Sha256.digest s) (Sha256.digest (String.make n 'x'))))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 127; 128; 129 ]

let test_hmac () =
  (* RFC 4231 test case 2. *)
  Alcotest.(check string) "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hmac_hex ~key:"Jefe" "what do ya want for nothing?")

(* ---------- codec roundtrip ---------- *)

let sample_module () =
  let src =
    "struct pair { int a; long b; };\n\
     int g_table[4] = {9, 8, 7, 6};\n\
     char g_msg[6] = \"hello\";\n\
     extern char *kmalloc(long n);\n\
     int pick(int i) { return g_table[i]; }\n\
     long combine(struct pair *p) { return p->a + p->b; }\n\
     int maxi(int a, int b) { return a > b ? a : b; }\n\
     int looped(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }\n\
     int inc(int x) { return x + 1; }\n\
     __callsig_assert int apply(int v) { int (*f)(int); f = inc; return f(v); }\n\
     __noanalyze __kernel_entry long entry(void) { return apply(3); }"
  in
  Minic.Lower.compile_string ~name:"sample" src

let test_roundtrip_simple () =
  let m = sample_module () in
  Alcotest.(check bool) "roundtrip" true (Codec.roundtrip_equal m)

(* Every Func.attr has its own codec tag; each must decode to itself. *)
let test_roundtrip_attrs () =
  let m' = Codec.decode (Codec.encode (sample_module ())) in
  let attrs name =
    match Sva_ir.Irmod.find_func m' name with
    | Some f -> List.sort compare f.Sva_ir.Func.f_attrs
    | None -> Alcotest.failf "decoded module has no %s" name
  in
  Alcotest.(check bool) "apply keeps __callsig_assert" true
    (attrs "apply" = [ Sva_ir.Func.Callsig_assert ]);
  Alcotest.(check bool) "entry keeps __noanalyze and __kernel_entry" true
    (attrs "entry"
    = List.sort compare [ Sva_ir.Func.Noanalyze; Sva_ir.Func.Kernel_entry ])

let test_roundtrip_optimized () =
  let m = sample_module () in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  Alcotest.(check bool) "roundtrip after passes" true (Codec.roundtrip_equal m)

let test_decoded_module_verifies_and_runs () =
  let m = sample_module () in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  let m' = Codec.decode (Codec.encode m) in
  Sva_ir.Verify.check m';
  let t = Sva_interp.Interp.load m' in
  Alcotest.(check (option int64)) "looped(10)" (Some 45L)
    (Sva_interp.Interp.call t "looped" [ 10L ]);
  Alcotest.(check (option int64)) "pick(2)" (Some 7L)
    (Sva_interp.Interp.call t "pick" [ 2L ])

let test_decode_garbage_rejected () =
  List.iter
    (fun s ->
      match Codec.decode s with
      | _ -> Alcotest.fail "garbage accepted"
      | exception Codec.Decode_error _ -> ())
    [ ""; "garbage"; "SVABC01\nxx"; String.make 100 '\255' ]

let test_decode_truncated_rejected () =
  let full = Codec.encode (sample_module ()) in
  List.iter
    (fun frac ->
      let cut = String.sub full 0 (String.length full * frac / 10) in
      match Codec.decode cut with
      | _ -> Alcotest.fail "truncated bytecode accepted"
      | exception Codec.Decode_error _ -> ())
    [ 3; 5; 7; 9 ]

(* ---------- signed cache ---------- *)

let test_sign_verify () =
  let m = sample_module () in
  let e = Signing.sign m in
  let m' = Signing.verify e in
  Alcotest.(check string) "same name" m.Sva_ir.Irmod.m_name m'.Sva_ir.Irmod.m_name;
  Alcotest.(check bool) "same bytecode" true
    (String.equal (Codec.encode m) (Codec.encode m'))

let test_tampered_bytecode_rejected () =
  let e = Signing.sign (sample_module ()) in
  match Signing.verify (Signing.tamper_bytecode e) with
  | _ -> Alcotest.fail "tampered bytecode accepted"
  | exception Signing.Tampered _ -> ()

let test_tampered_native_rejected () =
  let e = Signing.sign (sample_module ()) in
  match Signing.verify (Signing.tamper_native e) with
  | _ -> Alcotest.fail "tampered native artifact accepted"
  | exception Signing.Tampered _ -> ()

let test_wrong_key_rejected () =
  let e = Signing.sign (sample_module ()) in
  let saved = !Signing.svm_key in
  Signing.svm_key := "some other machine's key";
  let result =
    match Signing.verify e with
    | _ -> `Accepted
    | exception Signing.Tampered _ -> `Rejected
  in
  Signing.svm_key := saved;
  Alcotest.(check bool) "foreign signature rejected" true (result = `Rejected)

let test_whole_kernel_roundtrips () =
  (* the fully instrumented kernel module is the largest real artifact:
     encode, sign, verify, decode, re-verify, and check it still boots *)
  let built =
    Ukern.Kbuild.build ~conf:Sva_pipeline.Pipeline.Sva_safe
      Ukern.Kbuild.as_tested
  in
  let m = built.Sva_pipeline.Pipeline.bl_mod in
  Alcotest.(check bool) "roundtrip" true (Codec.roundtrip_equal m);
  let entry = Signing.sign m in
  let m' = Signing.verify entry in
  Sva_ir.Verify.check m';
  Alcotest.(check int) "same function count"
    (List.length m.Sva_ir.Irmod.m_funcs)
    (List.length m'.Sva_ir.Irmod.m_funcs);
  Alcotest.(check bool) "bytecode is substantial" true
    (String.length entry.Signing.ce_bytecode > 50_000)

(* ---------- property: roundtrip over random IR ---------- *)

let random_ty rng =
  match Random.State.int rng 5 with
  | 0 -> Sva_ir.Ty.i8
  | 1 -> Sva_ir.Ty.i16
  | 2 -> Sva_ir.Ty.i32
  | 3 -> Sva_ir.Ty.i64
  | _ -> Sva_ir.Ty.Ptr Sva_ir.Ty.i32

let random_module seed =
  let rng = Random.State.make [| seed |] in
  let m = Sva_ir.Irmod.create (Printf.sprintf "rand%d" seed) in
  let nfuncs = 1 + Random.State.int rng 3 in
  for fi = 0 to nfuncs - 1 do
    let f =
      Sva_ir.Func.create
        (Printf.sprintf "f%d" fi)
        Sva_ir.Ty.i32
        [ ("a", Sva_ir.Ty.i32); ("b", Sva_ir.Ty.i32) ]
    in
    Sva_ir.Irmod.add_func m f;
    let b = Sva_ir.Builder.create m f in
    ignore (Sva_ir.Builder.start_block b "entry");
    let x = ref (Sva_ir.Func.param_value f 0) in
    for _ = 0 to Random.State.int rng 6 do
      let op =
        match Random.State.int rng 4 with
        | 0 -> Sva_ir.Instr.Add
        | 1 -> Sva_ir.Instr.Sub
        | 2 -> Sva_ir.Instr.Mul
        | _ -> Sva_ir.Instr.Xor
      in
      x :=
        Sva_ir.Builder.b_binop b op !x
          (Sva_ir.Value.imm (Random.State.int rng 100));
      (* Sprinkle in an alloca of a random type to vary the encoding. *)
      if Random.State.int rng 3 = 0 then
        ignore (Sva_ir.Builder.b_alloca b (random_ty rng))
    done;
    Sva_ir.Builder.b_ret b (Some !x)
  done;
  m

let prop_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips random modules" ~count:100
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed -> Codec.roundtrip_equal (random_module seed))

(* ---------- per-function encoding + signed translation-cache entries ---------- *)

let sample_func name =
  let m = sample_module () in
  match Sva_ir.Irmod.find_func m name with
  | Some f -> f
  | None -> Alcotest.failf "sample module has no %s" name

let test_func_roundtrip () =
  List.iter
    (fun name ->
      let f = sample_func name in
      Alcotest.(check bool)
        (Printf.sprintf "%s roundtrips" name)
        true
        (Codec.func_roundtrip_equal f);
      let bytes = Codec.encode_func f in
      let f' = Codec.decode_func bytes in
      Alcotest.(check string) "name preserved" f.Sva_ir.Func.f_name
        f'.Sva_ir.Func.f_name;
      Alcotest.(check string) "re-encoding is stable" bytes
        (Codec.encode_func f'))
    [ "pick"; "combine"; "maxi"; "looped" ]

let test_func_decode_garbage_rejected () =
  List.iter
    (fun s ->
      match Codec.decode_func s with
      | _ -> Alcotest.fail "garbage function bytecode accepted"
      | exception _ -> ())
    [ ""; "x"; String.make 64 '\255' ]

let fentry_fixture () =
  let f = sample_func "looped" in
  let bytecode = Codec.encode_func f in
  let native = Sha256.hex ("native:" ^ bytecode) in
  (Signing.sign_function ~name:"looped" ~bytecode ~native, bytecode, native)

let test_fentry_sign_verify () =
  let fe, bytecode, native = fentry_fixture () in
  Signing.verify_function fe ~bytecode ~native;
  Alcotest.(check string) "hash is of the bytecode" (Sha256.hex bytecode)
    fe.Signing.fe_hash

let expect_tampered what f =
  match f () with
  | () -> Alcotest.failf "%s accepted" what
  | exception Signing.Tampered _ -> ()

let test_fentry_tampered_rejected () =
  let fe, bytecode, native = fentry_fixture () in
  expect_tampered "tampered signature" (fun () ->
      Signing.verify_function
        (Signing.tamper_fentry_signature fe)
        ~bytecode ~native);
  expect_tampered "tampered cached bytecode" (fun () ->
      Signing.verify_function
        (Signing.tamper_fentry_bytecode fe)
        ~bytecode ~native);
  expect_tampered "tampered native artifact" (fun () ->
      Signing.verify_function (Signing.tamper_fentry_native fe) ~bytecode ~native);
  (* entry is genuine but no longer matches what the VM is about to run *)
  expect_tampered "stale bytecode" (fun () ->
      Signing.verify_function fe ~bytecode:(bytecode ^ "\000") ~native);
  expect_tampered "stale native artifact" (fun () ->
      Signing.verify_function fe ~bytecode ~native:(native ^ "x"))

(* on-disk serialization: structural codec for the persistent store *)
let test_fentry_codec_roundtrip () =
  let fe, _, _ = fentry_fixture () in
  let fe' = Signing.decode_fentry (Signing.encode_fentry fe) in
  Alcotest.(check bool) "roundtrip preserves every field" true (fe = fe');
  (* a decoded entry still verifies — serialization is signature-safe *)
  Signing.verify_function fe' ~bytecode:fe'.Signing.fe_bytecode
    ~native:fe'.Signing.fe_native

let expect_decode_error what s =
  match Signing.decode_fentry s with
  | _ -> Alcotest.failf "%s accepted by decode_fentry" what
  | exception Codec.Decode_error _ -> ()

let test_fentry_codec_rejects_garbage () =
  let fe, _, _ = fentry_fixture () in
  let enc = Signing.encode_fentry fe in
  expect_decode_error "empty input" "";
  expect_decode_error "bad magic" ("XXXXXXXX" ^ String.sub enc 8 (String.length enc - 8));
  (* every truncation point must be rejected, not mis-parsed *)
  for i = 0 to String.length enc - 1 do
    expect_decode_error
      (Printf.sprintf "truncation at byte %d" i)
      (String.sub enc 0 i)
  done;
  expect_decode_error "trailing junk" (enc ^ "\000");
  expect_decode_error "corrupt length field"
    (let b = Bytes.of_string enc in
     Bytes.set b 8 'z';
     Bytes.to_string b)

let test_fentry_wrong_key_rejected () =
  let fe, bytecode, native = fentry_fixture () in
  let saved = !Signing.svm_key in
  Signing.svm_key := "some-other-svm-instance";
  Fun.protect
    ~finally:(fun () -> Signing.svm_key := saved)
    (fun () ->
      expect_tampered "entry signed under another key" (fun () ->
          Signing.verify_function fe ~bytecode ~native))

let () =
  Alcotest.run "sva_bytecode"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
          Alcotest.test_case "padding boundaries" `Quick test_sha_block_boundaries;
          Alcotest.test_case "hmac rfc4231" `Quick test_hmac;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_simple;
          Alcotest.test_case "attributes roundtrip" `Quick test_roundtrip_attrs;
          Alcotest.test_case "roundtrip optimized" `Quick test_roundtrip_optimized;
          Alcotest.test_case "decoded module runs" `Quick
            test_decoded_module_verifies_and_runs;
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage_rejected;
          Alcotest.test_case "truncation rejected" `Quick
            test_decode_truncated_rejected;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "whole kernel roundtrips" `Quick
            test_whole_kernel_roundtrips;
        ] );
      ( "signing",
        [
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "tampered bytecode" `Quick
            test_tampered_bytecode_rejected;
          Alcotest.test_case "tampered native" `Quick test_tampered_native_rejected;
          Alcotest.test_case "wrong key" `Quick test_wrong_key_rejected;
        ] );
      ( "function-entries",
        [
          Alcotest.test_case "function roundtrip" `Quick test_func_roundtrip;
          Alcotest.test_case "garbage function rejected" `Quick
            test_func_decode_garbage_rejected;
          Alcotest.test_case "fentry sign/verify" `Quick test_fentry_sign_verify;
          Alcotest.test_case "fentry tampering rejected" `Quick
            test_fentry_tampered_rejected;
          Alcotest.test_case "fentry wrong key" `Quick
            test_fentry_wrong_key_rejected;
          Alcotest.test_case "fentry codec roundtrip" `Quick
            test_fentry_codec_roundtrip;
          Alcotest.test_case "fentry codec rejects garbage" `Quick
            test_fentry_codec_rejects_garbage;
        ] );
    ]

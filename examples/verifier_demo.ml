(* Verifier demo: keeping the safety-checking compiler out of the TCB
   (Section 5), plus the signed translation cache (Section 3.4).

     dune exec examples/verifier_demo.exe

   The interprocedural pointer analysis is complex and untrusted; its
   results are encoded as metapool type qualifiers that a simple,
   intraprocedural checker validates.  We inject each of the paper's four
   analysis-bug kinds and show the checker rejecting all of them; then we
   tamper with a signed bytecode cache entry and watch the SVM refuse to
   load it. *)

module Tyck = Sva_tyck.Tyck
module Cert = Sva_tyck.Cert
module Inject = Sva_tyck.Inject
module Pointsto = Sva_analysis.Pointsto

let program =
  {|
    extern char *malloc(long n);
    struct item { long key; struct item *next; };
    struct item *head = 0;
    void push(long key) {
      struct item *it = (struct item*)malloc(sizeof(struct item));
      it->key = key;
      it->next = head;
      head = it;
    }
    long find(long key) {
      struct item *it = head;
      while (it) { if (it->key == key) return 1; it = it->next; }
      return 0;
    }
    long drive(void) {
      for (long k = 0; k < 10; k++) push(k * 3);
      return find(9) + find(10);
    }
  |}

let () =
  let m = Minic.Lower.compile_string ~name:"list" program in
  Sva_ir.Passes.run Sva_ir.Passes.Llvm_like m;
  let pa = Pointsto.run m in
  let mps = Sva_safety.Metapool.infer m pa [] in
  let an = Tyck.extract m pa mps in
  let cert = Inject.tyck ~trusted:[] in

  print_endline "== the honest proof passes the trusted checker ==";
  (match cert.Cert.check m an with
  | [] -> print_endline "  annotations consistent: module accepted"
  | errs -> List.iter (fun e -> print_endline ("  " ^ Cert.string_of_error e)) errs);

  print_endline "";
  print_endline "== injecting the four analysis-bug kinds of Section 5 ==";
  List.iter
    (fun (kind, inject) ->
      match inject m an ~seed:0 with
      | Some (buggy, desc) -> (
          Printf.printf "  %s\n    (%s)\n" kind desc;
          match cert.Cert.check m buggy with
          | [] -> print_endline "    !! NOT DETECTED"
          | e :: _ -> Printf.printf "    rejected: %s\n" (Cert.string_of_error e))
      | None -> Printf.printf "  %s: no injection site\n" kind)
    cert.Cert.bugs;

  print_endline "";
  print_endline "== the full 4 x 5 experiment ==";
  let results = Cert.experiment cert m an ~instances:5 in
  let caught = List.length (List.filter (fun (_, _, c) -> c) results) in
  Printf.printf "  %d injected, %d detected (paper: 20/20)\n"
    (List.length results) caught;

  print_endline "";
  print_endline "== signed translation cache ==";
  let entry = Sva_bytecode.Signing.sign m in
  Printf.printf "  module signed: %d bytecode bytes, signature %s...\n"
    (String.length entry.Sva_bytecode.Signing.ce_bytecode)
    (String.sub
       (Sva_bytecode.Sha256.hex entry.Sva_bytecode.Signing.ce_signature)
       0 16);
  let m' = Sva_bytecode.Signing.verify entry in
  Printf.printf "  verification OK: module %s reloaded\n" m'.Sva_ir.Irmod.m_name;
  (match Sva_bytecode.Signing.verify (Sva_bytecode.Signing.tamper_bytecode entry) with
  | _ -> print_endline "  !! tampered bytecode accepted"
  | exception Sva_bytecode.Signing.Tampered msg ->
      Printf.printf "  tampered bytecode refused: %s\n" msg);
  (match Sva_bytecode.Signing.verify (Sva_bytecode.Signing.tamper_native entry) with
  | _ -> print_endline "  !! tampered native code accepted"
  | exception Sva_bytecode.Signing.Tampered msg ->
      Printf.printf "  tampered native code refused: %s\n" msg)

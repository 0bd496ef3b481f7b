open Sva_ir

type entry = {
  ce_module_name : string;
  ce_bytecode : string;
  ce_native : string;
  ce_signature : string;
}

exception Tampered of string

let svm_key = ref "sva-secure-virtual-machine-key"

let translate (m : Irmod.t) =
  (* The interpreter is the translator; its deterministic input is the
     bytecode, so the cacheable translation artifact is a fingerprint over
     the bytecode plus the translation scheme version. *)
  Sha256.hex ("svm-translate-v1:" ^ Codec.encode m)

let payload name bytecode native =
  Printf.sprintf "%d:%s|%d:%s|%d:%s" (String.length name) name
    (String.length bytecode) bytecode (String.length native) native

let sign m =
  let bytecode = Codec.encode m in
  let native = translate m in
  let name = m.Irmod.m_name in
  {
    ce_module_name = name;
    ce_bytecode = bytecode;
    ce_native = native;
    ce_signature = Sha256.hmac ~key:!svm_key (payload name bytecode native);
  }

let verify e =
  let expect =
    Sha256.hmac ~key:!svm_key (payload e.ce_module_name e.ce_bytecode e.ce_native)
  in
  if not (String.equal expect e.ce_signature) then
    raise (Tampered ("signature mismatch for module " ^ e.ce_module_name));
  let m =
    try Codec.decode e.ce_bytecode
    with Codec.Decode_error msg -> raise (Tampered ("undecodable bytecode: " ^ msg))
  in
  (* The cached native artifact must match a fresh translation. *)
  if not (String.equal (translate m) e.ce_native) then
    raise (Tampered ("stale native translation for module " ^ e.ce_module_name));
  m

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let tamper_bytecode e =
  { e with ce_bytecode = flip_byte e.ce_bytecode (String.length e.ce_bytecode / 2) }

let tamper_native e =
  { e with ce_native = flip_byte e.ce_native (String.length e.ce_native / 2) }

(* ---------- per-function translation-cache entries ----------

   The compiled engine caches the translation of each function, keyed
   by the SHA-256 of the function's bytecode.  Each
   entry is signed exactly like a module entry: the SVM re-verifies the
   signature before reusing a cached translation, and a tampered entry is
   discarded in favour of a fresh (re-verified, re-signed) translation. *)

type fentry = {
  fe_name : string;  (* function name; diagnostic only *)
  fe_hash : string;  (* sha256 hex of fe_bytecode: the cache key *)
  fe_bytecode : string;
  fe_native : string;
  fe_signature : string;
}

(* Domain-separated from module entries so a function cannot masquerade
   as a module (or vice versa) under the same key. *)
let fpayload name bytecode native = payload ("func:" ^ name) bytecode native

let sign_function ~name ~bytecode ~native =
  {
    fe_name = name;
    fe_hash = Sha256.hex bytecode;
    fe_bytecode = bytecode;
    fe_native = native;
    fe_signature = Sha256.hmac ~key:!svm_key (fpayload name bytecode native);
  }

let verify_function e ~bytecode ~native =
  let expect =
    Sha256.hmac ~key:!svm_key (fpayload e.fe_name e.fe_bytecode e.fe_native)
  in
  if not (String.equal expect e.fe_signature) then
    raise (Tampered ("signature mismatch for function " ^ e.fe_name));
  if not (String.equal e.fe_bytecode bytecode) then
    raise (Tampered ("cached bytecode differs for function " ^ e.fe_name));
  if not (String.equal e.fe_hash (Sha256.hex bytecode)) then
    raise (Tampered ("cache key mismatch for function " ^ e.fe_name));
  if not (String.equal e.fe_native native) then
    raise (Tampered ("stale native translation for function " ^ e.fe_name))

let tamper_fentry_signature e =
  { e with fe_signature = flip_byte e.fe_signature (String.length e.fe_signature / 2) }

let tamper_fentry_native e =
  { e with fe_native = flip_byte e.fe_native (String.length e.fe_native / 2) }

let tamper_fentry_bytecode e =
  { e with fe_bytecode = flip_byte e.fe_bytecode (String.length e.fe_bytecode / 2) }

(* ---------- on-disk fentry serialization ----------

   The persistent translation cache stores one signed [fentry] per file,
   content-addressed by [fe_hash].  The format is deliberately dumb —
   magic, then five length-prefixed fields — because nothing in it is
   trusted: a decoded entry still has to pass [verify_function] before
   the SVM reuses the translation, so a corrupted file can at worst cost
   a re-translation, never safety. *)

let fentry_magic = "SVAFENT1"

let encode_fentry e =
  let buf = Buffer.create (256 + String.length e.fe_bytecode) in
  Buffer.add_string buf fentry_magic;
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "%08x" (String.length s));
      Buffer.add_string buf s)
    [ e.fe_name; e.fe_hash; e.fe_bytecode; e.fe_native; e.fe_signature ];
  Buffer.contents buf

let decode_fentry data =
  let err msg = raise (Codec.Decode_error ("fentry: " ^ msg)) in
  let mlen = String.length fentry_magic in
  if String.length data < mlen || String.sub data 0 mlen <> fentry_magic then
    err "bad magic";
  let pos = ref mlen in
  let field what =
    if !pos + 8 > String.length data then err ("truncated length of " ^ what);
    let n =
      match int_of_string ("0x" ^ String.sub data !pos 8) with
      | n when n >= 0 -> n
      | _ -> err ("negative length of " ^ what)
      | exception _ -> err ("malformed length of " ^ what)
    in
    pos := !pos + 8;
    if !pos + n > String.length data then err ("truncated " ^ what);
    let s = String.sub data !pos n in
    pos := !pos + n;
    s
  in
  let fe_name = field "name" in
  let fe_hash = field "hash" in
  let fe_bytecode = field "bytecode" in
  let fe_native = field "native" in
  let fe_signature = field "signature" in
  if !pos <> String.length data then err "trailing bytes";
  { fe_name; fe_hash; fe_bytecode; fe_native; fe_signature }

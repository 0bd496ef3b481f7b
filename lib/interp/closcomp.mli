(** The SVM's compiled engine: a closure compiler with a signed
    translation cache (Section 3.4).

    Functions ({!compile_all} at instantiate, or {!Interp.enter} on the
    first entry of one linked later) are compiled into trees of OCaml
    closures — one chain per
    basic block, with operands, widths and gep terms resolved at
    translation time, branch targets resolved to block indices, and a
    block-ending compare fused into its branch.  Each translation is
    recorded as a signed cache entry keyed by the SHA-256 of the
    function's bytecode; reuse re-verifies the signature and a tampered
    entry falls back to re-translation from re-verified bytecode.

    The engine is semantically invisible: results, traps, check
    statistics and the modeled cycle counts are bit-identical to the
    interpreter's.  Only host wall-clock time improves. *)

open Sva_ir

val enable : ?threshold:int -> Interp.t -> unit
(** Install the translator on a VM: a function not yet compiled is
    translated on its first entry and runs compiled from then on.
    [threshold] is kept only because [bench/perf] passes [~threshold:1];
    any other value raises [Invalid_argument]. *)

val compile_all : Interp.t -> unit
(** Whole-kernel AOT: translate every loaded function now (in
    deterministic name order), through the same signed cache — against a
    populated {!Tcache_disk} store this is all verified disk hits and
    zero re-translations.  Host work only; execution stays bit-identical
    to the interpreter. *)

(** {1 Translation cache introspection (tests and demos)} *)

val key_of_func : Func.t -> string
(** The cache key: SHA-256 hex of the function's bytecode. *)

val cache_size : unit -> int
val clear_cache : unit -> unit

val cached_entry : string -> Sva_bytecode.Signing.fentry option
(** Look up the signed entry recorded under a cache key. *)

val tamper_cached :
  string -> (Sva_bytecode.Signing.fentry -> Sva_bytecode.Signing.fentry) -> bool
(** Corrupt the cached entry under a key in place (e.g. with
    {!Sva_bytecode.Signing.tamper_fentry_signature}); returns [false]
    when the key is absent. *)

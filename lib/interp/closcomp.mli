(** The SVM's second execution tier: a closure compiler with a signed
    translation cache (Section 3.4).

    Hot functions (profiled by {!Interp.enter} against the installed
    threshold) are compiled into trees of OCaml closures — per-block
    fused chains with specialized operand fetches, resolved branch
    targets, and superinstruction fusion for compare+branch,
    gep+load/store and check+access pairs.  Each translation is recorded
    as a signed cache entry keyed by the SHA-256 of the function's
    bytecode; reuse re-verifies the signature and a tampered entry falls
    back to re-translation from re-verified bytecode.

    The tier is semantically invisible: results, traps, check statistics
    and the modeled cycle counts are bit-identical to the interpreter's.
    Only host wall-clock time improves. *)

open Sva_ir

val enable : ?threshold:int -> Interp.t -> unit
(** Install the tier on a VM: functions entered at least [threshold]
    times (default 16, clamped to at least 1) are translated and run
    compiled from then on. *)

val compile_all : Interp.t -> unit
(** Whole-kernel AOT: translate every loaded function now (in
    deterministic name order), through the same signed cache — against a
    populated {!Tcache_disk} store this is all verified disk hits and
    zero re-translations.  Host work only; execution stays bit-identical
    to the other engines. *)

val build : Interp.t -> Interp.prepared_func -> int64 list -> int64 option
(** Compile a prepared function to its closure-tree entry point,
    bypassing the translation cache (exposed for tests).  Block dispatch
    uses trace superblocks: linear multi-block traces grown from loop
    headers along profiled (or statically likely) edges, with side exits
    back to generic dispatch — semantics and counters unchanged. *)

val translate :
  Interp.t -> Interp.prepared_func -> int64 list -> int64 option
(** The installed [jit_translate]: consult the signed in-memory
    translation cache, then the persistent {!Tcache_disk} store
    (verifying the entry's signature in either case); re-verify,
    re-sign and persist on a miss or a tampered/stale entry, then
    compile.  Bumps the {!Sva_rt.Stats} tier counters. *)

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

(** What the four trusted checkers share (Section 5).

    {!Tyck}, {!Rangecert}, {!Atomcert} and {!Poolcert} each re-check,
    with purely local rules, evidence that an untrusted analysis
    produced.  Each reports what it rejects as {!error}s and comes with
    bug injectors that corrupt a copy of the evidence.  A {!t} pairs one
    checker, its trusted configuration already applied, with those
    injectors; {!gate} is the build's accept-or-reject step and
    {!experiment} the bug-injection experiment, the same for all four.

    The values: [Inject.tyck], [Rangecert.cert], [Atomcert.cert] and
    [Inject.poolcert]. *)

open Sva_ir

type error = {
  func : string;
  instr : int;  (** instruction or register id; -1 when not tied to one *)
  msg : string;
}

val string_of_error : error -> string
(** [@func:instr: msg], or [@func: msg] when [instr] is negative. *)

type 'b injector = Irmod.t -> 'b -> seed:int -> ('b * string) option
(** Corrupt a copy of the evidence at a site selected by [seed]: the
    buggy copy and a description of the bug, or [None] when no site
    exists for this seed.  The original is never mutated. *)

type 'b t = {
  what : string;  (** the evidence, as a rejection names it *)
  check : Irmod.t -> 'b -> error list;  (** empty: accepted *)
  bugs : (string * 'b injector) list;  (** bug kinds by name, in order *)
}

exception Rejected of string * error list
(** [Rejected (what, errors)]: a trusted checker refused the evidence a
    build produced — a safety-checking-compiler bug.  The registered
    printer gives ["<what> checking failed:"] and then one error per
    line. *)

val gate : 'b t -> Irmod.t -> 'b -> unit
(** @raise Rejected if the checker reports any error. *)

val experiment :
  'b t -> Irmod.t -> 'b -> instances:int -> (string * string * bool) list
(** For each bug kind in order, inject at seeds 0, 1, … up to 200 until
    [instances] injections succeed, and report each as (kind,
    description, caught).  Identical descriptions are not merged.  All
    entries should be caught. *)

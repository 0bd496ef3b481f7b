(** Analysis-bug injection — the Section 5 experiment.

    "We evaluated the effectiveness of the bytecode verifier in detecting
    bugs in the safety checking compiler, by injecting 20 different bugs
    (5 instances each of 4 different kinds) in the pointer analysis
    results. ... The verifier was able to detect all 20 bugs."

    Each injector perturbs a {e copy} of the annotations at a concrete
    program site (so the bug is guaranteed to be semantically meaningful),
    deterministically selected by [seed]. *)

open Sva_ir

type kind =
  | Wrong_var_mp  (** incorrect variable aliasing: a value's pool changed *)
  | Wrong_edge  (** incorrect inter-node edge: a pool's target rewired *)
  | False_th  (** incorrect claim of type homogeneity *)
  | Split_mp  (** insufficient merging: one pool split in two *)

val kind_name : kind -> string
val all_kinds : kind list

val inject : Irmod.t -> Tyck.annot -> kind -> seed:int -> (Tyck.annot * string) option
(** Produce a buggy annotation copy and a description of the injected bug,
    or [None] if no suitable site exists for this seed (the experiment
    driver then tries the next seed). *)

val tyck : trusted:string list -> Tyck.annot Cert.t
(** {!Tyck.check} under the trusted interface set [trusted], with the
    four injectors above.  [Cert.experiment (tyck ~trusted) m an
    ~instances:5] is the paper's experiment. *)

(** {1 Pool-safety certificate bugs}

    The same experiment transposed to the {!Poolcert} bundle: each
    injector perturbs a copy of the evidence the way a specific
    points-to bug would, and the trusted checker must reject every
    one. *)

type pool_bug =
  | Confuse_merge
      (** two differently-typed TH pools merged by a buggy unification *)
  | Drop_escape
      (** an escape edge lost: a frontier site hidden, or an exposed
          pool claimed complete *)
  | Stale_find
      (** a gep result left in a stale partition (missed find) *)
  | Wrong_tau  (** a TH certificate claims the wrong homogeneous type *)
  | Drop_member  (** a membership witness misses a real access site *)

val all_pool_bugs : pool_bug list

val pool_inject :
  Irmod.t ->
  Sva_safety.Poolev.bundle ->
  pool_bug ->
  seed:int ->
  (Sva_safety.Poolev.bundle * string) option
(** Produce a buggy bundle copy and a description, or [None] when no
    suitable site exists for this seed. *)

val poolcert :
  config:Sva_analysis.Pointsto.config -> Sva_safety.Poolev.bundle Cert.t
(** {!Poolcert.check} under the porting configuration [config], with the
    five pool-certificate injectors above. *)

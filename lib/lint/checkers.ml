open Sva_ir
open Sva_analysis

module IS = Set.Make (Int)
module IM = Map.Make (Int)
module SS = Set.Make (String)

type config = {
  lc_trusted : string list;
  lc_sleeping : string list;
  lc_interrupt_register : string;
  lc_free_functions : string list;
}

let default_config =
  {
    lc_trusted = [ "copy_from_user"; "copy_to_user" ];
    lc_sleeping = [ "kmalloc"; "vmalloc"; "kmem_cache_alloc" ];
    lc_interrupt_register = "sva_register_interrupt";
    lc_free_functions = [];
  }

type ctx = {
  m : Irmod.t;
  pa : Pointsto.result;
  cg : Callgraph.t;
  config : config;
  mutable iterations : int;  (** total solver block visits, all checkers *)
}

let make_ctx ?(config = default_config) m pa =
  {
    m;
    pa;
    cg = Callgraph.build m pa;
    config;
    iterations = 0;
  }

let iterations ctx = ctx.iterations

(* Functions whose bodies the checkers may inspect. *)
let analyzed ctx =
  List.filter
    (fun (f : Func.t) ->
      (not (Func.has_attr f Func.Noanalyze)) && f.Func.f_blocks <> [])
    ctx.m.Irmod.m_funcs

let find_analyzed ctx fn =
  match Irmod.find_func ctx.m fn with
  | Some f when (not (Func.has_attr f Func.Noanalyze)) && f.Func.f_blocks <> []
    ->
      Some f
  | Some _ | None -> None

(* Possible callees of one call instruction: the direct name, or the
   points-to target set for indirect calls. *)
let call_targets ctx ~fname (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Call (Value.Fn (n, _), _) -> [ n ]
  | Instr.Call (_, _) -> Pointsto.callsite_targets ctx.pa ~fname i.Instr.id
  | _ -> []

(* Replay a block's instructions from its solved entry fact, calling
   [visit] with the fact holding {e before} each instruction.  With the
   default [visit] this is exactly a block transfer function. *)
let replay step ?visit (b : Func.block) fact =
  List.fold_left
    (fun fact (i : Instr.t) ->
      (match visit with Some v -> v fact i | None -> ());
      step fact i)
    fact b.Func.insns

(* ------------------------------------------------------------------ *)
(* Checker 1: user-pointer taint (Section 4.8's syscall boundary).     *)
(*                                                                     *)
(* Syscall handler arguments are user-controlled.  A value computed    *)
(* from one (casts, arithmetic, gep base) stays tainted; dereferencing *)
(* a tainted pointer anywhere except a trusted user-copy function is   *)
(* a kernel-memory-disclosure/corruption primitive.  Taint does not    *)
(* flow through memory (a load result is kernel data) nor through gep  *)
(* indices (indexing a kernel table with a user integer is bounds-     *)
(* checked separately).                                                *)
(* ------------------------------------------------------------------ *)

module TaintL = struct
  type t = IS.t

  let bottom = IS.empty
  let equal = IS.equal
  let join = IS.union
end

module TaintSolver = Dataflow.Make (TaintL)

let tainted_value taint = function
  | Value.Reg (id, _, _) -> IS.mem id taint
  | Value.Imm _ | Value.Fimm _ | Value.Null _ | Value.Undef _ | Value.Global _
  | Value.Fn _ ->
      false

let taint_step taint (i : Instr.t) =
  let tainted =
    match i.Instr.kind with
    | Instr.Binop (_, a, b) ->
        tainted_value taint a || tainted_value taint b
    | Instr.Cast (_, v, _) -> tainted_value taint v
    | Instr.Gep (base, _) -> tainted_value taint base
    | Instr.Phi incoming ->
        List.exists (fun (_, v) -> tainted_value taint v) incoming
    | Instr.Select (_, a, b) ->
        tainted_value taint a || tainted_value taint b
    | Instr.Icmp _ | Instr.Alloca _ | Instr.Load _ | Instr.Store _
    | Instr.Call _ | Instr.Malloc _ | Instr.Free _ | Instr.Atomic_cas _
    | Instr.Atomic_add _ | Instr.Membar | Instr.Intrinsic _ ->
        false
  in
  if tainted then IS.add i.Instr.id taint else taint

let solve_taint ctx (f : Func.t) ~entry =
  let r = TaintSolver.solve ~entry ~transfer:(replay taint_step) f (Cfg.build f) in
  ctx.iterations <- ctx.iterations + r.TaintSolver.iterations;
  r

let user_taint ctx =
  let trusted fn = List.mem fn ctx.config.lc_trusted in
  let handlers =
    SS.of_list (List.map snd (Pointsto.syscall_table ctx.pa))
  in
  let funcs = List.map (fun (f : Func.t) -> f.Func.f_name) (analyzed ctx) in
  let param_seeds (f : Func.t) =
    IS.of_list (List.init (List.length f.Func.f_params) Fun.id)
  in
  let init fn =
    if SS.mem fn handlers then
      match find_analyzed ctx fn with
      | Some f -> param_seeds f
      | None -> IS.empty
    else IS.empty
  in
  (* Fixpoint over per-function summaries: the set of parameters that may
     carry user-controlled values.  A call with a tainted argument taints
     the corresponding parameter of every possible callee. *)
  let summaries =
    Dataflow.Summaries.solve ctx.cg ~funcs ~init ~equal:IS.equal
      ~transfer:(fun ~get ~update fn ->
        if trusted fn then ()
        else
          match find_analyzed ctx fn with
          | None -> ()
          | Some f ->
              let r = solve_taint ctx f ~entry:(get fn) in
              List.iter
                (fun (b : Func.block) ->
                  ignore
                    (replay taint_step
                       ~visit:(fun fact (i : Instr.t) ->
                         match i.Instr.kind with
                         | Instr.Call (_, args) ->
                             List.iteri
                               (fun k a ->
                                 if tainted_value fact a then
                                   List.iter
                                     (fun tgt ->
                                       if not (trusted tgt) then
                                         update tgt
                                           (IS.add k (get tgt)))
                                     (call_targets ctx ~fname:fn i))
                               args
                         | _ -> ())
                       b
                       (r.TaintSolver.input b.Func.label)))
                f.Func.f_blocks)
  in
  (* Reporting pass under the final summaries. *)
  let findings = ref [] in
  List.iter
    (fun (f : Func.t) ->
      let fn = f.Func.f_name in
      if not (trusted fn) then begin
        let seeds = IS.inter (Dataflow.Summaries.get summaries fn)
            (param_seeds f)
        in
        if not (IS.is_empty seeds) then begin
          let r = solve_taint ctx f ~entry:seeds in
          List.iter
            (fun (b : Func.block) ->
              ignore
                (replay taint_step
                   ~visit:(fun fact (i : Instr.t) ->
                     let deref p what =
                       if tainted_value fact p then
                         findings :=
                           Report.finding ~checker:"user-taint" ~func:fn
                             ~instr:i.Instr.id
                             (Printf.sprintf
                                "%s through user-controlled pointer \
                                 (reaches a syscall argument; only %s may \
                                 dereference user pointers)"
                                what
                                (String.concat "/" ctx.config.lc_trusted))
                           :: !findings
                     in
                     match i.Instr.kind with
                     | Instr.Load p -> deref p "load"
                     | Instr.Store (_, p) -> deref p "store"
                     | Instr.Atomic_cas (p, _, _) | Instr.Atomic_add (p, _) ->
                         deref p "atomic update"
                     | _ -> ())
                   b
                   (r.TaintSolver.input b.Func.label)))
            f.Func.f_blocks
        end
      end)
    (analyzed ctx);
  !findings

(* ------------------------------------------------------------------ *)
(* Checker 2: definite null / uninitialized dereference — the static   *)
(* side of guarantee T4.  Only provably-null (or provably-uninit)      *)
(* pointers are reported, so a clean kernel produces no findings; the  *)
(* run-time lscheck still covers the "maybe" cases.  Conditional       *)
(* branches refine facts per edge: on the true edge of [p == 0] the    *)
(* pointer is null, on the false edge non-null.                        *)
(* ------------------------------------------------------------------ *)

type nullness = NBot | NNull | NUndef | NNonnull | NTop

let null_join a b =
  if a = b then a
  else
    match (a, b) with
    | NBot, x | x, NBot -> x
    | NNull, NUndef | NUndef, NNull -> NNull
    | _ -> NTop

module NullL = struct
  type t = nullness IM.t

  let bottom = IM.empty
  let equal = IM.equal ( = )
  let join = IM.union (fun _ a b -> Some (null_join a b))
end

module NullSolver = Dataflow.Make (NullL)

let null_of fact = function
  | Value.Null _ -> NNull
  | Value.Undef _ -> NUndef
  | Value.Imm (_, 0L) -> NNull
  | Value.Imm _ | Value.Fimm _ | Value.Global _ | Value.Fn _ -> NNonnull
  | Value.Reg (id, _, _) -> (
      match IM.find_opt id fact with Some v -> v | None -> NBot)

let null_step fact (i : Instr.t) =
  let set v = IM.add i.Instr.id v fact in
  match i.Instr.kind with
  | Instr.Alloca _ | Instr.Malloc _ -> set NNonnull
  | Instr.Gep (base, _) -> set (null_of fact base)
  | Instr.Cast (_, v, _) -> set (null_of fact v)
  | Instr.Select (_, a, b) -> set (null_join (null_of fact a) (null_of fact b))
  | Instr.Phi incoming ->
      set
        (List.fold_left
           (fun acc (_, v) -> null_join acc (null_of fact v))
           NBot incoming)
  | _ -> ( match Instr.result i with Some _ -> set NTop | None -> fact)

(* Resolve a branch condition to "register [p] compared against null":
   returns [(p, true)] when the condition is true iff p is null.  Peels
   integer widenings and pointer-to-integer casts, so both [if (p)] and
   [if (p == 0)] lowerings are recognized. *)
let null_test defs cond =
  let def_of = function
    | Value.Reg (id, _, _) -> Hashtbl.find_opt defs id
    | _ -> None
  in
  let rec strip v =
    match def_of v with
    | Some { Instr.kind = Instr.Cast ((Instr.Ptrtoint | Instr.Bitcast), v', _); _ }
      ->
        strip v'
    | _ -> v
  in
  let is_nullc = function
    | Value.Null _ | Value.Undef _ | Value.Imm (_, 0L) -> true
    | _ -> false
  in
  let rec go v pos =
    match def_of v with
    | Some { Instr.kind = Instr.Icmp (op, a, b); _ } when op = Instr.Eq || op = Instr.Ne
      -> (
        let pick x y =
          if is_nullc y then
            match strip x with
            | Value.Reg (id, ty, _) when (match ty with Ty.Ptr _ -> true | _ -> false)
              ->
                Some id
            | _ -> None
          else None
        in
        let p = match pick a b with Some p -> Some p | None -> pick b a in
        match p with
        | Some id -> Some (id, if op = Instr.Eq then pos else not pos)
        | None -> (
            (* [icmp ne b, 0] tests the truth of boolean [b] (the
               lowering of [if (...)] re-compares the zext'd i1);
               [icmp eq b, 0] tests its negation. *)
            match (a, b) with
            | (x, Value.Imm (_, 0L)) | (Value.Imm (_, 0L), x) ->
                go x (if op = Instr.Ne then pos else not pos)
            | _ -> None))
    | Some { Instr.kind = Instr.Cast ((Instr.Zext | Instr.Sext | Instr.Trunc), v', _); _ }
      ->
        go v' pos
    | _ -> None
  in
  go cond true

let null_deref ctx =
  let findings = ref [] in
  List.iter
    (fun (f : Func.t) ->
      let fn = f.Func.f_name in
      let cfg = Cfg.build f in
      let defs = Hashtbl.create 32 in
      Func.iter_instrs f (fun _ i -> Hashtbl.replace defs i.Instr.id i);
      let edge ~src ~dst fact =
        match (Cfg.find_block cfg src).Func.term with
        | Instr.Br (cond, tl, el) when tl <> el -> (
            match null_test defs cond with
            | Some (p, true_means_null) ->
                let on_true = dst = tl in
                let v =
                  if on_true = true_means_null then NNull else NNonnull
                in
                IM.add p v fact
            | None -> fact)
        | _ -> fact
      in
      let r = NullSolver.solve ~edge ~transfer:(replay null_step) f cfg in
      ctx.iterations <- ctx.iterations + r.NullSolver.iterations;
      List.iter
        (fun (b : Func.block) ->
          if Cfg.is_reachable cfg b.Func.label then
            ignore
              (replay null_step
                 ~visit:(fun fact (i : Instr.t) ->
                   let deref p what =
                     match null_of fact p with
                     | NNull ->
                         findings :=
                           Report.finding ~checker:"null-deref" ~func:fn
                             ~instr:i.Instr.id
                             (Printf.sprintf
                                "%s through provably-null pointer" what)
                           :: !findings
                     | NUndef ->
                         findings :=
                           Report.finding ~checker:"null-deref" ~func:fn
                             ~instr:i.Instr.id
                             (Printf.sprintf
                                "%s through uninitialized pointer" what)
                           :: !findings
                     | NBot | NNonnull | NTop -> ()
                   in
                   match i.Instr.kind with
                   | Instr.Load p -> deref p "load"
                   | Instr.Store (_, p) -> deref p "store"
                   | Instr.Atomic_cas (p, _, _) | Instr.Atomic_add (p, _) ->
                       deref p "atomic update"
                   | _ -> ())
                 b
                 (r.NullSolver.input b.Func.label)))
        f.Func.f_blocks)
    (analyzed ctx);
  !findings

(* ------------------------------------------------------------------ *)
(* Checker 3: interrupt-context safety.  Handlers registered through   *)
(* the SVA-OS interrupt-registration operation run with interrupts     *)
(* disabled; anything they (transitively) call must not invoke a       *)
(* sleeping allocator.                                                 *)
(* ------------------------------------------------------------------ *)

let interrupt_handlers ctx =
  let reg = ctx.config.lc_interrupt_register in
  let handlers = ref SS.empty in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun _ (i : Instr.t) ->
          let scan name args =
            if name = reg then
              List.iter
                (function
                  | Value.Fn (h, _) -> handlers := SS.add h !handlers
                  | _ -> ())
                args
          in
          match i.Instr.kind with
          | Instr.Call (Value.Fn (n, _), args) -> scan n args
          | Instr.Intrinsic (n, args) -> scan n args
          | _ -> ()))
    (analyzed ctx);
  SS.elements !handlers

let irq_sleep ctx =
  let handlers = interrupt_handlers ctx in
  (* First (alphabetical) handler from which each function is reachable,
     for a deterministic and explainable report. *)
  let via = Hashtbl.create 32 in
  List.iter
    (fun h ->
      List.iter
        (fun fn -> if not (Hashtbl.mem via fn) then Hashtbl.replace via fn h)
        (Callgraph.reachable_from ctx.cg [ h ]))
    handlers;
  let findings = ref [] in
  List.iter
    (fun (f : Func.t) ->
      match Hashtbl.find_opt via f.Func.f_name with
      | None -> ()
      | Some h ->
          Func.iter_instrs f (fun _ (i : Instr.t) ->
              match i.Instr.kind with
              | Instr.Call (Value.Fn (callee, _), _)
                when List.mem callee ctx.config.lc_sleeping ->
                  findings :=
                    Report.finding ~checker:"irq-sleep" ~func:f.Func.f_name
                      ~instr:i.Instr.id
                      (Printf.sprintf
                         "call to sleeping allocator %s in interrupt \
                          context (reachable from handler %s)"
                         callee h)
                    :: !findings
              | _ -> ()))
    (analyzed ctx);
  !findings

(* ------------------------------------------------------------------ *)
(* Checker 4: static safe-access proofs.  A load/store whose pointer   *)
(* provably stays inside a known-size, known-live object needs no      *)
(* run-time lscheck (Section 7.1.3's static elision).  Proof sources:  *)
(*                                                                     *)
(*  - constant-size allocas none of whose derived pointers escape the  *)
(*    function (not stored as a value, returned, passed to a call, or  *)
(*    freed) — such an object is live for the whole frame;             *)
(*  - globals, provided nothing in the module frees a global-derived   *)
(*    pointer or stores one to memory (globals are registered at boot  *)
(*    and then live forever).                                          *)
(*                                                                     *)
(* Geps preserve safety only when [Sva_safety.Checkinsert.static_safe] proves the *)
(* constant indexing in bounds of the base's static type.              *)
(* ------------------------------------------------------------------ *)

type safety = SBot | Safe of int  (** valid bytes at the pointer *) | SUnsafe

let safety_join a b =
  match (a, b) with
  | SBot, x | x, SBot -> x
  | Safe n, Safe m -> Safe (min n m)
  | SUnsafe, _ | _, SUnsafe -> SUnsafe

module SafeL = struct
  type t = safety IM.t

  let bottom = IM.empty
  let equal = IM.equal ( = )
  let join = IM.union (fun _ a b -> Some (safety_join a b))
end

module SafeSolver = Dataflow.Make (SafeL)

type proof = { pr_func : string; pr_instr : int }

let sizeof_opt tctx ty =
  match Ty.sizeof tctx ty with n -> Some n | exception Invalid_argument _ -> None

(* Flow-insensitive per-function map: register -> the allocas (by id) and
   globals (by name) its value may be derived from via gep/cast/phi/select
   chains. *)
let derivations (f : Func.t) =
  let tbl : (int, IS.t * SS.t) Hashtbl.t = Hashtbl.create 32 in
  let get id =
    match Hashtbl.find_opt tbl id with
    | Some p -> p
    | None -> (IS.empty, SS.empty)
  in
  let of_value = function
    | Value.Reg (id, _, _) -> get id
    | Value.Global (g, _) -> (IS.empty, SS.singleton g)
    | _ -> (IS.empty, SS.empty)
  in
  let union (a1, g1) (a2, g2) = (IS.union a1 a2, SS.union g1 g2) in
  let changed = ref true in
  while !changed do
    changed := false;
    Func.iter_instrs f (fun _ (i : Instr.t) ->
        let next =
          match i.Instr.kind with
          | Instr.Alloca _ -> Some (IS.singleton i.Instr.id, SS.empty)
          | Instr.Gep (base, _) -> Some (of_value base)
          | Instr.Cast (_, v, _) -> Some (of_value v)
          | Instr.Select (_, a, b) -> Some (union (of_value a) (of_value b))
          | Instr.Phi incoming ->
              Some
                (List.fold_left
                   (fun acc (_, v) -> union acc (of_value v))
                   (IS.empty, SS.empty) incoming)
          | _ -> None
        in
        match next with
        | Some ((a, g) as p) ->
            let a0, g0 = get i.Instr.id in
            if not (IS.equal a a0 && SS.equal g g0) then begin
              Hashtbl.replace tbl i.Instr.id p;
              changed := true
            end
        | None -> ());
  done;
  of_value

(* Globals whose whole-module liveness assumption holds: no instruction
   anywhere frees a global-derived pointer, passes one to a free
   function, or stores one to memory (from where unseen code could free
   it).  Returns the set of *disqualified* globals. *)
let unsafe_globals ctx =
  let bad = ref SS.empty in
  List.iter
    (fun (f : Func.t) ->
      let derived = derivations f in
      let globals_of v = snd (derived v) in
      let disqualify v = bad := SS.union (globals_of v) !bad in
      Func.iter_instrs f (fun _ (i : Instr.t) ->
          match i.Instr.kind with
          | Instr.Free p -> disqualify p
          | Instr.Store (v, _) -> disqualify v
          | Instr.Call (Value.Fn (callee, _), args)
            when List.mem callee ctx.config.lc_free_functions ->
              List.iter disqualify args
          | _ -> ()))
    (analyzed ctx);
  !bad

let safe_access ?(ranges = fun ~fname:_ _ -> false) ctx =
  let tctx = ctx.m.Irmod.m_ctx in
  let bad_globals = unsafe_globals ctx in
  let proofs = ref [] in
  List.iter
    (fun (f : Func.t) ->
      let fn = f.Func.f_name in
      let derived = derivations f in
      (* Allocas whose frame-lifetime argument holds: constant size, and
         no derived pointer is stored as a value, returned, passed to any
         call or intrinsic, or freed. *)
      let alloca_size = Hashtbl.create 8 in
      Func.iter_instrs f (fun _ (i : Instr.t) ->
          match i.Instr.kind with
          | Instr.Alloca (ty, Value.Imm (_, n)) when Int64.compare n 0L > 0 -> (
              match sizeof_opt tctx ty with
              | Some sz ->
                  Hashtbl.replace alloca_size i.Instr.id (Int64.to_int n * sz)
              | None -> ())
          | _ -> ());
      let escaped = ref IS.empty in
      let escape v = escaped := IS.union (fst (derived v)) !escaped in
      Func.iter_instrs f (fun _ (i : Instr.t) ->
          match i.Instr.kind with
          | Instr.Store (v, _) -> escape v
          | Instr.Free p -> escape p
          | Instr.Call (_, _) | Instr.Intrinsic (_, _) ->
              List.iter escape (Instr.operands i.Instr.kind)
          | _ -> ());
      List.iter
        (fun (b : Func.block) ->
          match b.Func.term with
          | Instr.Ret (Some v) -> escape v
          | _ -> ())
        f.Func.f_blocks;
      let eligible_alloca id =
        Hashtbl.mem alloca_size id && not (IS.mem id !escaped)
      in
      let safe_of fact = function
        | Value.Global (g, ty) when not (SS.mem g bad_globals) -> (
            match sizeof_opt tctx ty with Some n -> Safe n | None -> SUnsafe)
        | Value.Reg (id, _, _) -> (
            match IM.find_opt id fact with Some s -> s | None -> SUnsafe)
        | _ -> SUnsafe
      in
      let step fact (i : Instr.t) =
        let set s = IM.add i.Instr.id s fact in
        match i.Instr.kind with
        | Instr.Alloca _ when eligible_alloca i.Instr.id -> (
            match Hashtbl.find_opt alloca_size i.Instr.id with
            | Some sz -> set (Safe sz)
            | None -> set SUnsafe)
        | Instr.Gep (base, idxs) -> (
            match (safe_of fact base, Value.ty base) with
            | Safe n, Ty.Ptr pointee
              when (match sizeof_opt tctx pointee with
                   | Some psz -> n >= psz
                   | None -> false)
                   && (Sva_safety.Checkinsert.static_safe tctx base idxs
                      (* variable indexing certified in extent by the
                         interval analysis (certificate re-verified by
                         the trusted checker) *)
                      || ranges ~fname:fn i) ->
                set (Safe (Sva_safety.Checkinsert.gep_access_len tctx i))
            | _ -> set SUnsafe)
        | Instr.Cast (_, v, _) -> set (safe_of fact v)
        | Instr.Select (_, a, b) ->
            set (safety_join (safe_of fact a) (safe_of fact b))
        | Instr.Phi incoming ->
            set
              (List.fold_left
                 (fun acc (_, v) -> safety_join acc (safe_of fact v))
                 SBot incoming)
        | Instr.Free _ -> IM.map (fun _ -> SUnsafe) fact
        | _ -> ( match Instr.result i with Some _ -> set SUnsafe | None -> fact)
      in
      let r = SafeSolver.solve ~transfer:(replay step) f (Cfg.build f) in
      ctx.iterations <- ctx.iterations + r.SafeSolver.iterations;
      let scalar ty =
        match sizeof_opt tctx ty with Some n -> n | None -> max_int
      in
      List.iter
        (fun (b : Func.block) ->
          ignore
            (replay step
               ~visit:(fun fact (i : Instr.t) ->
                 let prove p len =
                   match safe_of fact p with
                   | Safe n when n >= len && len < max_int ->
                       proofs :=
                         { pr_func = fn; pr_instr = i.Instr.id } :: !proofs
                   | _ -> ()
                 in
                 match i.Instr.kind with
                 | Instr.Load p -> prove p (scalar i.Instr.ty)
                 | Instr.Store (v, p) -> prove p (scalar (Value.ty v))
                 | _ -> ())
               b
               (r.SafeSolver.input b.Func.label)))
        f.Func.f_blocks)
    (analyzed ctx);
  !proofs

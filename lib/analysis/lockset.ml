(* Interprocedural concurrency-safety analysis: must-hold locksets and
   interrupt masking over the kernel IR (the static groundwork for the
   SMP port — Section 6.2's interrupt machinery made checkable).

   The analysis is untrusted.  It classifies shared state with the
   unification points-to analysis (memory classes reachable from both an
   interrupt handler and a syscall handler), runs a forward must-
   dataflow whose lattice is interrupt-masked-bit x held-lock-set, made
   interprocedural by call-graph summaries keyed on each function's
   entry protection state, and reports:

   - [race]           an access pair with disjoint protection on shared
                      state, or a lock-free write to a lock-disciplined
                      global;
   - [deadlock]       a cycle in the lock-order graph;
   - [cli-imbalance]  a path returning with the interrupt mask changed;
   - [lock-imbalance] a path returning with the lockset changed;
   - [atomic-sleep]   a sleeping allocation while masked or holding a
                      spinlock (the interrupt-context rule of the PR-2
                      lint layer, extended to critical sections).

   Every obligation the analysis discharges is recorded as an atomicity
   certificate; {!Sva_tyck.Atomcert} re-verifies the bundle with purely
   local rules, sharing only the one-instruction transfer kernel
   ({!step}) and the call-effect summaries ({!effects}) with this
   producer — the same TCB split Rangecert uses for intervals. *)

open Sva_ir
module SS = Set.Make (String)

(* ---------- the protection lattice ---------- *)

type prot = { p_masked : bool; p_locks : SS.t }

type fact = Unreached | Known of prot

let unprotected = { p_masked = false; p_locks = SS.empty }

let prot_equal a b = a.p_masked = b.p_masked && SS.equal a.p_locks b.p_locks

(* Must-information meet: a merge point only guarantees what every
   incoming path guarantees. *)
let prot_join a b =
  {
    p_masked = a.p_masked && b.p_masked;
    p_locks = SS.inter a.p_locks b.p_locks;
  }

(* [prot_leq c p]: claim [c] is justified by fact [p]. *)
let prot_leq c p =
  ((not c.p_masked) || p.p_masked) && SS.subset c.p_locks p.p_locks

let fact_equal a b =
  match (a, b) with
  | Unreached, Unreached -> true
  | Known a, Known b -> prot_equal a b
  | _ -> false

let fact_join a b =
  match (a, b) with
  | Unreached, x | x, Unreached -> x
  | Known a, Known b -> Known (prot_join a b)

module L = struct
  type t = fact

  let bottom = Unreached
  let equal = fact_equal
  let join = fact_join
end

module Solver = Dataflow.Make (L)

let prot_to_string p =
  let locks =
    if SS.is_empty p.p_locks then "-"
    else String.concat "," (SS.elements p.p_locks)
  in
  Printf.sprintf "{masked=%b locks=%s}" p.p_masked locks

(* ---------- configuration ---------- *)

type config = {
  ls_interrupt_register : string;
  ls_syscall_register : string;
      (** the SVM syscall registration intrinsic; scanned syntactically
          in addition to the points-to syscall table, which cannot see
          handlers that were cast before registration *)
  ls_sleeping : string list;
      (** functions that may sleep (block), per the lint layer *)
  ls_extra_roots : string list;
      (** additional unmasked entry points (the syscall dispatcher) *)
}

let default_config =
  {
    ls_interrupt_register = "sva_register_interrupt";
    ls_syscall_register = "sva_register_syscall";
    ls_sleeping = [ "kmalloc"; "vmalloc"; "kmem_cache_alloc" ];
    ls_extra_roots = [ "kernel_syscall_entry" ];
  }

let cli_name = "sva_cli"
let sti_name = "sva_sti"
let acquire_name = "sva_lock_acquire"
let release_name = "sva_lock_release"
let syscall_invoke_name = "sva_syscall"

(* ---------- shared syntactic kernel (also used by Atomcert) ---------- *)

let defs_of (f : Func.t) =
  let t = Hashtbl.create 64 in
  Func.iter_instrs f (fun _ i -> Hashtbl.replace t i.Instr.id i);
  t

(* The global a pointer value is rooted at, looking through casts and
   geps within the function.  Lock identities and direct global accesses
   both resolve this way; values flowing through memory or calls are
   deliberately not chased (those accesses are classified by the
   points-to node of the object instead, and a lock word's address is
   never laundered like that in the kernel sources). *)
let rec root_global defs (v : Value.t) =
  match v with
  | Value.Global (n, _) -> Some n
  | Value.Reg (id, _, _) -> (
      match Hashtbl.find_opt defs id with
      | Some (i : Instr.t) -> (
          match i.Instr.kind with
          | Instr.Cast (_, v', _) -> root_global defs v'
          | Instr.Gep (base, _) -> root_global defs base
          | _ -> None)
      | None -> None)
  | _ -> None

let lock_operand defs args =
  match args with a :: _ -> root_global defs a | [] -> None

(* Call-effect summaries: what a callee {e may} do to the caller's
   protection state.  May-information over-approximates, so applying it
   to a must-fact is sound.  Bodyless externs are SVM builtins and never
   touch interrupt state (the one axiom of this layer); indirect calls
   and internal syscalls clobber everything. *)

type eff = { e_may_sti : bool; e_release_any : bool; e_released : SS.t }

let eff_id = { e_may_sti = false; e_release_any = false; e_released = SS.empty }
let eff_clobber = { e_may_sti = true; e_release_any = true; e_released = SS.empty }

let eff_equal a b =
  a.e_may_sti = b.e_may_sti
  && a.e_release_any = b.e_release_any
  && SS.equal a.e_released b.e_released

let eff_union a b =
  {
    e_may_sti = a.e_may_sti || b.e_may_sti;
    e_release_any = a.e_release_any || b.e_release_any;
    e_released = SS.union a.e_released b.e_released;
  }

let apply_eff e p =
  {
    p_masked = p.p_masked && not e.e_may_sti;
    p_locks =
      (if e.e_release_any then SS.empty else SS.diff p.p_locks e.e_released);
  }

(* Fixpoint over direct calls; monotone in a finite lattice.  Every
   function with a body is scanned (including [Noanalyze] ones — the
   points-to analysis skips those, but a syntactic may-scan costs
   nothing and keeps the axiom confined to true externs). *)
let effects (m : Irmod.t) =
  let tbl : (string, eff) Hashtbl.t = Hashtbl.create 64 in
  let bodied =
    List.filter (fun (f : Func.t) -> f.Func.f_blocks <> []) m.Irmod.m_funcs
  in
  List.iter (fun (f : Func.t) -> Hashtbl.replace tbl f.Func.f_name eff_id) bodied;
  let get n = Option.value (Hashtbl.find_opt tbl n) ~default:eff_id in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Func.t) ->
        let defs = defs_of f in
        let e = ref eff_id in
        Func.iter_instrs f (fun _ i ->
            match i.Instr.kind with
            | Instr.Intrinsic (n, _) when n = sti_name ->
                e := { !e with e_may_sti = true }
            | Instr.Intrinsic (n, args) when n = release_name -> (
                match lock_operand defs args with
                | Some l -> e := { !e with e_released = SS.add l !e.e_released }
                | None -> e := { !e with e_release_any = true })
            | Instr.Intrinsic (n, _) when n = syscall_invoke_name ->
                e := eff_union !e eff_clobber
            | Instr.Call (Value.Fn (n, _), _) -> e := eff_union !e (get n)
            | Instr.Call (_, _) -> e := eff_union !e eff_clobber
            | _ -> ());
        if not (eff_equal !e (get f.Func.f_name)) then begin
          Hashtbl.replace tbl f.Func.f_name !e;
          changed := true
        end)
      bodied
  done;
  tbl

let eff_of effs n = Option.value (Hashtbl.find_opt effs n) ~default:eff_id

(* The one-instruction transfer function — the kernel shared with the
   trusted checker.  Purely local: the only context is the per-function
   defs table (lock-operand resolution) and the may-effect summaries. *)
let step ~defs ~effs fact (i : Instr.t) =
  match fact with
  | Unreached -> Unreached
  | Known p -> (
      match i.Instr.kind with
      | Instr.Intrinsic (n, _) when n = cli_name ->
          Known { p with p_masked = true }
      | Instr.Intrinsic (n, _) when n = sti_name ->
          Known { p with p_masked = false }
      | Instr.Intrinsic (n, args) when n = acquire_name -> (
          match lock_operand defs args with
          | Some l -> Known { p with p_locks = SS.add l p.p_locks }
          | None -> fact (* unknown lock adds no must-information *))
      | Instr.Intrinsic (n, args) when n = release_name -> (
          match lock_operand defs args with
          | Some l -> Known { p with p_locks = SS.remove l p.p_locks }
          | None -> Known { p with p_locks = SS.empty })
      | Instr.Intrinsic (n, _) when n = syscall_invoke_name ->
          Known (apply_eff eff_clobber p)
      | Instr.Call (Value.Fn (n, _), _) -> Known (apply_eff (eff_of effs n) p)
      | Instr.Call (_, _) -> Known (apply_eff eff_clobber p)
      | _ -> fact)

let block_transfer ~defs ~effs (b : Func.block) fact =
  List.fold_left (fun fct i -> step ~defs ~effs fct i) fact b.Func.insns

(* ---------- findings ---------- *)

type finding = {
  lf_checker : string;
  lf_func : string;
  lf_instr : int option;
  lf_message : string;
}

let finding_compare a b =
  compare
    (a.lf_checker, a.lf_func, a.lf_instr, a.lf_message)
    (b.lf_checker, b.lf_func, b.lf_instr, b.lf_message)

let render_finding f =
  match f.lf_instr with
  | Some id -> Printf.sprintf "%s: %s: %%%d: %s" f.lf_checker f.lf_func id f.lf_message
  | None -> Printf.sprintf "%s: %s: %s" f.lf_checker f.lf_func f.lf_message

(* ---------- certificates ---------- *)

type fcert = {
  fc_func : string;
  fc_entry : prot;  (** claimed entry protection *)
  fc_blocks : (string * fact) list;  (** claimed fact at each block entry *)
}

type acert = {
  ac_func : string;
  ac_instr : int;  (** the access instruction *)
  ac_global : string;  (** root global of the address *)
  ac_prot : prot;  (** claimed protection at the access *)
}

type bundle = { cb_fcerts : fcert list; cb_acerts : acert list }

(* ---------- the analysis ---------- *)

type access = {
  ga_func : string;
  ga_instr : int;
  ga_global : string;
  ga_key : string;  (** grouping key: the accessed global's name *)
  ga_write : bool;
  ga_prot : prot;
  ga_irq : bool;  (** in code reachable from an interrupt handler *)
  ga_sys : bool;  (** in code reachable from a syscall handler *)
}

type result = {
  r_findings : finding list;
  r_bundle : bundle;
  r_entries : (string * prot) list;  (** root entry points and their prot *)
  r_shared : int;  (** shared memory classes (irq- and syscall-reachable) *)
  r_accesses : int;  (** classified direct global accesses in the universe *)
  r_lock_edges : (string * string) list;
  r_funcs : int;  (** functions analyzed *)
  r_iterations : int;  (** dataflow block visits *)
}

let findings r = r.r_findings
let bundle r = r.r_bundle
let entry_config r fn = List.assoc_opt fn r.r_entries
let shared_count r = r.r_shared
let access_count r = r.r_accesses
let cert_count r = List.length r.r_bundle.cb_acerts
let fact_count r =
  List.fold_left (fun n fc -> n + List.length fc.fc_blocks) 0 r.r_bundle.cb_fcerts
let lock_edges r = r.r_lock_edges
let funcs_analyzed r = r.r_funcs
let iterations r = r.r_iterations

let count_findings r checker =
  List.length (List.filter (fun f -> f.lf_checker = checker) r.r_findings)

let analyzed_funcs (m : Irmod.t) =
  List.filter
    (fun (f : Func.t) ->
      (not (Func.has_attr f Func.Noanalyze)) && f.Func.f_blocks <> [])
    m.Irmod.m_funcs

(* Handlers passed to the interrupt-registration operation, as in the
   lint layer's interrupt-context checker. *)
(* A function-valued operand, looking through casts: a declared
   registration prototype ([void *fn]) makes the frontend bitcast the
   handler before the call. *)
let rec fn_operand defs (v : Value.t) =
  match v with
  | Value.Fn (n, _) -> Some n
  | Value.Reg (id, _, _) -> (
      match Hashtbl.find_opt defs id with
      | Some (i : Instr.t) -> (
          match i.Instr.kind with
          | Instr.Cast (_, v', _) -> fn_operand defs v'
          | _ -> None)
      | None -> None)
  | _ -> None

let registered_handlers register_name (m : Irmod.t) =
  let handlers = ref SS.empty in
  List.iter
    (fun (f : Func.t) ->
      let defs = defs_of f in
      Func.iter_instrs f (fun _ i ->
          let args =
            match i.Instr.kind with
            | Instr.Call (Value.Fn (n, _), args) when n = register_name -> args
            | Instr.Intrinsic (n, args) when n = register_name -> args
            | _ -> []
          in
          List.iter
            (fun a ->
              match fn_operand defs a with
              | Some h -> handlers := SS.add h !handlers
              | None -> ())
            args))
    m.Irmod.m_funcs;
  SS.elements !handlers

let interrupt_handlers config m =
  registered_handlers config.ls_interrupt_register m

let run ?(config = default_config) (m : Irmod.t) (pa : Pointsto.result) =
  let cg = Callgraph.build m pa in
  let effs = effects m in
  let analyzed = analyzed_funcs m in
  let analyzed_names = List.map (fun (f : Func.t) -> f.Func.f_name) analyzed in
  let analyzed_set = SS.of_list analyzed_names in
  let find_analyzed n =
    if SS.mem n analyzed_set then Irmod.find_func m n else None
  in
  let defs_tbl = Hashtbl.create 64 in
  let defs_for (f : Func.t) =
    match Hashtbl.find_opt defs_tbl f.Func.f_name with
    | Some d -> d
    | None ->
        let d = defs_of f in
        Hashtbl.replace defs_tbl f.Func.f_name d;
        d
  in
  (* --- entry points and their protection --- *)
  let irq_roots =
    List.filter (fun n -> SS.mem n analyzed_set) (interrupt_handlers config m)
  in
  let sys_roots =
    List.sort_uniq compare
      (List.filter
         (fun n -> SS.mem n analyzed_set)
         (List.map snd (Pointsto.syscall_table pa)
         @ registered_handlers config.ls_syscall_register m
         @ config.ls_extra_roots))
  in
  let kernel_entries =
    List.filter_map
      (fun (f : Func.t) ->
        if Func.has_attr f Func.Kernel_entry then Some f.Func.f_name else None)
      analyzed
  in
  let irq_root_set = SS.of_list irq_roots in
  let root_prot n =
    let is_irq = SS.mem n irq_root_set in
    let is_sys = List.mem n sys_roots || List.mem n kernel_entries in
    if is_irq && not is_sys then Some { unprotected with p_masked = true }
    else if is_sys then Some unprotected
    else None
  in
  let entries =
    List.filter_map
      (fun n -> Option.map (fun p -> (n, p)) (root_prot n))
      analyzed_names
  in
  (* --- interprocedural entry-protection fixpoint --- *)
  let iterations = ref 0 in
  let call_targets fname (i : Instr.t) =
    match i.Instr.kind with
    | Instr.Call (Value.Fn (n, _), _) -> [ n ]
    | Instr.Call (_, _) -> Pointsto.callsite_targets pa ~fname i.Instr.id
    | _ -> []
  in
  let init fn =
    match root_prot fn with Some p -> Known p | None -> Unreached
  in
  let solve_one (f : Func.t) entry_prot =
    let sol =
      Solver.solve ~entry:(Known entry_prot)
        ~transfer:(block_transfer ~defs:(defs_for f) ~effs)
        f (Cfg.build f)
    in
    iterations := !iterations + sol.Solver.iterations;
    sol
  in
  let entry_facts =
    Dataflow.Summaries.solve cg ~funcs:analyzed_names ~init ~equal:fact_equal
      ~transfer:(fun ~get ~update fn ->
        match (find_analyzed fn, get fn) with
        | Some f, Known entry_prot ->
            let defs = defs_for f in
            let sol = solve_one f entry_prot in
            List.iter
              (fun (b : Func.block) ->
                ignore
                  (List.fold_left
                     (fun fct (i : Instr.t) ->
                       (match fct with
                       | Known _ ->
                           List.iter
                             (fun t ->
                               if SS.mem t analyzed_set then
                                 update t (fact_join (get t) fct))
                             (call_targets fn i)
                       | Unreached -> ());
                       step ~defs ~effs fct i)
                     (sol.Solver.input b.Func.label)
                     b.Func.insns))
              f.Func.f_blocks
        | _ -> ())
  in
  let entry_of fn =
    try Dataflow.Summaries.get entry_facts fn with Not_found -> Unreached
  in
  (* --- the reachable-side universe --- *)
  let irq_side = SS.of_list (Callgraph.reachable_from cg irq_roots) in
  let sys_side = SS.of_list (Callgraph.reachable_from cg sys_roots) in
  (* --- final per-function pass: accesses, edges, local findings --- *)
  let accesses = ref [] in
  let lock_sites = ref [] in
  (* (l1, l2, func): l2 acquired while l1 held *)
  let findings = ref [] in
  let add_finding ?instr checker func message =
    findings :=
      { lf_checker = checker; lf_func = func; lf_instr = instr; lf_message = message }
      :: !findings
  in
  let fcerts = ref [] in
  List.iter
    (fun (f : Func.t) ->
      let fn = f.Func.f_name in
      match entry_of fn with
      | Unreached -> ()
      | Known entry_prot ->
          let defs = defs_for f in
          let sol = solve_one f entry_prot in
          let in_irq = SS.mem fn irq_side and in_sys = SS.mem fn sys_side in
          let in_universe = in_irq || in_sys in
          List.iter
            (fun (b : Func.block) ->
              let record fct (i : Instr.t) =
                match fct with
                | Unreached -> ()
                | Known p -> (
                    (* classified direct global accesses *)
                    let addr_of =
                      match i.Instr.kind with
                      | Instr.Load a -> Some (a, false)
                      | Instr.Store (_, a) -> Some (a, true)
                      | _ -> None
                    in
                    (match addr_of with
                    | Some (a, write) when in_universe -> (
                        match root_global defs a with
                        | Some g ->
                            (* Grouping is by global name, not points-to
                               node: the unification analysis merges every
                               global that flows through a shared copy
                               routine into one node, which would smear
                               one table's lock discipline across
                               unrelated state.  The points-to result
                               still scopes the universe (which handlers
                               reach which functions). *)
                            let key = "name:" ^ g in
                            accesses :=
                              {
                                ga_func = fn;
                                ga_instr = i.Instr.id;
                                ga_global = g;
                                ga_key = key;
                                ga_write = write;
                                ga_prot = p;
                                ga_irq = in_irq;
                                ga_sys = in_sys;
                              }
                              :: !accesses
                        | None -> ())
                    | _ -> ());
                    (* lock-order edges *)
                    (match i.Instr.kind with
                    | Instr.Intrinsic (n, args) when n = acquire_name -> (
                        match lock_operand defs args with
                        | Some l2 ->
                            SS.iter
                              (fun l1 -> lock_sites := (l1, l2, fn) :: !lock_sites)
                              p.p_locks
                        | None -> ())
                    | _ -> ());
                    (* sleeping while atomic *)
                    match i.Instr.kind with
                    | Instr.Call (Value.Fn (n, _), _)
                      when List.mem n config.ls_sleeping
                           && (p.p_masked || not (SS.is_empty p.p_locks)) ->
                        add_finding ~instr:i.Instr.id "atomic-sleep" fn
                          (Printf.sprintf
                             "call to sleeping %s under %s" n
                             (prot_to_string p))
                    | _ -> ())
              in
              ignore
                (List.fold_left
                   (fun fct i ->
                     record fct i;
                     step ~defs ~effs fct i)
                   (sol.Solver.input b.Func.label)
                   b.Func.insns);
              (* return-path balance *)
              match b.Func.term with
              | Instr.Ret _ -> (
                  match sol.Solver.output b.Func.label with
                  | Unreached -> ()
                  | Known exit_p ->
                      if exit_p.p_masked <> entry_prot.p_masked then
                        add_finding "cli-imbalance" fn
                          (Printf.sprintf
                             "returns with interrupts %s (entered %s)"
                             (if exit_p.p_masked then "masked" else "unmasked")
                             (if entry_prot.p_masked then "masked"
                              else "unmasked"));
                      if not (SS.equal exit_p.p_locks entry_prot.p_locks) then
                        add_finding "lock-imbalance" fn
                          (Printf.sprintf "returns with lockset %s (entered %s)"
                             (prot_to_string { exit_p with p_masked = false })
                             (prot_to_string
                                { entry_prot with p_masked = false })))
              | _ -> ())
            f.Func.f_blocks;
          fcerts :=
            {
              fc_func = fn;
              fc_entry = entry_prot;
              fc_blocks =
                List.map
                  (fun (b : Func.block) ->
                    (b.Func.label, sol.Solver.input b.Func.label))
                  f.Func.f_blocks;
            }
            :: !fcerts)
    analyzed;
  let accesses = List.rev !accesses in
  (* --- shared-state classification and the race rules --- *)
  let groups : (string, access list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let cur = Option.value (Hashtbl.find_opt groups a.ga_key) ~default:[] in
      Hashtbl.replace groups a.ga_key (a :: cur))
    accesses;
  let acerts = ref [] in
  let cert_seen = Hashtbl.create 64 in
  let add_cert a =
    let k = (a.ga_func, a.ga_instr) in
    if not (Hashtbl.mem cert_seen k) then begin
      Hashtbl.replace cert_seen k ();
      acerts :=
        {
          ac_func = a.ga_func;
          ac_instr = a.ga_instr;
          ac_global = a.ga_global;
          ac_prot = a.ga_prot;
        }
        :: !acerts
    end
  in
  let shared = ref 0 in
  Hashtbl.iter
    (fun _key group ->
      let group = List.rev group in
      let irq_accs = List.filter (fun a -> a.ga_irq) group in
      let sys_accs = List.filter (fun a -> a.ga_sys) group in
      (* Rule A: interrupt-vs-syscall atomicity.  A pair containing a
         write is safe iff the syscall side masks interrupts or both
         sides hold a common lock. *)
      if irq_accs <> [] && sys_accs <> [] then begin
        incr shared;
        List.iter
          (fun sa ->
            let unsafe_against ia =
              (ia.ga_write || sa.ga_write)
              && (not sa.ga_prot.p_masked)
              && SS.is_empty (SS.inter sa.ga_prot.p_locks ia.ga_prot.p_locks)
            in
            match List.find_opt unsafe_against irq_accs with
            | Some ia ->
                add_finding ~instr:sa.ga_instr "race" sa.ga_func
                  (Printf.sprintf
                     "access to %s races interrupt-side access in %s \
                      (protection %s)"
                     sa.ga_global ia.ga_func
                     (prot_to_string sa.ga_prot))
            | None -> add_cert sa)
          sys_accs;
        List.iter (fun ia -> if not ia.ga_sys then add_cert ia) irq_accs
      end;
      (* Rule B: lock discipline.  Once any access to the class holds a
         lock, every write must hold a lock (or mask). *)
      if List.exists (fun a -> not (SS.is_empty a.ga_prot.p_locks)) group then
        List.iter
          (fun a ->
            if a.ga_write then
              if SS.is_empty a.ga_prot.p_locks && not a.ga_prot.p_masked then
                add_finding ~instr:a.ga_instr "race" a.ga_func
                  (Printf.sprintf
                     "write to lock-disciplined %s without holding a lock"
                     a.ga_global)
              else add_cert a)
          group)
    groups;
  (* --- lock-order graph and deadlock cycles --- *)
  let edges =
    List.sort_uniq compare
      (List.map (fun (l1, l2, _) -> (l1, l2)) !lock_sites)
  in
  let adj l =
    List.filter_map (fun (a, b) -> if a = l then Some b else None) edges
  in
  let reaches src dst =
    let seen = Hashtbl.create 8 in
    let rec go n =
      n = dst
      || (not (Hashtbl.mem seen n))
         && begin
              Hashtbl.replace seen n ();
              List.exists go (adj n)
            end
    in
    go src
  in
  List.iter
    (fun (l1, l2, fn) ->
      if reaches l2 l1 then
        add_finding "deadlock" fn
          (Printf.sprintf "lock-order cycle: holds %s while acquiring %s" l1 l2))
    (List.sort_uniq compare !lock_sites);
  {
    r_findings = List.sort_uniq finding_compare !findings;
    r_bundle =
      {
        cb_fcerts =
          List.sort (fun a b -> compare a.fc_func b.fc_func) !fcerts;
        cb_acerts =
          List.sort
            (fun a b ->
              compare (a.ac_func, a.ac_instr) (b.ac_func, b.ac_instr))
            !acerts;
      };
    r_entries = entries;
    r_shared = !shared;
    r_accesses = List.length accesses;
    r_lock_edges = edges;
    r_funcs = List.length !fcerts;
    r_iterations = !iterations;
  }

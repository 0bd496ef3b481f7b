(* The trusted atomicity-certificate checker — the Section 5 discipline
   applied to concurrency proofs.

   {!Sva_analysis.Lockset} is a complex interprocedural analysis and
   stays outside the TCB.  Everything it discharges arrives here as a
   certificate bundle: per-function claimed block-entry facts plus
   per-access protection claims.  This module re-verifies the bundle
   with purely local rules:

   - every claimed block fact must be an inductive invariant: replaying
     the block from its claim must justify each successor's claim;
   - every entry claim must be justified by each possible entry: the
     trusted root configuration, every direct call site (replayed from
     the *caller's* checked claims), a worst-case unprotected entry for
     address-taken functions, and a worst-case entry for calls from
     uncertified callers;
   - every access certificate must name a real load/store of the
     claimed global, and its protection claim must be justified by the
     replayed fact at that instruction.

   The checker re-derives control flow, call sites and address escapes
   itself and shares only the one-instruction transfer kernel and the
   call-effect summaries with the producer — the same split Rangecert
   uses for interval arithmetic.

   One axiom matches the execution model: a *root* (interrupt or
   syscall handler in the trusted entry configuration) can be entered
   indirectly only through the SVM dispatcher, which establishes
   exactly the configured protection — so being address-taken does not
   weaken a root's entry.  {!Svaos} masks interrupts around handler
   dispatch by construction. *)

open Sva_ir
module L = Sva_analysis.Lockset

(* Claim [b] is at least as weak as truth bound [a] in the must-lattice
   (join order: fewer guarantees = higher). *)
let fact_leq a b = L.fact_equal (L.fact_join a b) b

let check ?(entries = fun _ -> None) (m : Irmod.t) (b : L.bundle) =
  let errors = ref [] in
  let err ?(instr = -1) fn msg =
    errors := { Cert.func = fn; instr; msg } :: !errors
  in
  let effs = L.effects m in
  let defs_tbl = Hashtbl.create 64 in
  let defs_for (f : Func.t) =
    match Hashtbl.find_opt defs_tbl f.Func.f_name with
    | Some d -> d
    | None ->
        let d = L.defs_of f in
        Hashtbl.replace defs_tbl f.Func.f_name d;
        d
  in
  (* --- certificate well-formedness --- *)
  let claims : (string, (string, L.fact) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (fc : L.fcert) ->
      let fn = fc.L.fc_func in
      if Hashtbl.mem claims fn then err fn "duplicate function certificate"
      else
        match Irmod.find_func m fn with
        | None -> err fn "certificate for unknown function"
        | Some f when f.Func.f_blocks = [] ->
            err fn "certificate for bodyless function"
        | Some f ->
            let tbl = Hashtbl.create 16 in
            List.iter
              (fun (l, fact) ->
                if
                  not
                    (List.exists
                       (fun (blk : Func.block) -> blk.Func.label = l)
                       f.Func.f_blocks)
                then err fn ("claim for unknown block " ^ l)
                else if Hashtbl.mem tbl l then
                  err fn ("duplicate block claim " ^ l)
                else Hashtbl.replace tbl l fact)
              fc.L.fc_blocks;
            List.iter
              (fun (blk : Func.block) ->
                if not (Hashtbl.mem tbl blk.Func.label) then
                  err fn ("missing block claim " ^ blk.Func.label))
              f.Func.f_blocks;
            (* the entry certificate and the entry block's claim are the
               same statement; they must agree *)
            (match Hashtbl.find_opt tbl (Func.entry f).Func.label with
            | Some (L.Known p) when L.prot_equal p fc.L.fc_entry -> ()
            | Some _ ->
                err fn "entry block claim disagrees with entry certificate"
            | None -> ());
            Hashtbl.replace claims fn tbl)
    b.L.cb_fcerts;
  (* --- block-local inductiveness --- *)
  List.iter
    (fun (fc : L.fcert) ->
      match
        (Irmod.find_func m fc.L.fc_func, Hashtbl.find_opt claims fc.L.fc_func)
      with
      | Some f, Some tbl ->
          let defs = defs_for f in
          let cfg = Cfg.build f in
          List.iter
            (fun (blk : Func.block) ->
              match Hashtbl.find_opt tbl blk.Func.label with
              | None -> ()
              | Some fact ->
                  let out =
                    List.fold_left
                      (fun fct i -> L.step ~defs ~effs fct i)
                      fact blk.Func.insns
                  in
                  List.iter
                    (fun s ->
                      match Hashtbl.find_opt tbl s with
                      | Some claim_s when not (fact_leq out claim_s) ->
                          err fc.L.fc_func
                            (Printf.sprintf
                               "block %s out-fact does not justify claim at \
                                successor %s"
                               blk.Func.label s)
                      | _ -> ())
                    (Cfg.successors cfg blk.Func.label))
            f.Func.f_blocks
      | _ -> ())
    b.L.cb_fcerts;
  (* --- entry justification --- *)
  let address_taken = Hashtbl.create 32 in
  let note_fn = function
    | Value.Fn (n, _) -> Hashtbl.replace address_taken n ()
    | _ -> ()
  in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun _ (i : Instr.t) ->
          let ops =
            match i.Instr.kind with
            | Instr.Call (Value.Fn _, args) -> args (* direct callee exempt *)
            | k -> Instr.operands k
          in
          List.iter note_fn ops);
      List.iter
        (fun (blk : Func.block) ->
          List.iter note_fn (Instr.term_operands blk.Func.term))
        f.Func.f_blocks)
    m.Irmod.m_funcs;
  let contribs : (string, L.fact) Hashtbl.t = Hashtbl.create 64 in
  let add_contrib n fact =
    let cur = Option.value (Hashtbl.find_opt contribs n) ~default:L.Unreached in
    Hashtbl.replace contribs n (L.fact_join cur fact)
  in
  List.iter
    (fun (f : Func.t) ->
      if f.Func.f_blocks <> [] then
        match Hashtbl.find_opt claims f.Func.f_name with
        | Some tbl ->
            (* replay the caller's checked claims to each call site *)
            let defs = defs_for f in
            List.iter
              (fun (blk : Func.block) ->
                let fact0 =
                  Option.value
                    (Hashtbl.find_opt tbl blk.Func.label)
                    ~default:L.Unreached
                in
                ignore
                  (List.fold_left
                     (fun fct (i : Instr.t) ->
                       (match i.Instr.kind with
                       | Instr.Call (Value.Fn (n, _), _) -> add_contrib n fct
                       | _ -> ());
                       L.step ~defs ~effs fct i)
                     fact0 blk.Func.insns))
              f.Func.f_blocks
        | None ->
            (* uncertified caller: assume the worst at every call *)
            Func.iter_instrs f (fun _ (i : Instr.t) ->
                match i.Instr.kind with
                | Instr.Call (Value.Fn (n, _), _) ->
                    add_contrib n (L.Known L.unprotected)
                | _ -> ()))
    m.Irmod.m_funcs;
  List.iter
    (fun (fc : L.fcert) ->
      let fn = fc.L.fc_func in
      let root = entries fn in
      let truth =
        ref (match root with Some p -> L.Known p | None -> L.Unreached)
      in
      (match Hashtbl.find_opt contribs fn with
      | Some c -> truth := L.fact_join !truth c
      | None -> ());
      (match root with
      | None when Hashtbl.mem address_taken fn ->
          truth := L.fact_join !truth (L.Known L.unprotected)
      | _ -> ());
      if not (fact_leq !truth (L.Known fc.L.fc_entry)) then
        err fn
          (Printf.sprintf "entry claim %s not justified (possible entry %s)"
             (L.prot_to_string fc.L.fc_entry)
             (match !truth with
             | L.Unreached -> "unreachable"
             | L.Known p -> L.prot_to_string p)))
    b.L.cb_fcerts;
  (* --- access certificates --- *)
  List.iter
    (fun (ac : L.acert) ->
      let fail msg = err ~instr:ac.L.ac_instr ac.L.ac_func msg in
      match
        (Irmod.find_func m ac.L.ac_func, Hashtbl.find_opt claims ac.L.ac_func)
      with
      | None, _ -> fail "access certificate for unknown function"
      | _, None -> fail "access certificate without function certificate"
      | Some f, Some tbl -> (
          let defs = defs_for f in
          let site = ref None in
          List.iter
            (fun (blk : Func.block) ->
              if Option.is_none !site then
                let fact0 =
                  Option.value
                    (Hashtbl.find_opt tbl blk.Func.label)
                    ~default:L.Unreached
                in
                ignore
                  (List.fold_left
                     (fun fct (i : Instr.t) ->
                       if Option.is_none !site && i.Instr.id = ac.L.ac_instr
                       then site := Some (i, fct);
                       L.step ~defs ~effs fct i)
                     fact0 blk.Func.insns))
            f.Func.f_blocks;
          match !site with
          | None -> fail "no such instruction"
          | Some (i, fct) -> (
              let addr =
                match i.Instr.kind with
                | Instr.Load a -> Some a
                | Instr.Store (_, a) -> Some a
                | _ -> None
              in
              match addr with
              | None -> fail "certified instruction is not a memory access"
              | Some a -> (
                  (match L.root_global defs a with
                  | Some g when g = ac.L.ac_global -> ()
                  | _ -> fail "certificate global does not match the access");
                  match fct with
                  | L.Unreached ->
                      fail "access claimed in a block with no entry fact"
                  | L.Known p ->
                      if not (L.prot_leq ac.L.ac_prot p) then
                        fail
                          (Printf.sprintf
                             "claimed protection %s not justified by fact %s"
                             (L.prot_to_string ac.L.ac_prot)
                             (L.prot_to_string p))))))
    b.L.cb_acerts;
  List.rev !errors

(* ---------- certificate-bug injection ---------- *)

type bug =
  | Claim_mask
  | Claim_lock
  | Inflate_block
  | Inflate_entry
  | Wrong_instr
  | Wrong_global

let all_bugs =
  [ Claim_mask; Claim_lock; Inflate_block; Inflate_entry; Wrong_instr;
    Wrong_global ]

let bug_name = function
  | Claim_mask -> "claim-mask"
  | Claim_lock -> "claim-lock"
  | Inflate_block -> "inflate-block"
  | Inflate_entry -> "inflate-entry"
  | Wrong_instr -> "wrong-instr"
  | Wrong_global -> "wrong-global"

(* Bundles are immutable values; the rebuild keeps API parity with
   {!Rangecert.copy_bundle} and guards against the representation ever
   growing mutable fields. *)
let copy_bundle (b : L.bundle) =
  {
    L.cb_fcerts =
      List.map
        (fun (fc : L.fcert) -> { fc with L.fc_blocks = List.map Fun.id fc.L.fc_blocks })
        b.L.cb_fcerts;
    cb_acerts = List.map (fun (a : L.acert) -> { a with L.ac_instr = a.L.ac_instr }) b.L.cb_acerts;
  }

let nth_candidate l seed =
  match l with [] -> None | _ -> Some (List.nth l (seed mod List.length l))

let replace_acert (b : L.bundle) (old : L.acert) (fresh : L.acert) =
  {
    (copy_bundle b) with
    L.cb_acerts =
      List.map
        (fun (a : L.acert) -> if a == old || a = old then fresh else a)
        b.L.cb_acerts;
  }

let replace_fcert (b : L.bundle) fn (fresh : L.fcert) =
  {
    (copy_bundle b) with
    L.cb_fcerts =
      List.map
        (fun (fc : L.fcert) -> if fc.L.fc_func = fn then fresh else fc)
        b.L.cb_fcerts;
  }

(* Every lock name the bundle mentions — the pool for phantom claims. *)
let lock_pool (b : L.bundle) =
  let pool = ref L.SS.empty in
  List.iter
    (fun (a : L.acert) -> pool := L.SS.union !pool a.L.ac_prot.L.p_locks)
    b.L.cb_acerts;
  List.iter
    (fun (fc : L.fcert) ->
      pool := L.SS.union !pool fc.L.fc_entry.L.p_locks;
      List.iter
        (function
          | _, L.Known p -> pool := L.SS.union !pool p.L.p_locks
          | _, L.Unreached -> ())
        fc.L.fc_blocks)
    b.L.cb_fcerts;
  L.SS.elements !pool

let inject (m : Irmod.t) (b : L.bundle) bug ~seed =
  match bug with
  | Claim_mask ->
      nth_candidate
        (List.filter
           (fun (a : L.acert) -> not a.L.ac_prot.L.p_masked)
           b.L.cb_acerts)
        seed
      |> Option.map (fun (a : L.acert) ->
             ( replace_acert b a
                 { a with L.ac_prot = { a.L.ac_prot with L.p_masked = true } },
               Printf.sprintf "acert %s/%%%d claims interrupts masked"
                 a.L.ac_func a.L.ac_instr ))
  | Claim_lock ->
      let pool = lock_pool b in
      nth_candidate b.L.cb_acerts seed
      |> Option.map (fun (a : L.acert) ->
             let phantom =
               match
                 List.find_opt
                   (fun l -> not (L.SS.mem l a.L.ac_prot.L.p_locks))
                   pool
               with
               | Some l -> l
               | None -> "__phantom_lock"
             in
             ( replace_acert b a
                 {
                   a with
                   L.ac_prot =
                     {
                       a.L.ac_prot with
                       L.p_locks = L.SS.add phantom a.L.ac_prot.L.p_locks;
                     };
                 },
               Printf.sprintf "acert %s/%%%d claims phantom lock %s"
                 a.L.ac_func a.L.ac_instr phantom ))
  | Inflate_block ->
      let candidates =
        List.concat_map
          (fun (fc : L.fcert) ->
            let entry_label =
              match Irmod.find_func m fc.L.fc_func with
              | Some f -> (Func.entry f).Func.label
              | None -> ""
            in
            List.filter_map
              (function
                | l, L.Known p
                  when (not p.L.p_masked) && l <> entry_label ->
                    Some (fc, l)
                | _ -> None)
              fc.L.fc_blocks)
          b.L.cb_fcerts
      in
      nth_candidate candidates seed
      |> Option.map (fun ((fc : L.fcert), label) ->
             let blocks =
               List.map
                 (function
                   | l, L.Known p when l = label ->
                       (l, L.Known { p with L.p_masked = true })
                   | x -> x)
                 fc.L.fc_blocks
             in
             ( replace_fcert b fc.L.fc_func { fc with L.fc_blocks = blocks },
               Printf.sprintf "block claim %s/%s inflated to masked"
                 fc.L.fc_func label ))
  | Inflate_entry ->
      nth_candidate
        (List.filter
           (fun (fc : L.fcert) -> not fc.L.fc_entry.L.p_masked)
           b.L.cb_fcerts)
        seed
      |> Option.map (fun (fc : L.fcert) ->
             let entry_label =
               match Irmod.find_func m fc.L.fc_func with
               | Some f -> (Func.entry f).Func.label
               | None -> ""
             in
             let entry' = { fc.L.fc_entry with L.p_masked = true } in
             (* keep the duplicate entry statement consistent so the
                dataflow rule, not the well-formedness rule, must fire *)
             let blocks =
               List.map
                 (function
                   | l, _ when l = entry_label -> (l, L.Known entry')
                   | x -> x)
                 fc.L.fc_blocks
             in
             ( replace_fcert b fc.L.fc_func
                 { fc with L.fc_entry = entry'; L.fc_blocks = blocks },
               Printf.sprintf "entry claim of %s inflated to masked"
                 fc.L.fc_func ))
  | Wrong_instr ->
      let candidates =
        List.filter_map
          (fun (a : L.acert) ->
            match Irmod.find_func m a.L.ac_func with
            | None -> None
            | Some f ->
                let alt = ref None in
                Func.iter_instrs f (fun _ (i : Instr.t) ->
                    if Option.is_none !alt && i.Instr.id <> a.L.ac_instr then
                      let defs = L.defs_of f in
                      let same_shape =
                        match i.Instr.kind with
                        | Instr.Load addr | Instr.Store (_, addr) ->
                            L.root_global defs addr = Some a.L.ac_global
                        | _ -> false
                      in
                      (* a different access to the same global could be
                         legitimately certified; pick a site the checker
                         must reject *)
                      if not same_shape then alt := Some i.Instr.id);
                Option.map (fun id -> (a, id)) !alt)
          b.L.cb_acerts
      in
      nth_candidate candidates seed
      |> Option.map (fun ((a : L.acert), id) ->
             ( replace_acert b a { a with L.ac_instr = id },
               Printf.sprintf "acert %s/%%%d rewired to %%%d" a.L.ac_func
                 a.L.ac_instr id ))
  | Wrong_global ->
      let pool =
        List.sort_uniq compare
          (List.map (fun (a : L.acert) -> a.L.ac_global) b.L.cb_acerts)
      in
      nth_candidate b.L.cb_acerts seed
      |> Option.map (fun (a : L.acert) ->
             let g =
               match List.find_opt (fun g -> g <> a.L.ac_global) pool with
               | Some g -> g
               | None -> "__no_such_global"
             in
             ( replace_acert b a { a with L.ac_global = g },
               Printf.sprintf "acert %s/%%%d retargeted to global %s"
                 a.L.ac_func a.L.ac_instr g ))

let cert ~entries =
  {
    Cert.what = "atomicity certificate";
    check = check ~entries;
    bugs =
      List.map (fun bug -> (bug_name bug, fun m b -> inject m b bug)) all_bugs;
  }

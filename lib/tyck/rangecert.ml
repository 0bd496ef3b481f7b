(* Trusted checker for range certificates (see rangecert.mli).

   Everything here is deliberately first-order: the checker re-derives
   control flow, dominance, call sites and address escapes from the
   verified IR itself, resolves every premise index to a concrete fact
   about the expected register at a dominating block, and re-runs the
   pure interval kernel one step per fact.  No fixpoint, no widening,
   no interprocedural propagation — those stay in the untrusted
   producer. *)

open Sva_ir
module I = Sva_analysis.Interval

(* Per-function context, re-derived from the IR. *)
type fctx = {
  x_f : Func.t;
  x_cfg : Cfg.t;
  x_defs : (int, string * Instr.t) Hashtbl.t;
  x_nparams : int;
  x_blocks : (string, Func.block) Hashtbl.t;
}

let analyzed (f : Func.t) =
  (not (Func.has_attr f Func.Noanalyze)) && f.Func.f_blocks <> []

(* Functions whose address escapes: [Fn] values anywhere but the callee
   slot of a direct call, or in pointer global initializers.  Their
   parameters may receive values the module never shows. *)
let escape_set (m : Irmod.t) =
  let esc = Hashtbl.create 16 in
  let note = function
    | Value.Fn (g, _) -> Hashtbl.replace esc g ()
    | _ -> ()
  in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun _ i ->
          match i.Instr.kind with
          | Instr.Call (Value.Fn _, args) -> List.iter note args
          | k -> List.iter note (Instr.operands k));
      List.iter
        (fun (blk : Func.block) ->
          List.iter note (Instr.term_operands blk.Func.term))
        f.Func.f_blocks)
    m.Irmod.m_funcs;
  List.iter
    (fun (g : Irmod.global) ->
      match g.Irmod.g_init with
      | Irmod.Ptrs names -> List.iter (fun n -> Hashtbl.replace esc n ()) names
      | _ -> ())
    m.Irmod.m_globals;
  esc

let direct_callsites (m : Irmod.t) =
  let t : (string, (string * string * Instr.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun blk i ->
          match i.Instr.kind with
          | Instr.Call (Value.Fn (g, _), _) ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt t g) in
              Hashtbl.replace t g ((f.Func.f_name, blk.Func.label, i) :: prev)
          | _ -> ()))
    m.Irmod.m_funcs;
  t

let width_of x reg =
  if reg < x.x_nparams then
    match List.nth_opt x.x_f.Func.f_params reg with
    | Some (_, Ty.Int w) -> Some w
    | _ -> None
  else
    match Hashtbl.find_opt x.x_defs reg with
    | Some (_, i) -> ( match i.Instr.ty with Ty.Int w -> Some w | _ -> None)
    | None -> None

let check ?(entries = fun _ -> true) (m : Irmod.t) (b : I.bundle) =
  let errs = ref [] in
  let err fn id msg = errs := { Cert.func = fn; instr = id; msg } :: !errs in
  let esc = escape_set m in
  let eff fn =
    entries fn || Hashtbl.mem esc fn
    ||
    match Irmod.find_func m fn with
    | Some f ->
        Func.has_attr f Func.Kernel_entry || f.Func.f_varargs
        || not (analyzed f)
    | None -> true
  in
  let callsites = direct_callsites m in
  let fctxs = Hashtbl.create 16 in
  let fctx_of fn =
    match Hashtbl.find_opt fctxs fn with
    | Some c -> c
    | None ->
        let c =
          match Irmod.find_func m fn with
          | Some f when analyzed f ->
              let defs = Hashtbl.create 64 in
              Func.iter_instrs f (fun blk i ->
                  if Instr.result i <> None then
                    Hashtbl.replace defs i.Instr.id (blk.Func.label, i));
              let blocks = Hashtbl.create 16 in
              List.iter
                (fun (blk : Func.block) ->
                  Hashtbl.replace blocks blk.Func.label blk)
                f.Func.f_blocks;
              Some
                {
                  x_f = f;
                  x_cfg = Cfg.build f;
                  x_defs = defs;
                  x_nparams = List.length f.Func.f_params;
                  x_blocks = blocks;
                }
          | _ -> None
        in
        Hashtbl.replace fctxs fn c;
        c
  in
  let facts_of fn =
    Option.value ~default:[||] (Hashtbl.find_opt b.I.cb_facts fn)
  in
  (* Resolve one premise index: it must name a fact about [reg] whose
     validity block dominates [at].  A violation is an error; [top] is
     returned so the value recomputation proceeds (the bundle is already
     rejected). *)
  let premise fn x (arr : I.fact array) ~at ~reg dep =
    match dep with
    | None -> I.top
    | Some idx when idx >= 0 && idx < Array.length arr ->
        let d = arr.(idx) in
        if d.I.fa_reg <> reg then begin
          err fn reg
            (Printf.sprintf "premise %d is about r%d, not r%d" idx d.I.fa_reg
               reg);
          I.top
        end
        else if not (Cfg.dominates x.x_cfg d.I.fa_valid at) then begin
          err fn reg
            (Printf.sprintf "premise %d (valid at %s) does not dominate %s"
               idx d.I.fa_valid at);
          I.top
        end
        else d.I.fa_ival
    | Some idx ->
        err fn reg (Printf.sprintf "premise index %d out of range" idx);
        I.top
  in
  let check_fact fn x (arr : I.fact array) (fa : I.fact) =
    let reg = fa.I.fa_reg in
    (* A top claim asserts nothing; a claim at an unreachable (or
       unknown) block can never be consumed, because every consumer
       requires its validity block to dominate a reachable use. *)
    if I.is_top fa.I.fa_ival || not (Cfg.is_reachable x.x_cfg fa.I.fa_valid)
    then ()
    else
      let def_site =
        if reg >= 0 && reg < x.x_nparams then
          Some ((Func.entry x.x_f).Func.label, None)
        else
          match Hashtbl.find_opt x.x_defs reg with
          | Some (blk, i) -> Some (blk, Some i)
          | None -> None
      in
      match def_site with
      | None -> err fn reg "fact about an unknown register"
      | Some (dblk, di) ->
          if not (Cfg.dominates x.x_cfg dblk fa.I.fa_valid) then
            err fn reg
              (Printf.sprintf
                 "fact valid at %s, not dominated by the definition at %s"
                 fa.I.fa_valid dblk)
          else (
            match fa.I.fa_just with
            | I.Jwide -> (
                match width_of x reg with
                | Some w when I.subset (I.width_range w) fa.I.fa_ival -> ()
                | Some w ->
                    err fn reg
                      (Printf.sprintf
                         "width fact %s narrower than the canonical i%d range"
                         (I.ival_to_string fa.I.fa_ival) w)
                | None -> err fn reg "width fact about a non-integer register")
            | I.Jdef -> (
                match di with
                | None -> err fn reg "def fact about a parameter"
                | Some i ->
                    let ops = Instr.operands i.Instr.kind in
                    let deps =
                      if List.length fa.I.fa_deps = List.length ops then
                        fa.I.fa_deps
                      else List.map (fun _ -> None) ops
                    in
                    let ivs =
                      List.map2
                        (fun (v : Value.t) dep ->
                          match v with
                          | Value.Imm (Ty.Int _, n) -> I.const n
                          | Value.Reg (id, Ty.Int _, _) ->
                              premise fn x arr ~at:dblk ~reg:id dep
                          | _ -> I.top)
                        ops deps
                    in
                    let derived = I.eval_def i ivs in
                    if not (I.subset derived fa.I.fa_ival) then
                      err fn reg
                        (Printf.sprintf
                           "def fact %s does not contain recomputed %s"
                           (I.ival_to_string fa.I.fa_ival)
                           (I.ival_to_string derived)))
            | I.Jphi -> (
                match di with
                | Some { Instr.kind = Instr.Phi incoming; _ } ->
                    if List.length incoming <> List.length fa.I.fa_deps then
                      err fn reg "phi fact premise arity mismatch"
                    else
                      List.iter2
                        (fun (pred, (v : Value.t)) dep ->
                          (* an edge from an unreachable block never
                             executes: vacuous *)
                          if Cfg.is_reachable x.x_cfg pred then
                            match v with
                            | Value.Imm (Ty.Int _, n) ->
                                if not (I.contains fa.I.fa_ival n) then
                                  err fn reg
                                    (Printf.sprintf
                                       "phi fact %s excludes incoming %Ld"
                                       (I.ival_to_string fa.I.fa_ival) n)
                            | Value.Reg (id, Ty.Int _, _) ->
                                let iv = premise fn x arr ~at:pred ~reg:id dep in
                                if not (I.subset iv fa.I.fa_ival) then
                                  err fn reg
                                    (Printf.sprintf
                                       "phi fact %s does not contain incoming \
                                        %s from %s"
                                       (I.ival_to_string fa.I.fa_ival)
                                       (I.ival_to_string iv) pred)
                            | _ ->
                                err fn reg "phi fact over a non-integer incoming")
                        incoming fa.I.fa_deps
                | _ -> err fn reg "phi fact about a non-phi register")
            | I.Jguard { jg_src = src; jg_dst = dst } -> (
                match Hashtbl.find_opt x.x_blocks src with
                | None ->
                    err fn reg
                      (Printf.sprintf "guard fact cites unknown block %s" src)
                | Some sb ->
                    if not (Cfg.dominates x.x_cfg dst fa.I.fa_valid) then
                      err fn reg
                        (Printf.sprintf
                           "guard fact valid at %s, outside the region %s \
                            dominates"
                           fa.I.fa_valid dst)
                    else if Cfg.predecessors x.x_cfg dst <> [ src ] then
                      err fn reg
                        (Printf.sprintf
                           "edge %s->%s is not the unique way into %s" src dst
                           dst)
                    else (
                      match sb.Func.term with
                      | Instr.Br (cond, tl, el) when tl <> el && (dst = tl || dst = el)
                        -> (
                          let lookup id =
                            Option.map snd (Hashtbl.find_opt x.x_defs id)
                          in
                          match I.branch_cond ~lookup cond ~pos:(dst = tl) with
                          | None ->
                              err fn reg
                                "guard condition does not resolve to a \
                                 comparison"
                          | Some (op, a, bb) -> (
                              let base_dep, other_dep =
                                match fa.I.fa_deps with
                                | [ d0; d1 ] -> (d0, d1)
                                | _ -> (None, None)
                              in
                              let base = premise fn x arr ~at:dst ~reg base_dep in
                              let constrain subj side =
                                match subj with
                                | Value.Reg (id, Ty.Int _, _) when id = reg ->
                                    let other = if side = `Left then bb else a in
                                    let oiv =
                                      match other with
                                      | Value.Imm (Ty.Int _, n) -> I.const n
                                      | Value.Reg (oid, Ty.Int _, _) ->
                                          premise fn x arr ~at:src ~reg:oid
                                            other_dep
                                      | _ -> I.top
                                    in
                                    Some (I.refine op side oiv)
                                | _ -> None
                              in
                              match (constrain a `Left, constrain bb `Right) with
                              | Some c, _ | None, Some c ->
                                  let got = I.meet_ival base c in
                                  if not (I.subset got fa.I.fa_ival) then
                                    err fn reg
                                      (Printf.sprintf
                                         "guard fact %s does not contain \
                                          recomputed %s"
                                         (I.ival_to_string fa.I.fa_ival)
                                         (I.ival_to_string got))
                              | None, None ->
                                  err fn reg
                                    (Printf.sprintf
                                       "guarded comparison does not test r%d"
                                       reg)))
                      | _ ->
                          err fn reg
                            (Printf.sprintf
                               "%s does not end in a two-way branch to %s" src
                               dst)))
            | I.Jparam k ->
                if reg <> k || k >= x.x_nparams then
                  err fn reg "parameter fact register mismatch"
                else (
                  match Hashtbl.find_opt b.I.cb_params (fn, k) with
                  | Some claim when I.subset claim fa.I.fa_ival -> ()
                  | Some _ ->
                      err fn reg
                        "parameter fact narrower than the registered claim"
                  | None -> err fn reg "parameter fact without a registered claim")
            | I.Jret g -> (
                match di with
                | Some { Instr.kind = Instr.Call (Value.Fn (g', _), _); _ }
                  when g' = g -> (
                    match Hashtbl.find_opt b.I.cb_rets g with
                    | Some claim when I.subset claim fa.I.fa_ival -> ()
                    | Some _ ->
                        err fn reg
                          "return fact narrower than the registered claim"
                    | None -> err fn reg "return fact without a registered claim")
                | _ ->
                    err fn reg
                      (Printf.sprintf "return fact not on a direct call to @%s" g)))
  in
  (* -- every fact -- *)
  Hashtbl.iter
    (fun fn (arr : I.fact array) ->
      match fctx_of fn with
      | None -> err fn (-1) "facts about an unanalyzed function"
      | Some x -> Array.iter (check_fact fn x arr) arr)
    b.I.cb_facts;
  (* -- module-level parameter claims -- *)
  Hashtbl.iter
    (fun (fn, k) claim ->
      if I.is_top claim then ()
      else if eff fn then
        err fn (-1)
          (Printf.sprintf "parameter %d claim on an externally callable \
                           function" k)
      else
        match fctx_of fn with
        | None -> err fn (-1) "parameter claim on an unanalyzed function"
        | Some _ -> (
            match Option.value ~default:[] (Hashtbl.find_opt callsites fn) with
            | [] -> err fn (-1) "parameter claim without any call site"
            | sites ->
                List.iter
                  (fun (caller, cblock, (ci : Instr.t)) ->
                    let justified =
                      match (fctx_of caller, ci.Instr.kind) with
                      | Some cx, Instr.Call (_, args) -> (
                          match List.nth_opt args k with
                          | Some (Value.Imm (Ty.Int _, n)) -> I.contains claim n
                          | Some (Value.Reg (id, Ty.Int _, _)) ->
                              Array.exists
                                (fun (d : I.fact) ->
                                  d.I.fa_reg = id
                                  && (not (I.is_top d.I.fa_ival))
                                  && I.subset d.I.fa_ival claim
                                  && Cfg.dominates cx.x_cfg d.I.fa_valid cblock)
                                (facts_of caller)
                          | _ -> false)
                      | _ -> false
                    in
                    if not justified then
                      err fn (-1)
                        (Printf.sprintf
                           "parameter %d claim %s unjustified at the call \
                            from @%s/%s"
                           k (I.ival_to_string claim) caller cblock))
                  sites))
    b.I.cb_params;
  (* -- module-level return claims -- *)
  Hashtbl.iter
    (fun g claim ->
      if I.is_top claim then ()
      else
        match fctx_of g with
        | None -> err g (-1) "return claim on an unanalyzed function"
        | Some x ->
            List.iter
              (fun (blk : Func.block) ->
                if Cfg.is_reachable x.x_cfg blk.Func.label then
                  match blk.Func.term with
                  | Instr.Ret (Some (Value.Imm (Ty.Int _, n))) ->
                      if not (I.contains claim n) then
                        err g (-1)
                          (Printf.sprintf "return claim %s excludes returned %Ld"
                             (I.ival_to_string claim) n)
                  | Instr.Ret (Some (Value.Reg (id, Ty.Int _, _))) ->
                      if
                        not
                          (Array.exists
                             (fun (d : I.fact) ->
                               d.I.fa_reg = id
                               && (not (I.is_top d.I.fa_ival))
                               && I.subset d.I.fa_ival claim
                               && Cfg.dominates x.x_cfg d.I.fa_valid
                                    blk.Func.label)
                             (facts_of g))
                      then
                        err g (-1)
                          (Printf.sprintf "return claim %s unjustified at %s"
                             (I.ival_to_string claim) blk.Func.label)
                  | Instr.Ret (Some _) ->
                      err g (-1) "return claim over a non-integer return"
                  | _ -> ())
              x.x_f.Func.f_blocks)
    b.I.cb_rets;
  (* -- certificates -- *)
  List.iter
    (fun (c : I.cert) ->
      let fn = c.I.ce_func in
      match fctx_of fn with
      | None -> err fn c.I.ce_gep "certificate for an unanalyzed function"
      | Some x -> (
          let arr = facts_of fn in
          match Hashtbl.find_opt x.x_defs c.I.ce_gep with
          | Some (blk, gi) when blk = c.I.ce_block -> (
              match I.gep_extents m.Irmod.m_ctx gi with
              | None -> err fn c.I.ce_gep "certified gep is not of a provable shape"
              | Some vars ->
                  if List.length vars <> List.length c.I.ce_idx then
                    err fn c.I.ce_gep
                      (Printf.sprintf "certificate covers %d of %d variable \
                                       indexes"
                         (List.length c.I.ce_idx) (List.length vars))
                  else
                    List.iter2
                      (fun (pos, id, n) (pos', fidx) ->
                        if pos <> pos' then
                          err fn c.I.ce_gep "certificate index position mismatch"
                        else if fidx < 0 || fidx >= Array.length arr then
                          err fn c.I.ce_gep
                            (Printf.sprintf "index fact %d out of range" fidx)
                        else
                          let d = arr.(fidx) in
                          let want = I.range 0L (Int64.of_int (n - 1)) in
                          if d.I.fa_reg <> id then
                            err fn c.I.ce_gep
                              (Printf.sprintf
                                 "index fact is about r%d, not index r%d"
                                 d.I.fa_reg id)
                          else if not (I.subset d.I.fa_ival want) then
                            err fn c.I.ce_gep
                              (Printf.sprintf
                                 "index fact %s not within the extent %s"
                                 (I.ival_to_string d.I.fa_ival)
                                 (I.ival_to_string want))
                          else if
                            not (Cfg.dominates x.x_cfg d.I.fa_valid c.I.ce_block)
                          then
                            err fn c.I.ce_gep
                              (Printf.sprintf
                                 "index fact (valid at %s) does not dominate \
                                  the access at %s"
                                 d.I.fa_valid c.I.ce_block))
                      vars c.I.ce_idx)
          | Some (blk, _) ->
              err fn c.I.ce_gep
                (Printf.sprintf
                   "certificate block %s does not match the gep's block %s"
                   c.I.ce_block blk)
          | None -> err fn c.I.ce_gep "certificate for an unknown instruction"))
    b.I.cb_certs;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Certificate-bug injection (the Section 5 experiment for ranges).    *)
(* ------------------------------------------------------------------ *)

type bug =
  | Shrink_fact
  | Wrong_reg
  | Wrong_edge
  | Drop_dep
  | Tighten_param
  | Tighten_ret

let bug_name = function
  | Shrink_fact -> "fact interval shrunk below its derivation"
  | Wrong_reg -> "premise rewired to another register's fact"
  | Wrong_edge -> "guard fact rewired to a different edge"
  | Drop_dep -> "load-bearing premise dropped"
  | Tighten_param -> "parameter claim excludes a passed argument"
  | Tighten_ret -> "return claim excludes a returned value"

let all_bugs =
  [ Shrink_fact; Wrong_reg; Wrong_edge; Drop_dep; Tighten_param; Tighten_ret ]

let copy_bundle (b : I.bundle) : I.bundle =
  let facts = Hashtbl.create (max 1 (Hashtbl.length b.I.cb_facts)) in
  Hashtbl.iter
    (fun fn arr ->
      Hashtbl.replace facts fn
        (Array.map (fun (fa : I.fact) -> { fa with I.fa_reg = fa.I.fa_reg }) arr))
    b.I.cb_facts;
  {
    I.cb_facts = facts;
    cb_params = Hashtbl.copy b.I.cb_params;
    cb_rets = Hashtbl.copy b.I.cb_rets;
    cb_certs = b.I.cb_certs;
  }

(* Strictly smaller non-top claim (possibly empty): cuts off one end, so
   the exact derivation no longer fits. *)
let shrink = function
  | I.Iv (Some l, _) as iv when l < Int64.max_int ->
      Some (I.meet_ival iv (I.Iv (Some (Int64.add l 1L), None)))
  | I.Iv (_, Some h) as iv when h > Int64.min_int ->
      Some (I.meet_ival iv (I.Iv (None, Some (Int64.sub h 1L))))
  | _ -> None

(* Exclude the concrete value [n] from a claim that contains it. *)
let exclude n claim =
  if n < Int64.max_int then
    I.meet_ival claim (I.Iv (Some (Int64.add n 1L), None))
  else I.meet_ival claim (I.Iv (None, Some (Int64.sub n 1L)))

let sorted_fact_funcs (b : I.bundle) =
  List.sort compare (Hashtbl.fold (fun fn _ acc -> fn :: acc) b.I.cb_facts [])

(* Facts whose interval is exactly their (re-checkable) derivation, so
   any strict shrink is caught by the fact's own rule.  [Jphi] claims
   may be slack joins and are excluded. *)
let shrink_sites (b : I.bundle) =
  List.concat_map
    (fun fn ->
      let arr = Hashtbl.find b.I.cb_facts fn in
      let acc = ref [] in
      Array.iteri
        (fun k (fa : I.fact) ->
          if not (I.is_top fa.I.fa_ival) then
            match fa.I.fa_just with
            | I.Jphi -> ()
            | _ -> ( match shrink fa.I.fa_ival with
                     | Some sh -> acc := (fn, k, sh) :: !acc
                     | None -> ()))
        arr;
      List.rev !acc)
    (sorted_fact_funcs b)

(* Def facts with a premise on a register operand, in a function that
   also has a fact about a different register to rewire to. *)
let wrong_reg_sites (m : Irmod.t) (b : I.bundle) =
  List.concat_map
    (fun fn ->
      let arr = Hashtbl.find b.I.cb_facts fn in
      match Irmod.find_func m fn with
      | None -> []
      | Some f ->
          let defs = Hashtbl.create 64 in
          Func.iter_instrs f (fun _ i ->
              if Instr.result i <> None then Hashtbl.replace defs i.Instr.id i);
          let acc = ref [] in
          Array.iteri
            (fun k (fa : I.fact) ->
              if (not (I.is_top fa.I.fa_ival)) && fa.I.fa_just = I.Jdef then
                match Hashtbl.find_opt defs fa.I.fa_reg with
                | None -> ()
                | Some i ->
                    let ops = Instr.operands i.Instr.kind in
                    if List.length ops = List.length fa.I.fa_deps then
                      List.iteri
                        (fun p (v : Value.t) ->
                          match (v, List.nth fa.I.fa_deps p) with
                          | Value.Reg (id, Ty.Int _, _), Some _ -> (
                              (* first fact about a different register *)
                              let j = ref (-1) in
                              Array.iteri
                                (fun jj (d : I.fact) ->
                                  if !j < 0 && d.I.fa_reg <> id then j := jj)
                                arr;
                              if !j >= 0 then acc := (fn, k, p, !j) :: !acc)
                          | _ -> ())
                        ops)
            arr;
          List.rev !acc)
    (sorted_fact_funcs b)

let wrong_edge_sites (b : I.bundle) =
  List.concat_map
    (fun fn ->
      let arr = Hashtbl.find b.I.cb_facts fn in
      let acc = ref [] in
      Array.iteri
        (fun k (fa : I.fact) ->
          match fa.I.fa_just with
          | I.Jguard { jg_src; jg_dst }
            when (not (I.is_top fa.I.fa_ival)) && jg_src <> jg_dst ->
              acc := (fn, k, jg_src, jg_dst) :: !acc
          | _ -> ())
        arr;
      List.rev !acc)
    (sorted_fact_funcs b)

(* Premises whose removal provably breaks the fact's own rule: any phi
   premise (top never fits a non-top inductive claim), and def premises
   whose recomputation with [top] escapes the claimed interval. *)
let drop_dep_sites (m : Irmod.t) (b : I.bundle) =
  List.concat_map
    (fun fn ->
      let arr = Hashtbl.find b.I.cb_facts fn in
      match Irmod.find_func m fn with
      | None -> []
      | Some f ->
          let defs = Hashtbl.create 64 in
          Func.iter_instrs f (fun _ i ->
              if Instr.result i <> None then Hashtbl.replace defs i.Instr.id i);
          let acc = ref [] in
          Array.iteri
            (fun k (fa : I.fact) ->
              if not (I.is_top fa.I.fa_ival) then
                match fa.I.fa_just with
                | I.Jphi ->
                    List.iteri
                      (fun p dep ->
                        if dep <> None then acc := (fn, k, p) :: !acc)
                      fa.I.fa_deps
                | I.Jdef -> (
                    match Hashtbl.find_opt defs fa.I.fa_reg with
                    | None -> ()
                    | Some i ->
                        let ops = Instr.operands i.Instr.kind in
                        if List.length ops = List.length fa.I.fa_deps then
                          List.iteri
                            (fun p dep ->
                              if dep <> None then begin
                                let ivs =
                                  List.mapi
                                    (fun q (v : Value.t) ->
                                      if q = p then I.top
                                      else
                                        match (v, List.nth fa.I.fa_deps q) with
                                        | Value.Imm (Ty.Int _, n), _ ->
                                            I.const n
                                        | _, Some d
                                          when d >= 0 && d < Array.length arr
                                          ->
                                            arr.(d).I.fa_ival
                                        | _ -> I.top)
                                    ops
                                in
                                if
                                  not
                                    (I.subset (I.eval_def i ivs) fa.I.fa_ival)
                                then acc := (fn, k, p) :: !acc
                              end)
                            fa.I.fa_deps)
                | _ -> ())
            arr;
          List.rev !acc)
    (sorted_fact_funcs b)

let tighten_param_sites (m : Irmod.t) (b : I.bundle) =
  let callsites = direct_callsites m in
  let keys =
    List.sort compare (Hashtbl.fold (fun kc _ acc -> kc :: acc) b.I.cb_params [])
  in
  List.concat_map
    (fun (fn, k) ->
      let claim = Hashtbl.find b.I.cb_params (fn, k) in
      if I.is_top claim then []
      else
        List.filter_map
          (fun (_, _, (ci : Instr.t)) ->
            match ci.Instr.kind with
            | Instr.Call (_, args) -> (
                match List.nth_opt args k with
                | Some (Value.Imm (Ty.Int _, n)) when I.contains claim n ->
                    Some (fn, k, n)
                | _ -> None)
            | _ -> None)
          (Option.value ~default:[] (Hashtbl.find_opt callsites fn)))
    keys

let tighten_ret_sites (m : Irmod.t) (b : I.bundle) =
  let keys =
    List.sort compare (Hashtbl.fold (fun g _ acc -> g :: acc) b.I.cb_rets [])
  in
  List.concat_map
    (fun g ->
      let claim = Hashtbl.find b.I.cb_rets g in
      if I.is_top claim then []
      else
        match Irmod.find_func m g with
        | Some f when analyzed f ->
            let cfg = Cfg.build f in
            List.filter_map
              (fun (blk : Func.block) ->
                if Cfg.is_reachable cfg blk.Func.label then
                  match blk.Func.term with
                  | Instr.Ret (Some (Value.Imm (Ty.Int _, n)))
                    when I.contains claim n ->
                      Some (g, n)
                  | _ -> None
                else None)
              f.Func.f_blocks
        | _ -> [])
    keys

let inject (m : Irmod.t) (b : I.bundle) bug ~seed =
  let nth = List.nth_opt in
  match bug with
  | Shrink_fact -> (
      match nth (shrink_sites b) seed with
      | Some (fn, k, sh) ->
          let b' = copy_bundle b in
          let fa = (Hashtbl.find b'.I.cb_facts fn).(k) in
          let old = fa.I.fa_ival in
          fa.I.fa_ival <- sh;
          Some
            ( b',
              Printf.sprintf "@%s: fact %d on r%d shrunk from %s to %s" fn k
                fa.I.fa_reg (I.ival_to_string old) (I.ival_to_string sh) )
      | None -> None)
  | Wrong_reg -> (
      match nth (wrong_reg_sites m b) seed with
      | Some (fn, k, p, j) ->
          let b' = copy_bundle b in
          let fa = (Hashtbl.find b'.I.cb_facts fn).(k) in
          fa.I.fa_deps <-
            List.mapi (fun q d -> if q = p then Some j else d) fa.I.fa_deps;
          Some
            ( b',
              Printf.sprintf
                "@%s: fact %d premise %d rewired to fact %d (about r%d)" fn k p
                j (Hashtbl.find b'.I.cb_facts fn).(j).I.fa_reg )
      | None -> None)
  | Wrong_edge -> (
      match nth (wrong_edge_sites b) seed with
      | Some (fn, k, src, dst) ->
          let b' = copy_bundle b in
          let arr = Hashtbl.find b'.I.cb_facts fn in
          (* swapping the edge cannot stay consistent: the rewired guard
             would need the old source's unique predecessor to be the old
             destination, i.e. mutual domination of distinct blocks *)
          arr.(k) <-
            { (arr.(k)) with
              I.fa_just = I.Jguard { jg_src = dst; jg_dst = src } };
          Some
            ( b',
              Printf.sprintf "@%s: fact %d guard edge %s->%s reversed" fn k src
                dst )
      | None -> None)
  | Drop_dep -> (
      match nth (drop_dep_sites m b) seed with
      | Some (fn, k, p) ->
          let b' = copy_bundle b in
          let fa = (Hashtbl.find b'.I.cb_facts fn).(k) in
          fa.I.fa_deps <-
            List.mapi (fun q d -> if q = p then None else d) fa.I.fa_deps;
          Some
            ( b',
              Printf.sprintf "@%s: fact %d on r%d lost premise %d" fn k
                fa.I.fa_reg p )
      | None -> None)
  | Tighten_param -> (
      match nth (tighten_param_sites m b) seed with
      | Some (fn, k, n) ->
          let b' = copy_bundle b in
          let old = Hashtbl.find b'.I.cb_params (fn, k) in
          Hashtbl.replace b'.I.cb_params (fn, k) (exclude n old);
          Some
            ( b',
              Printf.sprintf
                "@%s: parameter %d claim tightened from %s to exclude passed %Ld"
                fn k (I.ival_to_string old) n )
      | None -> None)
  | Tighten_ret -> (
      match nth (tighten_ret_sites m b) seed with
      | Some (g, n) ->
          let b' = copy_bundle b in
          let old = Hashtbl.find b'.I.cb_rets g in
          Hashtbl.replace b'.I.cb_rets g (exclude n old);
          Some
            ( b',
              Printf.sprintf
                "@%s: return claim tightened from %s to exclude returned %Ld" g
                (I.ival_to_string old) n )
      | None -> None)

let cert ~entries =
  {
    Cert.what = "range certificate";
    check = check ~entries;
    bugs =
      List.map (fun bug -> (bug_name bug, fun m b -> inject m b bug)) all_bugs;
  }

open Sva_ir

type kind = Wrong_var_mp | Wrong_edge | False_th | Split_mp

let kind_name = function
  | Wrong_var_mp -> "incorrect variable aliasing"
  | Wrong_edge -> "incorrect inter-node edge"
  | False_th -> "incorrect type-homogeneity claim"
  | Split_mp -> "insufficient node merging"

let all_kinds = [ Wrong_var_mp; Wrong_edge; False_th; Split_mp ]

(* Deep copy: injection never mutates the original annotations. *)
let copy_annot (an : Tyck.annot) : Tyck.annot =
  {
    Tyck.an_value_mp = Hashtbl.copy an.Tyck.an_value_mp;
    an_global_mp = Hashtbl.copy an.Tyck.an_global_mp;
    an_fn_mp = Hashtbl.copy an.Tyck.an_fn_mp;
    an_ret_mp = Hashtbl.copy an.Tyck.an_ret_mp;
    an_succ = Hashtbl.copy an.Tyck.an_succ;
    an_th = Hashtbl.copy an.Tyck.an_th;
  }

(* The largest metapool id the annotations name anywhere, so that an
   injected bogus pool is never a real one. *)
let max_mp (an : Tyck.annot) =
  let m = ref 0 in
  let see _ v = m := max !m v in
  Hashtbl.iter see an.Tyck.an_value_mp;
  Hashtbl.iter see an.Tyck.an_global_mp;
  Hashtbl.iter see an.Tyck.an_fn_mp;
  Hashtbl.iter see an.Tyck.an_ret_mp;
  Hashtbl.iter (fun v s -> m := max !m (max v s)) an.Tyck.an_succ;
  Hashtbl.iter (fun v _ -> m := max !m v) an.Tyck.an_th;
  !m

(* Sites where a value's metapool qualifier is actually constrained by a
   local rule: gep bases (their result must match).  Deterministic order. *)
let gep_sites (m : Irmod.t) (an : Tyck.annot) =
  List.concat_map
    (fun (f : Func.t) ->
      if Func.has_attr f Func.Noanalyze then []
      else
        Func.fold_instrs f
          (fun acc _ (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Gep (Value.Reg (bid, _, _), _)
              when Hashtbl.mem an.Tyck.an_value_mp (f.Func.f_name, bid)
                   && Hashtbl.mem an.Tyck.an_value_mp (f.Func.f_name, i.Instr.id)
              ->
                (f.Func.f_name, bid, i.Instr.id) :: acc
            | _ -> acc)
          []
        |> List.rev)
    m.Irmod.m_funcs

(* Loads of pointers: both the pointer and the result are annotated, so the
   succ edge is checked. *)
let load_sites (m : Irmod.t) (an : Tyck.annot) =
  List.concat_map
    (fun (f : Func.t) ->
      if Func.has_attr f Func.Noanalyze then []
      else
        Func.fold_instrs f
          (fun acc _ (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Load (Value.Reg (pid, _, _))
              when Hashtbl.mem an.Tyck.an_value_mp (f.Func.f_name, pid)
                   && Hashtbl.mem an.Tyck.an_value_mp (f.Func.f_name, i.Instr.id)
              ->
                (f.Func.f_name, pid, i.Instr.id) :: acc
            | _ -> acc)
          []
        |> List.rev)
    m.Irmod.m_funcs

(* Loads/stores through a whole-object (non-interior) pointer: a false TH
   claim on the pointer's pool is checkable there. *)
let access_sites (m : Irmod.t) (an : Tyck.annot) =
  List.concat_map
    (fun (f : Func.t) ->
      if Func.has_attr f Func.Noanalyze then []
      else begin
        let interior = Hashtbl.create 16 in
        Func.fold_instrs f
          (fun acc _ (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Gep (base, idxs) ->
                let base_interior =
                  match base with
                  | Value.Reg (id, _, _) -> Hashtbl.mem interior id
                  | _ -> false
                in
                if
                  Sva_analysis.Pointsto.gep_enters_struct m.Irmod.m_ctx
                    (Value.ty base) idxs
                  || base_interior
                then Hashtbl.replace interior i.Instr.id ();
                (* A gep through a whole-object pointer also constrains the
                   pool's homogeneous type (the checker's th_access rule). *)
                (match base with
                | Value.Reg (bid, bty, _)
                  when (not base_interior)
                       && Hashtbl.mem an.Tyck.an_value_mp (f.Func.f_name, bid) ->
                    (f.Func.f_name, bid, Ty.pointee bty) :: acc
                | _ -> acc)
            | Instr.Load (Value.Reg (pid, pty, _))
              when (not (Hashtbl.mem interior pid))
                   && Hashtbl.mem an.Tyck.an_value_mp (f.Func.f_name, pid) ->
                (f.Func.f_name, pid, Ty.pointee pty) :: acc
            | Instr.Store (_, Value.Reg (pid, pty, _))
              when (not (Hashtbl.mem interior pid))
                   && Hashtbl.mem an.Tyck.an_value_mp (f.Func.f_name, pid) ->
                (f.Func.f_name, pid, Ty.pointee pty) :: acc
            | _ -> acc)
          []
        |> List.rev
      end)
    m.Irmod.m_funcs

let nth_opt l n = List.nth_opt l n

let inject (m : Irmod.t) (an : Tyck.annot) kind ~seed =
  let an' = copy_annot an in
  let fresh = max_mp an + 1 + seed in
  match kind with
  | Wrong_var_mp -> (
      match nth_opt (gep_sites m an) seed with
      | Some (fname, _base, res) ->
          let old = Hashtbl.find an'.Tyck.an_value_mp (fname, res) in
          Hashtbl.replace an'.Tyck.an_value_mp (fname, res) (old + 1 + fresh);
          Some
            ( an',
              Printf.sprintf
                "@%s: register r%d moved from M%d to bogus pool" fname res old )
      | None -> None)
  | Wrong_edge -> (
      match nth_opt (load_sites m an) seed with
      | Some (fname, pid, _res) ->
          let pm = Hashtbl.find an'.Tyck.an_value_mp (fname, pid) in
          Hashtbl.replace an'.Tyck.an_succ pm fresh;
          Some
            ( an',
              Printf.sprintf "@%s: M%d's points-to edge rewired to bogus pool"
                fname pm )
      | None -> None)
  | False_th -> (
      match nth_opt (access_sites m an) seed with
      | Some (fname, pid, accessed) ->
          let pm = Hashtbl.find an'.Tyck.an_value_mp (fname, pid) in
          (* Claim a homogeneous type that differs from this access (after
             the same array reduction the checker applies). *)
          let accessed =
            match accessed with Ty.Array (e, _) -> e | t -> t
          in
          let bogus = if Ty.equal accessed Ty.i64 then Ty.i32 else Ty.i64 in
          Hashtbl.replace an'.Tyck.an_th pm bogus;
          Some
            ( an',
              Printf.sprintf
                "@%s: M%d falsely claimed homogeneous of type %s (accessed as \
                 %s)"
                fname pm (Ty.to_string bogus) (Ty.to_string accessed) )
      | None -> None)
  | Split_mp -> (
      match nth_opt (gep_sites m an) seed with
      | Some (fname, base, res) ->
          let old = Hashtbl.find an'.Tyck.an_value_mp (fname, base) in
          (* Clone the pool's facts under a fresh id and move only the base
             there: the gep rule sees two different pools. *)
          (match Hashtbl.find_opt an'.Tyck.an_succ old with
          | Some s -> Hashtbl.replace an'.Tyck.an_succ fresh s
          | None -> ());
          (match Hashtbl.find_opt an'.Tyck.an_th old with
          | Some t -> Hashtbl.replace an'.Tyck.an_th fresh t
          | None -> ());
          Hashtbl.replace an'.Tyck.an_value_mp (fname, base) fresh;
          Some
            ( an',
              Printf.sprintf
                "@%s: M%d split — r%d left behind in a clone pool (gep at r%d)"
                fname old base res )
      | None -> None)

let tyck ~trusted =
  {
    Cert.what = "metapool type";
    check = Tyck.check ~trusted;
    bugs =
      List.map (fun kind -> (kind_name kind, fun m an -> inject m an kind))
        all_kinds;
  }

(* ---------- pool-safety certificate bugs ---------- *)

open Sva_safety

type pool_bug =
  | Confuse_merge
  | Drop_escape
  | Stale_find
  | Wrong_tau
  | Drop_member

let pool_bug_name = function
  | Confuse_merge -> "type-confusing pool merge"
  | Drop_escape -> "dropped escape-frontier edge"
  | Stale_find -> "stale unification find"
  | Wrong_tau -> "wrong homogeneous type"
  | Drop_member -> "missing membership witness site"

let all_pool_bugs =
  [ Confuse_merge; Drop_escape; Stale_find; Wrong_tau; Drop_member ]

(* Deep copy: injection never mutates the original bundle. *)
let copy_pool_bundle (b : Poolev.bundle) : Poolev.bundle =
  {
    Poolev.pb_value_mp = Hashtbl.copy b.Poolev.pb_value_mp;
    pb_global_mp = Hashtbl.copy b.Poolev.pb_global_mp;
    pb_fn_mp = Hashtbl.copy b.Poolev.pb_fn_mp;
    pb_ret_mp = Hashtbl.copy b.Poolev.pb_ret_mp;
    pb_succ = Hashtbl.copy b.Poolev.pb_succ;
    pb_th = b.Poolev.pb_th;
    pb_comp = b.Poolev.pb_comp;
    pb_elisions = b.Poolev.pb_elisions;
  }

(* Rewire every membership/edge reference of [src] to [dst] — the shape a
   buggy unification pass would leave behind. *)
let redirect_mp (b : Poolev.bundle) ~src ~dst =
  let swap tbl =
    let moved = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    List.iter
      (fun (k, v) -> if v = src then Hashtbl.replace tbl k dst)
      moved
  in
  swap b.Poolev.pb_value_mp;
  swap b.Poolev.pb_global_mp;
  swap b.Poolev.pb_fn_mp;
  swap b.Poolev.pb_ret_mp;
  let edges = Hashtbl.fold (fun k v acc -> (k, v) :: acc) b.Poolev.pb_succ [] in
  Hashtbl.reset b.Poolev.pb_succ;
  List.iter
    (fun (k, v) ->
      let k = if k = src then dst else k in
      let v = if v = src then dst else v in
      Hashtbl.replace b.Poolev.pb_succ k v)
    edges

(* Geps whose base and result are both in the membership map: the sites
   where a stale find is locally checkable. *)
let bundle_gep_sites (m : Irmod.t) (b : Poolev.bundle) =
  List.concat_map
    (fun (f : Func.t) ->
      if Func.has_attr f Func.Noanalyze then []
      else
        Func.fold_instrs f
          (fun acc _ (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Gep (Value.Reg (bid, _, _), _)
              when Hashtbl.mem b.Poolev.pb_value_mp (f.Func.f_name, bid)
                   && Hashtbl.mem b.Poolev.pb_value_mp
                        (f.Func.f_name, i.Instr.id) ->
                (f.Func.f_name, i.Instr.id) :: acc
            | _ -> acc)
          []
        |> List.rev)
    m.Irmod.m_funcs

let pool_max_mp (b : Poolev.bundle) =
  let m = ref 0 in
  Hashtbl.iter (fun _ v -> if v > !m then m := v) b.Poolev.pb_value_mp;
  Hashtbl.iter
    (fun k v -> m := max !m (max k v))
    b.Poolev.pb_succ;
  List.iter
    (fun (c : Poolev.comp_cert) -> m := max !m c.Poolev.cc_mp)
    b.Poolev.pb_comp;
  !m

let pool_inject (m : Irmod.t) (b : Poolev.bundle) bug ~seed :
    (Poolev.bundle * string) option =
  let b' = copy_pool_bundle b in
  match bug with
  | Confuse_merge -> (
      (* merge two type-homogeneous pools of different types, the way a
         buggy unification would: all references of one pool rewired to
         the other, witnesses concatenated, the absorbed pool's
         certificates dropped *)
      let pairs =
        List.concat_map
          (fun (a : Poolev.th_cert) ->
            List.filter_map
              (fun (c : Poolev.th_cert) ->
                if
                  a.Poolev.tc_mp < c.Poolev.tc_mp
                  && not (Ty.equal a.Poolev.tc_ty c.Poolev.tc_ty)
                then Some (a, c)
                else None)
              b.Poolev.pb_th)
          b.Poolev.pb_th
      in
      match nth_opt pairs seed with
      | Some (keep, gone) ->
          redirect_mp b' ~src:gone.Poolev.tc_mp ~dst:keep.Poolev.tc_mp;
          b'.Poolev.pb_th <-
            List.filter_map
              (fun (c : Poolev.th_cert) ->
                if c.Poolev.tc_mp = gone.Poolev.tc_mp then None
                else if c.Poolev.tc_mp = keep.Poolev.tc_mp then
                  Some
                    { c with
                      Poolev.tc_members =
                        Poolev.sort_sites
                          (c.Poolev.tc_members @ gone.Poolev.tc_members)
                    }
                else Some c)
              b'.Poolev.pb_th;
          b'.Poolev.pb_comp <-
            List.filter
              (fun (c : Poolev.comp_cert) ->
                c.Poolev.cc_mp <> gone.Poolev.tc_mp)
              b'.Poolev.pb_comp;
          Some
            ( b',
              Printf.sprintf
                "MP%d (%s) confused into MP%d (%s) by a bogus merge"
                gone.Poolev.tc_mp
                (Ty.to_string gone.Poolev.tc_ty)
                keep.Poolev.tc_mp
                (Ty.to_string keep.Poolev.tc_ty) )
      | None -> None)
  | Drop_escape ->
      if seed mod 2 = 0 then (
        (* hide one site of an escape-frontier witness *)
        let entries =
          List.concat_map
            (fun (c : Poolev.comp_cert) ->
              List.map (fun s -> (c, s)) c.Poolev.cc_frontier)
            b.Poolev.pb_comp
        in
        match nth_opt entries (seed / 2) with
        | Some (cert, site) ->
            b'.Poolev.pb_comp <-
              List.map
                (fun (c : Poolev.comp_cert) ->
                  if c.Poolev.cc_mp = cert.Poolev.cc_mp then
                    { c with
                      Poolev.cc_frontier =
                        List.filter (fun s -> s <> site) c.Poolev.cc_frontier
                    }
                  else c)
                b'.Poolev.pb_comp;
            Some
              ( b',
                Printf.sprintf
                  "escape site @%s:%d dropped from MP%d's frontier witness"
                  site.Poolev.s_func site.Poolev.s_instr cert.Poolev.cc_mp )
        | None -> None)
      else
        (* claim an exposed pool complete *)
        let incomplete =
          List.filter
            (fun (c : Poolev.comp_cert) -> not c.Poolev.cc_complete)
            b.Poolev.pb_comp
        in
        (match nth_opt incomplete (seed / 2) with
        | Some cert ->
            b'.Poolev.pb_comp <-
              List.map
                (fun (c : Poolev.comp_cert) ->
                  if c.Poolev.cc_mp = cert.Poolev.cc_mp then
                    { c with Poolev.cc_complete = true }
                  else c)
                b'.Poolev.pb_comp;
            Some
              ( b',
                Printf.sprintf "exposed pool MP%d falsely claimed complete"
                  cert.Poolev.cc_mp )
        | None -> None)
  | Stale_find -> (
      (* a gep result left pointing at a partition that no longer exists —
         what a missed path-compression (stale find) would produce *)
      match nth_opt (bundle_gep_sites m b) seed with
      | Some (fname, res) ->
          let old = Hashtbl.find b'.Poolev.pb_value_mp (fname, res) in
          let bogus = pool_max_mp b + 1 + seed in
          Hashtbl.replace b'.Poolev.pb_value_mp (fname, res) bogus;
          Some
            ( b',
              Printf.sprintf
                "@%s: gep result r%d left in stale partition (was MP%d)"
                fname res old )
      | None -> None)
  | Wrong_tau -> (
      match nth_opt b.Poolev.pb_th seed with
      | Some cert ->
          let bogus =
            if Ty.equal cert.Poolev.tc_ty Ty.i64 then Ty.i32 else Ty.i64
          in
          b'.Poolev.pb_th <-
            List.map
              (fun (c : Poolev.th_cert) ->
                if c.Poolev.tc_mp = cert.Poolev.tc_mp then
                  { c with Poolev.tc_ty = bogus }
                else c)
              b'.Poolev.pb_th;
          Some
            ( b',
              Printf.sprintf
                "MP%d's homogeneous type forged as %s (really %s)"
                cert.Poolev.tc_mp (Ty.to_string bogus)
                (Ty.to_string cert.Poolev.tc_ty) )
      | None -> None)
  | Drop_member -> (
      let entries =
        List.concat_map
          (fun (c : Poolev.th_cert) ->
            List.map (fun s -> (c, s)) c.Poolev.tc_members)
          b.Poolev.pb_th
      in
      match nth_opt entries seed with
      | Some (cert, site) ->
          b'.Poolev.pb_th <-
            List.map
              (fun (c : Poolev.th_cert) ->
                if c.Poolev.tc_mp = cert.Poolev.tc_mp then
                  { c with
                    Poolev.tc_members =
                      List.filter (fun s -> s <> site) c.Poolev.tc_members
                  }
                else c)
              b'.Poolev.pb_th;
          Some
            ( b',
              Printf.sprintf
                "access @%s:%d dropped from MP%d's membership witness"
                site.Poolev.s_func site.Poolev.s_instr cert.Poolev.tc_mp )
      | None -> None)

let poolcert ~config =
  {
    Cert.what = "pool-safety certificate";
    check = Poolcert.check ~config;
    bugs =
      List.map (fun bug -> (pool_bug_name bug, fun m b -> pool_inject m b bug))
        all_pool_bugs;
  }

open Sva_ir
open Sva_analysis
open Sva_safety

type annot = {
  an_value_mp : (string * int, int) Hashtbl.t;
  an_global_mp : (string, int) Hashtbl.t;
  an_fn_mp : (string, int) Hashtbl.t;
  an_ret_mp : (string, int) Hashtbl.t;
  an_succ : (int, int) Hashtbl.t;
  an_th : (int, Ty.t) Hashtbl.t;
}

(* ---------- proof producer ---------- *)

let extract (m : Irmod.t) (pa : Pointsto.result) (mps : Metapool.t) : annot =
  let an =
    {
      an_value_mp = Hashtbl.create 256;
      an_global_mp = Hashtbl.create 64;
      an_fn_mp = Hashtbl.create 64;
      an_ret_mp = Hashtbl.create 64;
      an_succ = Hashtbl.create 64;
      an_th = Hashtbl.create 64;
    }
  in
  let mp_of_node node = Metapool.of_node mps node in
  (* Per-metapool facts. *)
  List.iter
    (fun (d : Metapool.decl) ->
      (match Pointsto.node_succ d.Metapool.mp_node with
      | Some s -> (
          match mp_of_node s with
          | Some sd -> Hashtbl.replace an.an_succ d.Metapool.mp_id sd.Metapool.mp_id
          | None -> ())
      | None -> ());
      if d.Metapool.mp_th then
        match Pointsto.node_ty d.Metapool.mp_node with
        | Some ty -> Hashtbl.replace an.an_th d.Metapool.mp_id ty
        | None -> ())
    (Metapool.decls mps);
  (* Per-value qualifiers. *)
  List.iter
    (fun (g : Irmod.global) ->
      match Pointsto.global_node pa g.Irmod.g_name with
      | Some n -> (
          match mp_of_node n with
          | Some d -> Hashtbl.replace an.an_global_mp g.Irmod.g_name d.Metapool.mp_id
          | None -> ())
      | None -> ())
    m.Irmod.m_globals;
  List.iter
    (fun (f : Func.t) ->
      if not (Func.has_attr f Func.Noanalyze) then begin
        let fname = f.Func.f_name in
        let note_reg id =
          match Pointsto.reg_node pa ~fname id with
          | Some n -> (
              match mp_of_node n with
              | Some d ->
                  Hashtbl.replace an.an_value_mp (fname, id) d.Metapool.mp_id
              | None -> ())
          | None -> ()
        in
        List.iteri (fun i _ -> note_reg i) f.Func.f_params;
        Func.iter_instrs f (fun _ (i : Instr.t) ->
            match Instr.result i with
            | Some (Value.Reg (id, _, _)) -> note_reg id
            | _ -> ());
        (match Pointsto.ret_node pa fname with
        | Some n -> (
            match mp_of_node n with
            | Some d -> Hashtbl.replace an.an_ret_mp fname d.Metapool.mp_id
            | None -> ())
        | None -> ());
        match Pointsto.value_node pa ~fname (Value.Fn (fname, Func.func_ty f)) with
        | Some n -> (
            match mp_of_node n with
            | Some d -> Hashtbl.replace an.an_fn_mp fname d.Metapool.mp_id
            | None -> ())
        | None -> ()
      end)
    m.Irmod.m_funcs;
  an

(* ---------- the trusted checker ---------- *)

let check ?(trusted = []) (m : Irmod.t) (an : annot) : Cert.error list =
  let errors = ref [] in
  let mp_of_value fname (v : Value.t) =
    match v with
    | Value.Reg (id, _, _) -> Hashtbl.find_opt an.an_value_mp (fname, id)
    | Value.Global (g, _) -> Hashtbl.find_opt an.an_global_mp g
    | Value.Fn (f, _) -> Hashtbl.find_opt an.an_fn_mp f
    | Value.Imm _ | Value.Fimm _ | Value.Null _ | Value.Undef _ -> None
  in
  List.iter
    (fun (f : Func.t) ->
      if Func.has_attr f Func.Noanalyze then ()
      else begin
        let fname = f.Func.f_name in
        let err instr fmt =
          Printf.ksprintf
            (fun s ->
              errors := { Cert.func = fname; instr; msg = s } :: !errors)
            fmt
        in
        let mp = mp_of_value fname in
        (* The checker recomputes "interior pointer" locally: results of
           multi-index geps do not constrain the pool's homogeneous type. *)
        let interior = Hashtbl.create 16 in
        let is_interior v =
          match v with
          | Value.Reg (id, _, _) -> Hashtbl.mem interior id
          | _ -> false
        in
        let require_equal instr what ma mb =
          match (ma, mb) with
          | Some a, Some b when a <> b ->
              err instr "%s: metapool M%d but expected M%d" what a b
          | Some _, None | None, Some _ ->
              err instr "%s: missing metapool qualifier on one side" what
          | _ -> ()
        in
        let th_access instr ptr =
          if not (is_interior ptr) then
            match mp ptr with
            | Some mpi -> (
                match Hashtbl.find_opt an.an_th mpi with
                | Some claimed ->
                    let reduce = function Ty.Array (e, _) -> e | t -> t in
                    let accessed = reduce (Ty.pointee (Value.ty ptr)) in
                    if not (Ty.equal claimed accessed) then
                      err instr
                        "type-homogeneity claim on M%d is %s but access type \
                         is %s"
                        mpi (Ty.to_string claimed) (Ty.to_string accessed)
                | None -> ())
            | None -> ()
        in
        Func.iter_instrs f (fun _ (i : Instr.t) ->
            let res_mp =
              match Instr.result i with Some r -> mp r | None -> None
            in
            match i.Instr.kind with
            | Instr.Gep (base, idxs) ->
                if
                  Pointsto.gep_enters_struct m.Irmod.m_ctx (Value.ty base) idxs
                  || is_interior base
                then Hashtbl.replace interior i.Instr.id ();
                th_access i.Instr.id base;
                require_equal i.Instr.id "getelementptr preserves pool" res_mp
                  (mp base)
            | Instr.Cast ((Instr.Bitcast | Instr.Ptrtoint | Instr.Inttoptr), x, _)
              -> (
                match (res_mp, mp x) with
                | Some a, Some b when a <> b ->
                    err i.Instr.id "cast changes metapool M%d -> M%d" b a
                | _ -> ())
            | Instr.Phi incoming ->
                List.iter
                  (fun (_, v) ->
                    match (res_mp, mp v) with
                    | Some a, Some b when a <> b ->
                        err i.Instr.id "phi mixes metapools M%d and M%d" a b
                    | _ -> ())
                  incoming
            | Instr.Select (_, x, y) ->
                List.iter
                  (fun v ->
                    match (res_mp, mp v) with
                    | Some a, Some b when a <> b ->
                        err i.Instr.id "select mixes metapools M%d and M%d" a b
                    | _ -> ())
                  [ x; y ]
            | Instr.Load p -> (
                th_access i.Instr.id p;
                match (res_mp, mp p) with
                | Some rm, Some pm -> (
                    match Hashtbl.find_opt an.an_succ pm with
                    | Some s when s <> rm ->
                        err i.Instr.id
                          "load result in M%d but M%d's cells target M%d" rm pm s
                    | Some _ -> ()
                    | None ->
                        err i.Instr.id
                          "load of a pointer from M%d which has no target pool"
                          pm)
                | _ -> ())
            | Instr.Store (v, p) -> (
                th_access i.Instr.id p;
                match (mp v, mp p) with
                | Some vm, Some pm -> (
                    match Hashtbl.find_opt an.an_succ pm with
                    | Some s when s <> vm ->
                        err i.Instr.id
                          "store of M%d pointer into M%d whose cells target M%d"
                          vm pm s
                    | Some _ -> ()
                    | None ->
                        err i.Instr.id
                          "store of a pointer into M%d which has no target pool"
                          pm)
                | _ -> ())
            | Instr.Call (Value.Fn (callee, _), args)
              when not (List.mem callee trusted) -> (
                (* Direct call: argument qualifiers must match the callee's
                   parameter qualifiers (still a local rule: it reads only
                   the annotation tables). *)
                match Irmod.find_func m callee with
                | Some cf when not (Func.has_attr cf Func.Noanalyze) ->
                    List.iteri
                      (fun k arg ->
                        match
                          (mp arg, Hashtbl.find_opt an.an_value_mp (callee, k))
                        with
                        | Some a, Some b when a <> b ->
                            err i.Instr.id
                              "argument %d in M%d but @%s expects M%d" k a
                              callee b
                        | _ -> ())
                      args;
                    (match (res_mp, Hashtbl.find_opt an.an_ret_mp callee) with
                    | Some a, Some b when a <> b ->
                        err i.Instr.id "result in M%d but @%s returns M%d" a
                          callee b
                    | _ -> ())
                | _ -> ())
            | _ -> ())
      end)
    m.Irmod.m_funcs;
  List.rev !errors

let trusted_of_config (cfg : Pointsto.config) =
  let allocs =
    List.concat_map
      (fun (a : Allocdecl.t) ->
        a.Allocdecl.a_alloc
        :: (Option.to_list a.Allocdecl.a_free @ Option.to_list a.Allocdecl.a_size_fn))
      cfg.Pointsto.allocators
  in
  allocs @ cfg.Pointsto.copy_functions @ cfg.Pointsto.user_copy_functions
  @ Option.to_list cfg.Pointsto.syscall_register
  @ Option.to_list cfg.Pointsto.syscall_invoke

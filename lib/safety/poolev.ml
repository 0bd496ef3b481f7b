(* Pool-safety evidence bundle: the untrusted side of the poolcert
   split.  Pointsto/Metapool classification is distilled into per-value
   metapool membership maps plus explicit certificates — type-homogeneity
   witnesses and completeness (escape-frontier) witnesses — and
   Checkinsert appends one elision record per check it leaves out.
   Nothing here is trusted: the whole bundle is re-verified by the
   purely local checker in Sva_tyck.Poolcert, which re-scans the IR
   independently. *)

open Sva_ir
module Pointsto = Sva_analysis.Pointsto

type site = { s_func : string; s_instr : int }

type th_cert = {
  tc_mp : int;
  tc_ty : Ty.t;  (* the claimed homogeneous (reduced) type *)
  tc_members : site list;  (* every recorded access site of the pool *)
}

type comp_cert = {
  cc_mp : int;
  cc_complete : bool;
  cc_frontier : site list;  (* direct escape sites exposing the pool *)
}

type fc_just = Fc_th | Fc_incomplete

type elision =
  | El_th of site * int  (* lscheck elided: type-homogeneous pool *)
  | El_reduced of site * int  (* lscheck skipped: incomplete pool *)
  | El_func of site * int * fc_just  (* funccheck elided at a call site *)

type bundle = {
  pb_value_mp : (string * int, int) Hashtbl.t;
  pb_global_mp : (string, int) Hashtbl.t;
  pb_fn_mp : (string, int) Hashtbl.t;
  pb_ret_mp : (string, int) Hashtbl.t;
  pb_succ : (int, int) Hashtbl.t;
  mutable pb_th : th_cert list;
  mutable pb_comp : comp_cert list;
  mutable pb_elisions : elision list;
}

let mp_of_value b fname (v : Value.t) =
  match v with
  | Value.Reg (id, _, _) -> Hashtbl.find_opt b.pb_value_mp (fname, id)
  | Value.Global (g, _) -> Hashtbl.find_opt b.pb_global_mp g
  | Value.Fn (f, _) -> Hashtbl.find_opt b.pb_fn_mp f
  | Value.Imm _ | Value.Fimm _ | Value.Null _ | Value.Undef _ -> None

let site_compare a b =
  compare (a.s_func, a.s_instr) (b.s_func, b.s_instr)

let sort_sites sites = List.sort_uniq site_compare sites

let create (m : Irmod.t) (pa : Pointsto.result) (mps : Metapool.t) : bundle =
  let b =
    {
      pb_value_mp = Hashtbl.create 256;
      pb_global_mp = Hashtbl.create 64;
      pb_fn_mp = Hashtbl.create 64;
      pb_ret_mp = Hashtbl.create 64;
      pb_succ = Hashtbl.create 64;
      pb_th = [];
      pb_comp = [];
      pb_elisions = [];
    }
  in
  let mp_of_node node = Metapool.of_node mps node in
  let mp_id_of_node node =
    Option.map (fun (d : Metapool.decl) -> d.Metapool.mp_id) (mp_of_node node)
  in
  (* Membership maps (same shape as the Tyck annotation tables). *)
  List.iter
    (fun (g : Irmod.global) ->
      match Pointsto.global_node pa g.Irmod.g_name with
      | Some n -> (
          match mp_id_of_node n with
          | Some mpi -> Hashtbl.replace b.pb_global_mp g.Irmod.g_name mpi
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
              match mp_id_of_node n with
              | Some mpi -> Hashtbl.replace b.pb_value_mp (fname, id) mpi
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
            match mp_id_of_node n with
            | Some mpi -> Hashtbl.replace b.pb_ret_mp fname mpi
            | None -> ())
        | None -> ());
        match
          Pointsto.value_node pa ~fname (Value.Fn (fname, Func.func_ty f))
        with
        | Some n -> (
            match mp_id_of_node n with
            | Some mpi -> Hashtbl.replace b.pb_fn_mp fname mpi
            | None -> ())
        | None -> ()
      end)
    m.Irmod.m_funcs;
  List.iter
    (fun (d : Metapool.decl) ->
      match Pointsto.node_succ d.Metapool.mp_node with
      | Some s -> (
          match mp_id_of_node s with
          | Some smp -> Hashtbl.replace b.pb_succ d.Metapool.mp_id smp
          | None -> ())
      | None -> ())
    (Metapool.decls mps);
  (* Access sites grouped by metapool: the TH membership witnesses. *)
  let members : (int, site list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (a : Pointsto.access) ->
      match mp_id_of_node a.Pointsto.acc_node with
      | Some mpi ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt members mpi)
          in
          Hashtbl.replace members mpi
            ({ s_func = a.Pointsto.acc_func; s_instr = a.Pointsto.acc_instr }
            :: prev)
      | None -> ())
    (Pointsto.accesses pa);
  (* Escape sites grouped by metapool: the completeness frontiers. *)
  let frontier : (int, site list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Pointsto.escape_site) ->
      match mp_id_of_node e.Pointsto.es_node with
      | Some mpi ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt frontier mpi)
          in
          Hashtbl.replace frontier mpi
            ({ s_func = e.Pointsto.es_func; s_instr = e.Pointsto.es_instr }
            :: prev)
      | None -> ())
    (Pointsto.escape_sites pa);
  (* One completeness certificate per metapool; a TH certificate for each
     pool the analysis claims type-homogeneous. *)
  List.iter
    (fun (d : Metapool.decl) ->
      let mpi = d.Metapool.mp_id in
      b.pb_comp <-
        {
          cc_mp = mpi;
          cc_complete = d.Metapool.mp_complete;
          cc_frontier =
            sort_sites (Option.value ~default:[] (Hashtbl.find_opt frontier mpi));
        }
        :: b.pb_comp;
      if d.Metapool.mp_th then
        match Pointsto.node_ty d.Metapool.mp_node with
        | Some ty ->
            b.pb_th <-
              {
                tc_mp = mpi;
                tc_ty = ty;
                tc_members =
                  sort_sites
                    (Option.value ~default:[] (Hashtbl.find_opt members mpi));
              }
              :: b.pb_th
        | None -> ())
    (Metapool.decls mps);
  b.pb_comp <- List.rev b.pb_comp;
  b.pb_th <- List.rev b.pb_th;
  b

let record_elision b e = b.pb_elisions <- e :: b.pb_elisions

let cert_count b = List.length b.pb_th + List.length b.pb_comp

let elision_count b = List.length b.pb_elisions

open Sva_ir
open Sva_analysis

type decl = {
  mp_id : int;
  mp_name : string;
  mp_node : Pointsto.node;
  mp_th : bool;
  mp_complete : bool;
  mp_elem_size : int;
  mp_userspace : bool;
}

type t = {
  mp_decls : decl list;
  by_node : (int, decl) Hashtbl.t;
  merges : int;
}

(* Unify all nodes within each group; returns the number of unifications
   that actually merged distinct partitions. *)
let unify_groups pa groups =
  let merges = ref 0 in
  Hashtbl.iter
    (fun _ nodes ->
      match nodes with
      | [] | [ _ ] -> ()
      | first :: rest ->
          List.iter
            (fun n ->
              if not (Pointsto.same_node first n) then begin
                incr merges;
                Pointsto.unify_nodes pa first n
              end)
            rest)
    groups;
  !merges

let group_pool_sites pa =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (al : Pointsto.alloc_site) ->
      match al.Pointsto.al_pool_node with
      | Some pool ->
          let key = Pointsto.node_id pool in
          let cur = try Hashtbl.find groups key with Not_found -> [] in
          Hashtbl.replace groups key (al.Pointsto.al_node :: cur)
      | None -> ())
    (Pointsto.alloc_sites pa);
  groups

let group_ordinary_sites pa (decls : Allocdecl.t list) =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (al : Pointsto.alloc_site) ->
      match Allocdecl.find decls al.Pointsto.al_alloc with
      | Some { Allocdecl.a_kind = Allocdecl.Ordinary; _ } ->
          let key =
            match al.Pointsto.al_size_class with
            | Some c -> Printf.sprintf "%s#%d" al.Pointsto.al_alloc c
            | None -> al.Pointsto.al_alloc ^ "#var"
          in
          let cur = try Hashtbl.find groups key with Not_found -> [] in
          Hashtbl.replace groups key (al.Pointsto.al_node :: cur)
      | _ -> ())
    (Pointsto.alloc_sites pa);
  groups

let infer (m : Irmod.t) (pa : Pointsto.result) (decls : Allocdecl.t list) =
  let merges = ref 0 in
  merges := !merges + unify_groups pa (group_pool_sites pa);
  merges := !merges + unify_groups pa (group_ordinary_sites pa decls);
  (* Assign ids to the surviving representatives. *)
  let by_node = Hashtbl.create 64 in
  let out = ref [] in
  let next = ref 0 in
  List.iter
    (fun node ->
      let id = !next in
      incr next;
      let th = Pointsto.is_type_homog node in
      let elem_size =
        if th then
          match Pointsto.node_ty node with
          | Some ty -> (
              try Ty.sizeof m.Irmod.m_ctx ty with Invalid_argument _ -> 0)
          | None -> 0
        else 0
      in
      let d =
        {
          mp_id = id;
          mp_name = Printf.sprintf "MP%d" id;
          mp_node = node;
          mp_th = th;
          mp_complete = Pointsto.is_complete node;
          mp_elem_size = elem_size;
          mp_userspace = Pointsto.has_flag node Pointsto.Userspace;
        }
      in
      Hashtbl.replace by_node (Pointsto.node_id node) d;
      out := d :: !out)
    (Pointsto.nodes pa);
  { mp_decls = List.rev !out; by_node; merges = !merges }

let decls t = t.mp_decls

let of_node t node = Hashtbl.find_opt t.by_node (Pointsto.node_id node)

let of_value t pa ~fname v =
  match Pointsto.value_node pa ~fname v with
  | Some n -> of_node t n
  | None -> None

let to_string t =
  String.concat "\n"
    (List.map
       (fun d ->
         Printf.sprintf "%s: node %d%s%s%s elem=%d" d.mp_name
           (Pointsto.node_id d.mp_node)
           (if d.mp_th then " TH" else "")
           (if d.mp_complete then " complete" else " INCOMPLETE")
           (if d.mp_userspace then " userspace" else "")
           d.mp_elem_size)
       t.mp_decls)

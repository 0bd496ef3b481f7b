type t = {
  entry : string;
  succ : (string, string list) Hashtbl.t;
  pred : (string, string list) Hashtbl.t;
  rpo : string list;
  rpo_idx : (string, int) Hashtbl.t;
  idoms : (string, string) Hashtbl.t;
}

let compute_rpo entry succ =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.add visited label ();
      List.iter dfs (try Hashtbl.find succ label with Not_found -> []);
      order := label :: !order
    end
  in
  dfs entry;
  !order

(* Cooper, Harvey, Kennedy: "A Simple, Fast Dominance Algorithm". *)
let compute_idoms entry rpo rpo_idx pred =
  let idoms = Hashtbl.create 16 in
  Hashtbl.replace idoms entry entry;
  let intersect a b =
    let rec go a b =
      if a = b then a
      else
        let ia = Hashtbl.find rpo_idx a and ib = Hashtbl.find rpo_idx b in
        if ia > ib then go (Hashtbl.find idoms a) b else go a (Hashtbl.find idoms b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun label ->
        if label <> entry then begin
          let preds =
            (try Hashtbl.find pred label with Not_found -> [])
            |> List.filter (fun p -> Hashtbl.mem rpo_idx p)
          in
          let processed = List.filter (fun p -> Hashtbl.mem idoms p) preds in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if Hashtbl.find_opt idoms label <> Some new_idom then begin
                Hashtbl.replace idoms label new_idom;
                changed := true
              end
        end)
      rpo
  done;
  idoms

let build (f : Func.t) =
  let entry = (Func.entry f).Func.label in
  let succ = Hashtbl.create 16 and pred = Hashtbl.create 16 in
  List.iter
    (fun (b : Func.block) ->
      let ss = Instr.successors b.Func.term in
      Hashtbl.replace succ b.Func.label ss;
      List.iter
        (fun s ->
          let ps = try Hashtbl.find pred s with Not_found -> [] in
          if not (List.mem b.Func.label ps) then
            Hashtbl.replace pred s (ps @ [ b.Func.label ]))
        ss)
    f.Func.f_blocks;
  let rpo = compute_rpo entry succ in
  let rpo_idx = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace rpo_idx l i) rpo;
  let idoms = compute_idoms entry rpo rpo_idx pred in
  { entry; succ; pred; rpo; rpo_idx; idoms }

let successors t label = try Hashtbl.find t.succ label with Not_found -> []
let predecessors t label = try Hashtbl.find t.pred label with Not_found -> []
let reachable t = t.rpo
let is_reachable t label = Hashtbl.mem t.rpo_idx label

let idom t label =
  if label = t.entry then None
  else
    match Hashtbl.find_opt t.idoms label with
    | Some d -> Some d
    | None -> None

let dominates t a b =
  let rec climb cur =
    if cur = a then true
    else if cur = t.entry then a = t.entry
    else
      match Hashtbl.find_opt t.idoms cur with
      | Some d when d <> cur -> climb d
      | _ -> false
  in
  is_reachable t a && is_reachable t b && climb b

let back_edges t =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst -> if dominates t dst src then Some (src, dst) else None)
        (successors t src))
    t.rpo

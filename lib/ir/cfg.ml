(* Nodes are the function's distinct block labels in [f_blocks] order
   (node 0 is the entry), then the labels that a terminator names but no
   block carries.  The label API answers from lists and tables filled
   once per graph. *)
type t = {
  blocks : Func.block list;  (** the [f_blocks] list the graph was built from *)
  targets : string list array;
      (** per block of [blocks]: the successor labels its terminator
          named, the graph's reuse key *)
  labels : string array;  (** node -> label *)
  index : (string, int) Hashtbl.t;  (** label -> node *)
  block_of : Func.block array;  (** node -> first block with its label *)
  succ : int array array;  (** distinct successors, first-named first *)
  pred : int array array;  (** distinct predecessors, in block order *)
  succ_l : string list array;
  pred_l : string list array;
  rpo : int array;  (** reachable nodes in reverse postorder *)
  rpo_l : string list;
  num : int array;  (** node -> position in [rpo]; -1 if unreachable *)
  idom : int array;  (** node -> immediate dominator; the entry's own; -1 *)
  mutable back : (string * string) list option;
}

let add_distinct x xs = if List.mem x xs then xs else x :: xs

(* Cooper, Harvey, Kennedy: "A Simple, Fast Dominance Algorithm". *)
let compute_idoms rpo num pred =
  let idom = Array.make (Array.length num) (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if num.(a) > num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun n ->
        if n <> 0 then begin
          let new_idom =
            Array.fold_left
              (fun acc p ->
                if num.(p) < 0 || idom.(p) < 0 then acc
                else if acc < 0 then p
                else intersect p acc)
              (-1) pred.(n)
          in
          if new_idom >= 0 && idom.(n) <> new_idom then begin
            idom.(n) <- new_idom;
            changed := true
          end
        end)
      rpo
  done;
  idom

let compute (f : Func.t) =
  let entry = Func.entry f in
  let blocks = Array.of_list f.Func.f_blocks in
  let index = Hashtbl.create (2 * Array.length blocks) in
  let rev_labels = ref [] and n = ref 0 in
  let node l =
    match Hashtbl.find_opt index l with
    | Some i -> i
    | None ->
        let i = !n in
        Hashtbl.add index l i;
        rev_labels := l :: !rev_labels;
        incr n;
        i
  in
  Array.iter (fun (b : Func.block) -> ignore (node b.Func.label)) blocks;
  let nblocks = !n in
  let targets = Array.map (fun (b : Func.block) -> Instr.successors b.Func.term) blocks in
  Array.iter (List.iter (fun s -> ignore (node s))) targets;
  let nn = !n in
  let labels = Array.of_list (List.rev !rev_labels) in
  let block_of = Array.make nblocks entry in
  let succ_l = Array.make nn [] and rev_pred = Array.make nn [] in
  for k = Array.length blocks - 1 downto 0 do
    block_of.(node blocks.(k).Func.label) <- blocks.(k)
  done;
  Array.iteri
    (fun k (b : Func.block) ->
      let src = node b.Func.label in
      succ_l.(src) <- targets.(k);
      List.iter
        (fun s ->
          let d = node s in
          rev_pred.(d) <- add_distinct src rev_pred.(d))
        targets.(k))
    blocks;
  let succ =
    Array.map
      (fun ss ->
        Array.of_list
          (List.rev (List.fold_left (fun acc s -> add_distinct (node s) acc) [] ss)))
      succ_l
  in
  let pred = Array.map (fun ps -> Array.of_list (List.rev ps)) rev_pred in
  let visited = Array.make nn false and order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      Array.iter dfs succ.(i);
      order := i :: !order
    end
  in
  dfs 0;
  let rpo = Array.of_list !order in
  let num = Array.make nn (-1) in
  Array.iteri (fun k i -> num.(i) <- k) rpo;
  {
    blocks = f.Func.f_blocks;
    targets;
    labels;
    index;
    block_of;
    succ;
    pred;
    succ_l;
    pred_l = Array.map (fun ps -> List.rev_map (fun p -> labels.(p)) ps) rev_pred;
    rpo;
    rpo_l = Array.to_list (Array.map (fun i -> labels.(i)) rpo);
    num;
    idom = compute_idoms rpo num pred;
    back = None;
  }

(* Does [term] still name exactly [ss], in order? *)
let names_targets (term : Instr.term) ss =
  match (term, ss) with
  | (Instr.Ret _ | Instr.Unreachable), [] -> true
  | Instr.Jmp l, [ l' ] -> String.equal l l'
  | Instr.Br (_, a, b), [ a'; b' ] -> String.equal a a' && String.equal b b'
  | Instr.Switch (_, cases, d), _ ->
      let rec go cases ss =
        match (cases, ss) with
        | [], [ d' ] -> String.equal d d'
        | (_, l) :: cases, l' :: ss -> String.equal l l' && go cases ss
        | _ -> false
      in
      go cases ss
  | _ -> false

let still_current t (f : Func.t) =
  t.blocks == f.Func.f_blocks
  &&
  let rec go k = function
    | [] -> true
    | (b : Func.block) :: rest -> names_targets b.Func.term t.targets.(k) && go (k + 1) rest
  in
  go 0 t.blocks

(* One graph per function shape: the table is keyed by the [Func.t]
   itself, so an entry lives exactly as long as its function. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Func.t

  let equal = ( == )
  let hash (f : Func.t) = Hashtbl.hash f.Func.f_name
end)

let memo : t Memo.t = Memo.create 64

let build (f : Func.t) =
  match Memo.find_opt memo f with
  | Some t when still_current t f -> t
  | _ ->
      let t = compute f in
      Memo.replace memo f t;
      t

let node t label = Hashtbl.find_opt t.index label

let successors t label =
  match node t label with Some i -> t.succ_l.(i) | None -> []

let predecessors t label =
  match node t label with Some i -> t.pred_l.(i) | None -> []

let reachable t = t.rpo_l

let is_reachable t label =
  match node t label with Some i -> t.num.(i) >= 0 | None -> false

let idom t label =
  match node t label with
  | Some i when i <> 0 && t.idom.(i) >= 0 -> Some t.labels.(t.idom.(i))
  | _ -> None

let dominates_at t a b =
  let rec climb c = c = a || (c <> 0 && climb t.idom.(c)) in
  t.num.(a) >= 0 && t.num.(b) >= 0 && climb b

let dominates t a b =
  match (node t a, node t b) with
  | Some a, Some b -> dominates_at t a b
  | _ -> false

let back_edges t =
  match t.back with
  | Some be -> be
  | None ->
      let be =
        List.concat_map
          (fun src ->
            List.filter_map
              (fun dst -> if dominates t dst src then Some (src, dst) else None)
              (successors t src))
          t.rpo_l
      in
      t.back <- Some be;
      be

let size t = Array.length t.labels
let index t label = Hashtbl.find t.index label
let label t i = t.labels.(i)

let block t i =
  if i < Array.length t.block_of then t.block_of.(i) else raise Not_found

let find_block t label = block t (index t label)
let rpo t = t.rpo
let succ t i = t.succ.(i)
let pred t i = t.pred.(i)
let reachable_at t i = t.num.(i) >= 0

let is_scalar = function
  | Ty.Int _ | Ty.Float | Ty.Ptr _ -> true
  | Ty.Void | Ty.Array _ | Ty.Struct _ | Ty.Func _ -> false

(* The address of a promotable slot may appear only as the pointer operand of
   loads and stores. *)
let address_escapes (f : Func.t) alloca_id =
  let uses_addr v =
    match v with Value.Reg (id, _, _) -> id = alloca_id | _ -> false
  in
  Func.fold_instrs f
    (fun escapes _ (i : Instr.t) ->
      escapes
      ||
      match i.kind with
      | Instr.Load p -> (not (uses_addr p)) && List.exists uses_addr (Instr.operands i.kind)
      | Instr.Store (v, _) -> uses_addr v
      | _ -> List.exists uses_addr (Instr.operands i.kind))
    false
  || List.exists
       (fun (b : Func.block) ->
         List.exists uses_addr (Instr.term_operands b.Func.term))
       f.Func.f_blocks

let promotable f (i : Instr.t) =
  match i.kind with
  | Instr.Alloca (ty, Value.Imm (_, 1L)) ->
      is_scalar ty && not (address_escapes f i.Instr.id)
  | _ -> false

(* Dominance frontiers from immediate dominators (Cooper-Harvey-Kennedy). *)
let dominance_frontiers cfg blocks =
  let df = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace df l []) blocks;
  List.iter
    (fun b ->
      let preds = Cfg.predecessors cfg b |> List.filter (Cfg.is_reachable cfg) in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            (* Walk from the predecessor up to (but excluding) idom(b),
               adding b to each frontier.  Note a loop header is in its own
               frontier: the walk from the back edge's source reaches b
               itself before idom(b). *)
            let rec runner r =
              if Some r <> Cfg.idom cfg b then begin
                let cur = try Hashtbl.find df r with Not_found -> [] in
                if not (List.mem b cur) then Hashtbl.replace df r (b :: cur);
                match Cfg.idom cfg r with Some d when d <> r -> runner d | _ -> ()
              end
            in
            runner p)
          preds)
    blocks;
  df

let run_func (f : Func.t) =
  if f.Func.f_blocks = [] then 0
  else begin
    let cfg = Cfg.build f in
    let blocks = Cfg.reachable cfg in
    let slots =
      Func.fold_instrs f
        (fun acc _ i -> if promotable f i then i :: acc else acc)
        []
      |> List.rev
    in
    if slots = [] then 0
    else begin
      let slot_ids = List.map (fun (i : Instr.t) -> i.Instr.id) slots in
      let slot_ty =
        List.map
          (fun (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Alloca (ty, _) -> (i.Instr.id, ty)
            | _ -> assert false)
          slots
      in
      let is_slot id = List.mem id slot_ids in
      let df = dominance_frontiers cfg blocks in
      (* Blocks storing to each slot. *)
      let def_blocks = Hashtbl.create 16 in
      List.iter
        (fun (b : Func.block) ->
          List.iter
            (fun (i : Instr.t) ->
              match i.Instr.kind with
              | Instr.Store (_, Value.Reg (id, _, _)) when is_slot id ->
                  let cur = try Hashtbl.find def_blocks id with Not_found -> [] in
                  if not (List.mem b.Func.label cur) then
                    Hashtbl.replace def_blocks id (b.Func.label :: cur)
              | _ -> ())
            b.Func.insns)
        f.Func.f_blocks;
      (* Iterated dominance frontier phi placement.
         phi_for.(label) : (slot_id -> phi instr) *)
      let phis : (string, (int, Instr.t) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
      let phi_table label =
        match Hashtbl.find_opt phis label with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.replace phis label t;
            t
      in
      List.iter
        (fun slot ->
          let ty = List.assoc slot slot_ty in
          let worklist = ref (try Hashtbl.find def_blocks slot with Not_found -> []) in
          let placed = Hashtbl.create 8 in
          while !worklist <> [] do
            match !worklist with
            | [] -> ()
            | b :: rest ->
                worklist := rest;
                List.iter
                  (fun d ->
                    if not (Hashtbl.mem placed d) then begin
                      Hashtbl.replace placed d ();
                      let id = Func.fresh_reg f in
                      let phi =
                        { Instr.id; nm = "m2r"; ty; kind = Instr.Phi [] }
                      in
                      Hashtbl.replace (phi_table d) slot phi;
                      worklist := d :: !worklist
                    end)
                  (try Hashtbl.find df b with Not_found -> [])
          done)
        slot_ids;
      (* Renaming over the dominator tree. *)
      let children = Hashtbl.create 16 in
      List.iter
        (fun b ->
          match Cfg.idom cfg b with
          | Some d when d <> b ->
              let cur = try Hashtbl.find children d with Not_found -> [] in
              Hashtbl.replace children d (cur @ [ b ])
          | _ -> ())
        blocks;
      let stacks : (int, Value.t list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter (fun s -> Hashtbl.replace stacks s (ref [])) slot_ids;
      let current slot ty =
        match !(Hashtbl.find stacks slot) with
        | v :: _ -> v
        | [] -> Value.Undef ty
      in
      let replaced : (int, Value.t) Hashtbl.t = Hashtbl.create 32 in
      let subst v =
        match v with
        | Value.Reg (id, _, _) -> (
            match Hashtbl.find_opt replaced id with Some v' -> v' | None -> v)
        | _ -> v
      in
      let entry_label = (Func.entry f).Func.label in
      let rec rename label =
        let b = Cfg.find_block cfg label in
        let pushed = ref [] in
        (* Phi results become the current definitions. *)
        Hashtbl.iter
          (fun slot (phi : Instr.t) ->
            let v = Value.Reg (phi.Instr.id, phi.Instr.ty, phi.Instr.nm) in
            let st = Hashtbl.find stacks slot in
            st := v :: !st;
            pushed := slot :: !pushed)
          (phi_table label);
        let new_insns = ref [] in
        List.iter
          (fun (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Alloca _ when is_slot i.Instr.id -> ()
            | Instr.Load (Value.Reg (id, _, _)) when is_slot id ->
                let ty = List.assoc id slot_ty in
                Hashtbl.replace replaced i.Instr.id (subst (current id ty))
            | Instr.Store (v, Value.Reg (id, _, _)) when is_slot id ->
                let st = Hashtbl.find stacks id in
                st := subst v :: !st;
                pushed := id :: !pushed
            | kind ->
                new_insns :=
                  { i with Instr.kind = Instr.map_operands subst kind } :: !new_insns)
          b.Func.insns;
        b.Func.insns <- List.rev !new_insns;
        b.Func.term <- Instr.map_term_operands subst b.Func.term;
        (* Fill phi operands of CFG successors. *)
        List.iter
          (fun succ ->
            Hashtbl.iter
              (fun slot (phi : Instr.t) ->
                let ty = List.assoc slot slot_ty in
                let v = subst (current slot ty) in
                match phi.Instr.kind with
                | Instr.Phi incoming ->
                    let phi' =
                      { phi with Instr.kind = Instr.Phi ((label, v) :: incoming) }
                    in
                    Hashtbl.replace (phi_table succ) slot phi'
                | _ -> assert false)
              (phi_table succ))
          (Cfg.successors cfg label);
        List.iter rename (try Hashtbl.find children label with Not_found -> []);
        List.iter
          (fun slot ->
            let st = Hashtbl.find stacks slot in
            match !st with _ :: rest -> st := rest | [] -> ())
          !pushed
      in
      rename entry_label;
      (* Splice the (now complete) phis at block heads. *)
      List.iter
        (fun label ->
          let t = phi_table label in
          if Hashtbl.length t > 0 then begin
            let b = Cfg.find_block cfg label in
            let new_phis =
              Hashtbl.fold (fun _ phi acc -> phi :: acc) t []
              |> List.sort (fun (a : Instr.t) b -> compare a.Instr.id b.Instr.id)
            in
            b.Func.insns <- new_phis @ b.Func.insns
          end)
        blocks;
      (* A second substitution pass: loads replaced late may still be
         referenced by instructions processed before their replacement was
         recorded in a different dominator subtree order.  One fixpoint sweep
         is enough because [replaced] maps to fully-substituted values. *)
      let rec final v =
        match v with
        | Value.Reg (id, _, _) -> (
            match Hashtbl.find_opt replaced id with Some v' -> final v' | None -> v)
        | _ -> v
      in
      List.iter
        (fun (b : Func.block) ->
          b.Func.insns <-
            List.map
              (fun (i : Instr.t) ->
                { i with Instr.kind = Instr.map_operands final i.Instr.kind })
              b.Func.insns;
          b.Func.term <- Instr.map_term_operands final b.Func.term)
        f.Func.f_blocks;
      List.length slots
    end
  end

let run (m : Irmod.t) =
  List.fold_left (fun n f -> n + run_func f) 0 m.Irmod.m_funcs

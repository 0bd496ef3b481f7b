type error = { ve_func : string; ve_block : string; ve_msg : string }

let string_of_error e =
  Printf.sprintf "@%s/%%%s: %s" e.ve_func e.ve_block e.ve_msg

(* The module's symbol names, tabled once per [verify_module]. *)
type symbols = {
  globals : (string, unit) Hashtbl.t;
  fns : (string, unit) Hashtbl.t;  (** defined or external functions *)
}

(* Type-check one instruction; returns error messages. *)
let check_instr ctx syms (i : Instr.t) : string list =
  let vty = Value.ty in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let expect want got what =
    if not (Ty.equal want got) then
      err "%s: expected %s, got %s" what (Ty.to_string want) (Ty.to_string got)
  in
  (match i.kind with
  | Binop (op, a, b) ->
      expect (vty a) (vty b) "binop operand types";
      (match op with
      | Fadd | Fsub | Fmul | Fdiv ->
          expect Ty.Float (vty a) "float binop operand";
          expect Ty.Float i.ty "float binop result"
      | _ ->
          if not (Ty.is_integer (vty a)) then err "integer binop on %s" (Ty.to_string (vty a));
          expect (vty a) i.ty "binop result")
  | Icmp (_, a, b) ->
      expect (vty a) (vty b) "icmp operand types";
      if not (Ty.is_integer (vty a) || Ty.is_pointer (vty a)) then
        err "icmp on non-integer/pointer %s" (Ty.to_string (vty a));
      expect Ty.i1 i.ty "icmp result"
  | Alloca (t, n) ->
      if not (Ty.is_integer (vty n)) then err "alloca count must be integer";
      expect (Ty.Ptr t) i.ty "alloca result"
  | Load p -> (
      match vty p with
      | Ty.Ptr pointee -> expect pointee i.ty "load result"
      | t -> err "load through non-pointer %s" (Ty.to_string t))
  | Store (x, p) -> (
      match vty p with
      | Ty.Ptr pointee -> expect pointee (vty x) "store value"
      | t -> err "store through non-pointer %s" (Ty.to_string t))
  | Gep (base, idxs) -> (
      List.iter
        (fun idx ->
          if not (Ty.is_integer (vty idx)) then err "gep index must be integer")
        idxs;
      try expect (Builder.gep_result_ty ctx (vty base) idxs) i.ty "gep result"
      with Invalid_argument msg -> err "%s" msg)
  | Cast (op, x, t) -> (
      expect t i.ty "cast result";
      let src = vty x in
      match op with
      | Bitcast ->
          if not ((Ty.is_pointer src && Ty.is_pointer t)
                 || (Ty.is_integer src && Ty.is_integer t))
          then err "bitcast %s to %s" (Ty.to_string src) (Ty.to_string t)
      | Inttoptr ->
          if not (Ty.is_integer src && Ty.is_pointer t) then
            err "inttoptr %s to %s" (Ty.to_string src) (Ty.to_string t)
      | Ptrtoint ->
          if not (Ty.is_pointer src && Ty.is_integer t) then
            err "ptrtoint %s to %s" (Ty.to_string src) (Ty.to_string t)
      | Trunc | Zext | Sext ->
          if not (Ty.is_integer src && Ty.is_integer t) then
            err "int cast %s to %s" (Ty.to_string src) (Ty.to_string t)
      | Fptosi ->
          if not (Ty.is_float src && Ty.is_integer t) then err "fptosi misuse"
      | Sitofp ->
          if not (Ty.is_integer src && Ty.is_float t) then err "sitofp misuse")
  | Select (c, a, b) ->
      expect Ty.i1 (vty c) "select condition";
      expect (vty a) (vty b) "select arms";
      expect (vty a) i.ty "select result"
  | Call (callee, args) -> (
      match vty callee with
      | Ty.Ptr (Ty.Func (ret, params, varargs)) ->
          expect ret i.ty "call result";
          let nargs = List.length args and nparams = List.length params in
          if nargs < nparams || ((not varargs) && nargs > nparams) then
            err "call arity: %d args for %d params" nargs nparams
          else
            List.iteri
              (fun k p ->
                match List.nth_opt args k with
                | Some a -> expect p (vty a) (Printf.sprintf "call arg %d" k)
                | None -> ())
              params;
          (* Direct calls must reference a known symbol. *)
          (match callee with
          | Value.Fn (name, _) ->
              if not (Hashtbl.mem syms.fns name) then err "call of unknown @%s" name
          | _ -> ())
      | t -> err "call through non-function %s" (Ty.to_string t))
  | Phi incoming ->
      if incoming = [] then err "empty phi";
      List.iter
        (fun (_, x) -> expect i.ty (vty x) "phi incoming value")
        incoming
  | Malloc (t, n) ->
      if not (Ty.is_integer (vty n)) then err "malloc count must be integer";
      expect (Ty.Ptr t) i.ty "malloc result"
  | Free p -> if not (Ty.is_pointer (vty p)) then err "free of non-pointer"
  | Atomic_cas (p, e, r) -> (
      match vty p with
      | Ty.Ptr pointee ->
          expect pointee (vty e) "cas expected";
          expect pointee (vty r) "cas replacement";
          expect pointee i.ty "cas result"
      | t -> err "cas through non-pointer %s" (Ty.to_string t))
  | Atomic_add (p, d) -> (
      match vty p with
      | Ty.Ptr pointee ->
          expect pointee (vty d) "atomicadd delta";
          expect pointee i.ty "atomicadd result"
      | t -> err "atomicadd through non-pointer %s" (Ty.to_string t))
  | Membar -> ()
  | Intrinsic (_, _) -> ());
  !errs

(* Per-register ints: an array for the ids below [f_next_reg] (every id
   of a well-formed function), a table for any other id a decoded module
   names. *)
type regs = { dense : int array; sparse : (int, int) Hashtbl.t; absent : int }

let regs (f : Func.t) absent =
  let n = max 0 (min f.Func.f_next_reg 65536) in
  { dense = Array.make n absent; sparse = Hashtbl.create 1; absent }

let get r id =
  if id >= 0 && id < Array.length r.dense then r.dense.(id)
  else Option.value (Hashtbl.find_opt r.sparse id) ~default:r.absent

let set r id v =
  if id >= 0 && id < Array.length r.dense then r.dense.(id) <- v
  else Hashtbl.replace r.sparse id v

(* A register's definition: the CFG node of its block, or one of these. *)
let undefined = -2
let param = -1
let term_use = { Instr.id = -1; nm = ""; ty = Ty.Void; kind = Instr.Membar }

let verify_func ctx syms (f : Func.t) : error list =
  let errors = ref [] in
  let add block msg =
    errors := { ve_func = f.Func.f_name; ve_block = block; ve_msg = msg } :: !errors
  in
  if f.Func.f_blocks = [] then begin
    add "" "function has no blocks";
    List.rev !errors
  end
  else begin
    let cfg = Cfg.build f in
    let has_block label =
      match Cfg.find_block cfg label with
      | _ -> true
      | exception Not_found -> false
    in
    List.iter
      (fun (b : Func.block) ->
        if Cfg.find_block cfg b.Func.label != b then
          add b.Func.label "duplicate block label")
      f.Func.f_blocks;
    let defs = regs f undefined in
    List.iteri (fun idx _ -> set defs idx param) f.Func.f_params;
    List.iter
      (fun (b : Func.block) ->
        let node = Cfg.index cfg b.Func.label in
        List.iter
          (fun (i : Instr.t) ->
            match i.Instr.ty with
            | Ty.Void -> ()
            | _ ->
                if get defs i.Instr.id <> undefined then
                  add b.Func.label
                    (Printf.sprintf "register %%r%d defined twice (SSA violation)"
                       i.Instr.id)
                else set defs i.Instr.id node)
          b.Func.insns)
      f.Func.f_blocks;
    (* [local] holds, per register, the position in [f_blocks] of the last
       block that defined it so far. *)
    let local = regs f (-1) in
    (* Per-block: instruction typing, phi placement, use-before-def. *)
    List.iteri
      (fun k (b : Func.block) ->
        let label = b.Func.label in
        let node = Cfg.index cfg label in
        let seen_nonphi = ref false in
        let check_use (i : Instr.t) (v : Value.t) =
          match v with
          | Value.Reg (id, _, _) ->
              let d = get defs id in
              if d = undefined then
                add label (Printf.sprintf "use of undefined register %%r%d" id)
              else if d = param || Instr.is_phi i then
                () (* a phi's incoming values are checked against their edges *)
              else if d = node then begin
                if get local id <> k then
                  add label
                    (Printf.sprintf "register %%r%d used before its definition" id)
              end
              else if
                Cfg.reachable_at cfg node
                && Cfg.reachable_at cfg d
                && not (Cfg.dominates_at cfg d node)
              then
                add label
                  (Printf.sprintf "use of %%r%d not dominated by its definition" id)
          | Value.Global (name, _) ->
              if not (Hashtbl.mem syms.globals name) then
                add label ("reference to unknown global @" ^ name)
          | Value.Fn (name, _) ->
              if not (Hashtbl.mem syms.fns name) then
                add label ("reference to unknown function @" ^ name)
          | Value.Imm _ | Value.Fimm _ | Value.Null _ | Value.Undef _ -> ()
        in
        List.iter
          (fun (i : Instr.t) ->
            if Instr.is_phi i then begin
              if !seen_nonphi then add label "phi after non-phi instruction";
              (match i.kind with
              | Instr.Phi incoming ->
                  let preds = Cfg.predecessors cfg label in
                  List.iter
                    (fun (l, _) ->
                      if not (List.mem l preds) then
                        add label
                          (Printf.sprintf "phi incoming from non-predecessor %%%s" l))
                    incoming;
                  List.iter
                    (fun p ->
                      if not (List.mem_assoc p incoming) then
                        add label
                          (Printf.sprintf "phi missing incoming for predecessor %%%s" p))
                    preds;
                  (* An incoming value must be available at the end of its
                     edge's source. *)
                  List.iter
                    (fun (l, v) ->
                      match v with
                      | Value.Reg (id, _, _) when List.mem l preds ->
                          let d = get defs id and p = Cfg.index cfg l in
                          if
                            d >= 0
                            && Cfg.reachable_at cfg p
                            && Cfg.reachable_at cfg d
                            && not (Cfg.dominates_at cfg d p)
                          then
                            add label
                              (Printf.sprintf
                                 "phi use of %%r%d from %%%s not dominated by its \
                                  definition"
                                 id l)
                      | _ -> ())
                    incoming
              | _ -> ())
            end
            else seen_nonphi := true;
            List.iter (check_use i) (Instr.operands i.kind);
            List.iter (fun msg -> add label msg) (check_instr ctx syms i);
            match i.Instr.ty with Ty.Void -> () | _ -> set local i.Instr.id k)
          b.Func.insns;
        List.iter (check_use term_use) (Instr.term_operands b.Func.term);
        (match b.Func.term with
        | Instr.Ret None ->
            if not (Ty.equal f.Func.f_ret Ty.Void) then
              add label "ret void from non-void function"
        | Instr.Ret (Some x) ->
            if not (Ty.equal f.Func.f_ret (Value.ty x)) then
              add label
                (Printf.sprintf "ret %s from %s function"
                   (Ty.to_string (Value.ty x))
                   (Ty.to_string f.Func.f_ret))
        | Instr.Br (c, _, _) ->
            if not (Ty.equal (Value.ty c) Ty.i1) then
              add label "br condition is not i1"
        | Instr.Jmp _ | Instr.Switch _ | Instr.Unreachable -> ());
        List.iter
          (fun target ->
            if not (has_block target) then
              add label ("branch to unknown label %" ^ target))
          (Instr.successors b.Func.term))
      f.Func.f_blocks;
    List.rev !errors
  end

let verify_module (m : Irmod.t) : error list =
  let dup_errs = ref [] in
  let seen = Hashtbl.create 64 in
  let check_symbol kind name =
    if Hashtbl.mem seen name then
      dup_errs :=
        { ve_func = name; ve_block = ""; ve_msg = "duplicate " ^ kind ^ " symbol" }
        :: !dup_errs
    else Hashtbl.replace seen name ()
  in
  List.iter (fun (g : Irmod.global) -> check_symbol "global" g.g_name) m.m_globals;
  List.iter (fun (f : Func.t) -> check_symbol "function" f.Func.f_name) m.m_funcs;
  let syms = { globals = Hashtbl.create 64; fns = Hashtbl.create 64 } in
  let defined = Hashtbl.create 64 in
  List.iter (fun (g : Irmod.global) -> Hashtbl.replace syms.globals g.g_name ()) m.m_globals;
  List.iter
    (fun (f : Func.t) ->
      if not (Hashtbl.mem defined f.Func.f_name) then begin
        Hashtbl.add defined f.Func.f_name f;
        Hashtbl.replace syms.fns f.Func.f_name ()
      end)
    m.m_funcs;
  List.iter (fun (name, _) -> Hashtbl.replace syms.fns name ()) m.m_externs;
  List.iter
    (fun (name, ty) ->
      match Hashtbl.find_opt defined name with
      | Some f when not (Ty.equal (Func.func_ty f) ty) ->
          dup_errs :=
            { ve_func = name; ve_block = ""; ve_msg = "extern type mismatch" }
            :: !dup_errs
      | _ -> ())
    m.m_externs;
  List.rev !dup_errs
  @ List.concat_map (fun f -> verify_func m.m_ctx syms f) m.m_funcs

let check m =
  match verify_module m with
  | [] -> ()
  | errs ->
      failwith
        ("IR verification failed:\n"
        ^ String.concat "\n" (List.map string_of_error errs))

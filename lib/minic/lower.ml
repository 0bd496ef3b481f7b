open Sva_ir

exception Lower_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

(* ---------- type conversion ---------- *)

let rec conv_ty (t : Ast.mty) : Ty.t =
  match t with
  | Ast.Mvoid -> Ty.Void
  | Ast.Mint (w, _) -> Ty.Int w
  | Ast.Mptr Ast.Mvoid -> Ty.Ptr Ty.i8 (* void* is a byte pointer *)
  | Ast.Mptr t -> Ty.Ptr (conv_ty t)
  | Ast.Marr (e, n) -> Ty.Array (conv_ty e, n)
  | Ast.Mstruct s -> Ty.Struct s
  | Ast.Mfunptr (r, ps) -> Ty.Ptr (Ty.Func (conv_ty r, List.map conv_ty ps, false))

let is_mint = function Ast.Mint _ -> true | _ -> false
let is_mptr = function Ast.Mptr _ | Ast.Mfunptr _ -> true | _ -> false

let int_width = function
  | Ast.Mint (w, _) -> w
  | _ -> fail "expected integer type"

let is_signed = function Ast.Mint (_, s) -> s | _ -> true

(* Usual arithmetic conversions, simplified: promote to at least int;
   common width is the max; unsigned wins at equal width. *)
let arith_common a b =
  match (a, b) with
  | Ast.Mint (wa, sa), Ast.Mint (wb, sb) ->
      let w = max 32 (max wa wb) in
      let s =
        if wa = wb then sa && sb
        else if wa > wb then sa
        else sb
      in
      Ast.Mint (w, s)
  | _ -> fail "arith_common: not integers"

type fsig = { fs_ret : Ast.mty; fs_params : Ast.mty list; fs_varargs : bool }

type env = {
  m : Irmod.t;
  structs : (string, (Ast.mty * string) list) Hashtbl.t;
  globals : (string, Ast.mty) Hashtbl.t;
  funcs : (string, fsig) Hashtbl.t;
  mutable str_count : int;
}

type fenv = {
  env : env;
  bld : Builder.t;
  fsig : fsig;
  mutable scopes : (string * (Value.t * Ast.mty)) list list;
  mutable loops : (string * string) list;  (* (continue target, break target) *)
  mutable blk_count : int;
}

let fresh_label fe prefix =
  fe.blk_count <- fe.blk_count + 1;
  Printf.sprintf "%s.%d" prefix fe.blk_count

let push_scope fe = fe.scopes <- [] :: fe.scopes

let pop_scope fe =
  match fe.scopes with
  | _ :: rest -> fe.scopes <- rest
  | [] -> fail "scope underflow"

let bind fe name slot ty =
  match fe.scopes with
  | scope :: rest -> fe.scopes <- ((name, (slot, ty)) :: scope) :: rest
  | [] -> fail "no scope"

let lookup_local fe name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match List.assoc_opt name scope with
        | Some x -> Some x
        | None -> go rest)
  in
  go fe.scopes

let field_ty env sname fname =
  match Hashtbl.find_opt env.structs sname with
  | None -> fail "unknown struct %s" sname
  | Some fields -> (
      match List.find_opt (fun (_, n) -> n = fname) fields with
      | Some (ty, _) -> ty
      | None -> fail "struct %s has no field %s" sname fname)

(* ---------- value coercion ---------- *)

let imm_of w n = Value.Imm (Ty.Int w, n)

(* Coerce a value of MiniC type [from_t] to MiniC type [to_t]. *)
let coerce fe (v, from_t) to_t =
  let b = fe.bld in
  if from_t = to_t then v
  else
    match (from_t, to_t) with
    | Ast.Mint (wf, sf), Ast.Mint (wt, _) ->
        if wf = wt then v
        else if wf > wt then Builder.b_cast b Instr.Trunc v (Ty.Int wt)
        else if sf then Builder.b_cast b Instr.Sext v (Ty.Int wt)
        else Builder.b_cast b Instr.Zext v (Ty.Int wt)
    | Ast.Mint (wf, sf), (Ast.Mptr _ | Ast.Mfunptr _) -> (
        match v with
        | Value.Imm (_, 0L) -> Value.Null (conv_ty to_t)
        | _ ->
            let v =
              if wf = 64 then v
              else if sf then Builder.b_cast b Instr.Sext v Ty.i64
              else Builder.b_cast b Instr.Zext v Ty.i64
            in
            Builder.b_cast b Instr.Inttoptr v (conv_ty to_t))
    | (Ast.Mptr _ | Ast.Mfunptr _), Ast.Mint (wt, _) ->
        let v = Builder.b_cast b Instr.Ptrtoint v Ty.i64 in
        if wt = 64 then v else Builder.b_cast b Instr.Trunc v (Ty.Int wt)
    | (Ast.Mptr _ | Ast.Mfunptr _), (Ast.Mptr _ | Ast.Mfunptr _) ->
        if Ty.equal (Value.ty v) (conv_ty to_t) then v
        else Builder.b_cast b Instr.Bitcast v (conv_ty to_t)
    | Ast.Marr (e, _), Ast.Mptr e' when e = e' -> v (* decayed already *)
    | _, Ast.Mvoid -> v
    | _ ->
        fail "cannot convert %s" (Ty.to_string (Value.ty v))

(* Truth value (i1) of a scalar. *)
let truth fe (v, t) =
  let b = fe.bld in
  match t with
  | Ast.Mint (w, _) -> Builder.b_icmp b Instr.Ne v (imm_of w 0L)
  | Ast.Mptr _ | Ast.Mfunptr _ ->
      Builder.b_icmp b Instr.Ne v (Value.Null (Value.ty v))
  | _ -> fail "condition is not a scalar"

(* An i1 widened back to int. *)
let bool_to_int fe v = Builder.b_cast fe.bld Instr.Zext v Ty.i32

let cint = Ast.Mint (32, true)
let clong = Ast.Mint (64, true)
let culong = Ast.Mint (64, false)

(* ---------- static expression typing (for sizeof(expr)) ---------- *)

let rec static_ty fe (e : Ast.expr) : Ast.mty =
  match e with
  | Ast.Eint _ -> cint
  | Ast.Estr _ -> Ast.Mptr (Ast.Mint (8, true))
  | Ast.Eid name -> (
      match lookup_local fe name with
      | Some (_, t) -> t
      | None -> (
          match Hashtbl.find_opt fe.env.globals name with
          | Some t -> t
          | None -> (
              match Hashtbl.find_opt fe.env.funcs name with
              | Some fs -> Ast.Mfunptr (fs.fs_ret, fs.fs_params)
              | None -> fail "sizeof: unknown identifier %s" name)))
  | Ast.Ederef e -> (
      match static_ty fe e with
      | Ast.Mptr t -> t
      | _ -> fail "sizeof: deref of non-pointer")
  | Ast.Eindex (e, _) -> (
      match static_ty fe e with
      | Ast.Mptr t | Ast.Marr (t, _) -> t
      | _ -> fail "sizeof: index of non-array")
  | Ast.Efield (e, f) -> (
      match static_ty fe e with
      | Ast.Mstruct s -> field_ty fe.env s f
      | _ -> fail "sizeof: field of non-struct")
  | Ast.Earrow (e, f) -> (
      match static_ty fe e with
      | Ast.Mptr (Ast.Mstruct s) -> field_ty fe.env s f
      | _ -> fail "sizeof: arrow of non-struct-pointer")
  | Ast.Ecast (t, _) -> t
  | Ast.Eaddr e -> Ast.Mptr (static_ty fe e)
  | Ast.Eun ((Ast.Uneg | Ast.Ubnot), e) -> static_ty fe e
  | Ast.Eun (Ast.Unot, _) -> cint
  | Ast.Ebin ((Ast.Beq | Ast.Bne | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge
              | Ast.Bland | Ast.Blor), _, _) ->
      cint
  | Ast.Ebin ((Ast.Badd | Ast.Bsub), a, b) -> (
      let ta = static_ty fe a in
      if is_mptr ta || (match ta with Ast.Marr _ -> true | _ -> false) then
        match ta with Ast.Marr (e, _) -> Ast.Mptr e | t -> t
      else
        let tb = static_ty fe b in
        if is_mptr tb then tb else arith_common ta tb)
  | Ast.Ebin (_, a, b) -> arith_common (static_ty fe a) (static_ty fe b)
  | Ast.Esizeof_ty _ | Ast.Esizeof_expr _ -> culong
  | Ast.Econd (_, a, _) -> static_ty fe a
  | Ast.Eassign (lhs, _) | Ast.Eassign_op (_, lhs, _) -> static_ty fe lhs
  | Ast.Epreincr (_, e) | Ast.Epostincr (_, e) -> static_ty fe e
  | Ast.Ecall (name, _) -> (
      match Hashtbl.find_opt fe.env.funcs name with
      | Some fs -> fs.fs_ret
      | None -> fail "static_ty: unknown function %s" name)
  | Ast.Ecallptr (callee, _) -> (
      match static_ty fe callee with
      | Ast.Mfunptr (r, _) -> r
      | _ -> fail "static_ty: indirect call of non-function-pointer")

let sizeof_mty env t = Ty.sizeof env.m.Irmod.m_ctx (conv_ty t)

(* ---------- expressions ---------- *)

let rec lvalue fe (e : Ast.expr) : Value.t * Ast.mty =
  let b = fe.bld in
  match e with
  | Ast.Eid name -> (
      match lookup_local fe name with
      | Some (slot, t) -> (slot, t)
      | None -> (
          match Hashtbl.find_opt fe.env.globals name with
          | Some t -> (Value.Global (name, conv_ty t), t)
          | None -> fail "unknown identifier %s" name))
  | Ast.Ederef e ->
      let v, t = rvalue fe e in
      (match t with
      | Ast.Mptr inner -> (v, inner)
      | _ -> fail "dereference of non-pointer")
  | Ast.Eindex (arr, idx) -> (
      let iv, it = rvalue fe idx in
      if not (is_mint it) then fail "array index is not an integer";
      let iv64 = coerce fe (iv, it) clong in
      match addr_or_value fe arr with
      | `Addr (addr, Ast.Marr (elem, _)) ->
          (Builder.b_gep b addr [ Value.imm 0; iv64 ], elem)
      | `Addr (addr, Ast.Mptr elem) ->
          let p = Builder.b_load b addr in
          (Builder.b_gep b p [ iv64 ], elem)
      | `Val (v, Ast.Mptr elem) -> (Builder.b_gep b v [ iv64 ], elem)
      | _ -> fail "indexing a non-array")
  | Ast.Efield (se, fname) -> (
      let addr, t = lvalue fe se in
      match t with
      | Ast.Mstruct sname ->
          let fty = field_ty fe.env sname fname in
          let idx = Ty.field_index fe.env.m.Irmod.m_ctx sname fname in
          (Builder.b_gep b addr [ Value.imm 0; Value.imm idx ], fty)
      | _ -> fail "field access on non-struct")
  | Ast.Earrow (pe, fname) -> (
      let v, t = rvalue fe pe in
      match t with
      | Ast.Mptr (Ast.Mstruct sname) ->
          let fty = field_ty fe.env sname fname in
          let idx = Ty.field_index fe.env.m.Irmod.m_ctx sname fname in
          (Builder.b_gep b v [ Value.imm 0; Value.imm idx ], fty)
      | _ -> fail "-> on non-struct-pointer")
  | Ast.Ecast (t, e) ->
      (* (T* )lv as lvalue: reinterpret the address. *)
      let addr, _ = lvalue fe e in
      (Builder.b_cast b Instr.Bitcast addr (Ty.Ptr (conv_ty t)), t)
  | _ -> fail "expression is not an lvalue"

(* For Eindex bases: arrays must be addressed, pointers may be values. *)
and addr_or_value fe (e : Ast.expr) =
  match e with
  | Ast.Eid name -> (
      match lookup_local fe name with
      | Some (slot, (Ast.Marr _ as t)) -> `Addr (slot, t)
      | Some (slot, t) -> `Addr (slot, t)
      | None -> (
          match Hashtbl.find_opt fe.env.globals name with
          | Some t -> `Addr (Value.Global (name, conv_ty t), t)
          | None -> fail "unknown identifier %s" name))
  | Ast.Efield _ | Ast.Earrow _ | Ast.Ederef _ | Ast.Eindex _ -> (
      let addr, t = lvalue fe e in
      match t with Ast.Marr _ -> `Addr (addr, t) | _ -> `Addr (addr, t))
  | _ ->
      let v, t = rvalue fe e in
      `Val (v, t)

and load_lvalue fe (addr, t) =
  let b = fe.bld in
  match t with
  | Ast.Marr (elem, _) ->
      (* Array decay: the value of an array is a pointer to its head. *)
      (Builder.b_gep b addr [ Value.imm 0; Value.imm ~width:64 0 ], Ast.Mptr elem)
  | Ast.Mstruct _ -> fail "struct values cannot be loaded wholesale; use fields"
  | _ -> (Builder.b_load b addr, t)

and rvalue fe (e : Ast.expr) : Value.t * Ast.mty =
  let b = fe.bld in
  match e with
  | Ast.Eint n ->
      (* [Int64.abs min_int] is negative: 2^63 needs a long too *)
      let t =
        if n = Int64.min_int || Int64.abs n > 0x7fffffffL then clong else cint
      in
      ((match t with Ast.Mint (w, _) -> imm_of w n | _ -> assert false), t)
  | Ast.Estr s ->
      let name = Printf.sprintf ".str.%d" fe.env.str_count in
      fe.env.str_count <- fe.env.str_count + 1;
      let data = s ^ "\000" in
      Irmod.add_global fe.env.m
        {
          Irmod.g_name = name;
          g_ty = Ty.Array (Ty.i8, String.length data);
          g_init = Irmod.Str data;
          g_const = true;
        };
      let base = Value.Global (name, Ty.Array (Ty.i8, String.length data)) in
      ( Builder.b_gep b base [ Value.imm 0; Value.imm ~width:64 0 ],
        Ast.Mptr (Ast.Mint (8, true)) )
  | Ast.Eid name -> (
      match lookup_local fe name with
      | Some (slot, t) -> load_lvalue fe (slot, t)
      | None -> (
          match Hashtbl.find_opt fe.env.globals name with
          | Some t -> load_lvalue fe (Value.Global (name, conv_ty t), t)
          | None -> (
              (* A bare function name is a function pointer. *)
              match Hashtbl.find_opt fe.env.funcs name with
              | Some fs ->
                  let fty =
                    Ty.Func (conv_ty fs.fs_ret, List.map conv_ty fs.fs_params, fs.fs_varargs)
                  in
                  (Value.Fn (name, fty), Ast.Mfunptr (fs.fs_ret, fs.fs_params))
              | None -> fail "unknown identifier %s" name)))
  | Ast.Ederef _ | Ast.Eindex _ | Ast.Efield _ | Ast.Earrow _ ->
      load_lvalue fe (lvalue fe e)
  | Ast.Eaddr inner ->
      let addr, t = lvalue fe inner in
      (addr, Ast.Mptr t)
  | Ast.Eun (op, e) -> (
      let v, t = rvalue fe e in
      match op with
      | Ast.Uneg ->
          if not (is_mint t) then fail "unary - on non-integer";
          let w = int_width t in
          (Builder.b_binop b Instr.Sub (imm_of w 0L) v, t)
      | Ast.Ubnot ->
          if not (is_mint t) then fail "~ on non-integer";
          let w = int_width t in
          (Builder.b_binop b Instr.Xor v (imm_of w (-1L)), t)
      | Ast.Unot ->
          let c = truth fe (v, t) in
          let inv = Builder.b_icmp b Instr.Eq c (Value.i1 false) in
          (bool_to_int fe inv, cint))
  | Ast.Ebin (Ast.Bland, _, _) | Ast.Ebin (Ast.Blor, _, _) ->
      lower_shortcircuit fe e
  | Ast.Ebin (op, a, bb) -> lower_binop fe op a bb
  | Ast.Eassign (lhs, rhs) ->
      let addr, lt = lvalue fe lhs in
      let rv, rt = rvalue fe rhs in
      let v = coerce fe (rv, rt) lt in
      Builder.b_store b v addr;
      (v, lt)
  | Ast.Eassign_op (op, lhs, rhs) ->
      let addr, lt = lvalue fe lhs in
      let cur = Builder.b_load b addr in
      let v, vt = lower_binop_values fe op (cur, lt) (rvalue fe rhs) in
      let v = coerce fe (v, vt) lt in
      Builder.b_store b v addr;
      (v, lt)
  | Ast.Epreincr (delta, lhs) ->
      let addr, lt = lvalue fe lhs in
      let cur = Builder.b_load b addr in
      let v, vt = lower_binop_values fe Ast.Badd (cur, lt) (Value.imm delta, cint) in
      let v = coerce fe (v, vt) lt in
      Builder.b_store b v addr;
      (v, lt)
  | Ast.Epostincr (delta, lhs) ->
      let addr, lt = lvalue fe lhs in
      let cur = Builder.b_load b addr in
      let v, vt = lower_binop_values fe Ast.Badd (cur, lt) (Value.imm delta, cint) in
      let v = coerce fe (v, vt) lt in
      Builder.b_store b v addr;
      (cur, lt)
  | Ast.Ecast (t, e) ->
      let v, vt = rvalue fe e in
      (coerce fe (v, vt) t, t)
  | Ast.Esizeof_ty t -> (imm_of 64 (Int64.of_int (sizeof_mty fe.env t)), culong)
  | Ast.Esizeof_expr e ->
      let t = static_ty fe e in
      (imm_of 64 (Int64.of_int (sizeof_mty fe.env t)), culong)
  | Ast.Econd (c, a, bb) -> lower_ternary fe c a bb
  | Ast.Ecall (name, args) -> (
      match lower_call fe name args with
      | Some r -> r
      | None -> fail "void value of call to %s used" name)
  | Ast.Ecallptr (callee, args) -> (
      match lower_callptr fe callee args with
      | Some r -> r
      | None -> fail "void value of indirect call used")

and lower_binop fe op a b = lower_binop_values fe op (rvalue fe a) (rvalue fe b)

and lower_binop_values fe op (va, ta) (vb, tb) =
  let b = fe.bld in
  let cmp pred_s pred_u =
    (* Comparisons. *)
    match (ta, tb) with
    | t1, t2 when is_mint t1 && is_mint t2 ->
        let ct = arith_common t1 t2 in
        let xa = coerce fe (va, ta) ct and xb = coerce fe (vb, tb) ct in
        let pred = if is_signed ct then pred_s else pred_u in
        let c = Builder.b_icmp b pred xa xb in
        (bool_to_int fe c, cint)
    | t1, t2 when is_mptr t1 && is_mptr t2 ->
        let xb = coerce fe (vb, tb) ta in
        let c = Builder.b_icmp b pred_u va xb in
        (bool_to_int fe c, cint)
    | t1, t2 when is_mptr t1 && is_mint t2 ->
        let xb = coerce fe (vb, tb) ta in
        let c = Builder.b_icmp b pred_u va xb in
        (bool_to_int fe c, cint)
    | t1, t2 when is_mint t1 && is_mptr t2 ->
        let xa = coerce fe (va, ta) tb in
        let c = Builder.b_icmp b pred_u xa vb in
        (bool_to_int fe c, cint)
    | _ -> fail "invalid comparison operands"
  in
  match op with
  | Ast.Beq -> cmp Instr.Eq Instr.Eq
  | Ast.Bne -> cmp Instr.Ne Instr.Ne
  | Ast.Blt -> cmp Instr.Slt Instr.Ult
  | Ast.Ble -> cmp Instr.Sle Instr.Ule
  | Ast.Bgt -> cmp Instr.Sgt Instr.Ugt
  | Ast.Bge -> cmp Instr.Sge Instr.Uge
  | Ast.Bland | Ast.Blor -> fail "short-circuit handled elsewhere"
  | Ast.Badd | Ast.Bsub
    when is_mptr ta && is_mint tb -> (
      (* Pointer arithmetic through getelementptr. *)
      match ta with
      | Ast.Mptr _ ->
          let idx = coerce fe ((vb : Value.t), tb) clong in
          let idx =
            if op = Ast.Bsub then
              Builder.b_binop b Instr.Sub (imm_of 64 0L) idx
            else idx
          in
          (Builder.b_gep b va [ idx ], ta)
      | _ -> fail "pointer arithmetic on function pointer")
  | Ast.Badd when is_mint ta && is_mptr tb ->
      let idx = coerce fe (va, ta) clong in
      (Builder.b_gep b vb [ idx ], tb)
  | Ast.Bsub when is_mptr ta && is_mptr tb -> (
      (* Pointer difference in elements. *)
      match ta with
      | Ast.Mptr elem ->
          let ia = Builder.b_cast b Instr.Ptrtoint va Ty.i64 in
          let ib = Builder.b_cast b Instr.Ptrtoint vb Ty.i64 in
          let d = Builder.b_binop b Instr.Sub ia ib in
          let sz = sizeof_mty fe.env elem in
          ( Builder.b_binop b Instr.Sdiv d (imm_of 64 (Int64.of_int sz)),
            clong )
      | _ -> fail "pointer difference on function pointers")
  | _ ->
      if not (is_mint ta && is_mint tb) then fail "arithmetic on non-integers";
      let ct = arith_common ta tb in
      let xa = coerce fe (va, ta) ct and xb = coerce fe (vb, tb) ct in
      let signed = is_signed ct in
      let instr_op =
        match op with
        | Ast.Badd -> Instr.Add
        | Ast.Bsub -> Instr.Sub
        | Ast.Bmul -> Instr.Mul
        | Ast.Bdiv -> if signed then Instr.Sdiv else Instr.Udiv
        | Ast.Bmod -> if signed then Instr.Srem else Instr.Urem
        | Ast.Band -> Instr.And
        | Ast.Bor -> Instr.Or
        | Ast.Bxor -> Instr.Xor
        | Ast.Bshl -> Instr.Shl
        | Ast.Bshr -> if signed then Instr.Ashr else Instr.Lshr
        | _ -> assert false
      in
      (Builder.b_binop b instr_op xa xb, ct)

and lower_shortcircuit fe e =
  (* a && b / a || b with control flow; result materialized via a slot so
     that mem2reg later builds the phi. *)
  let b = fe.bld in
  let slot = Builder.b_alloca b ~name:"sc" Ty.i32 in
  let rhs_l = fresh_label fe "sc.rhs"
  and done_l = fresh_label fe "sc.done" in
  (match e with
  | Ast.Ebin (Ast.Bland, x, y) ->
      let cx = truth fe (rvalue fe x) in
      Builder.b_store b (Value.imm 0) slot;
      Builder.b_br b cx rhs_l done_l;
      ignore (Builder.start_block b rhs_l);
      let cy = truth fe (rvalue fe y) in
      Builder.b_store b (bool_to_int fe cy) slot;
      Builder.b_jmp b done_l
  | Ast.Ebin (Ast.Blor, x, y) ->
      let cx = truth fe (rvalue fe x) in
      Builder.b_store b (Value.imm 1) slot;
      Builder.b_br b cx done_l rhs_l;
      ignore (Builder.start_block b rhs_l);
      let cy = truth fe (rvalue fe y) in
      Builder.b_store b (bool_to_int fe cy) slot;
      Builder.b_jmp b done_l
  | _ -> assert false);
  ignore (Builder.start_block b done_l);
  (Builder.b_load b slot, cint)

and lower_ternary fe c a bb =
  let b = fe.bld in
  (* Result type from static typing (arrays decay); the slot is allocated
     before the branch so it dominates both arms. *)
  let ta =
    match static_ty fe a with Ast.Marr (e, _) -> Ast.Mptr e | t -> t
  in
  let slot = Builder.b_alloca b ~name:"sel" (conv_ty ta) in
  let cv = truth fe (rvalue fe c) in
  let then_l = fresh_label fe "sel.then"
  and else_l = fresh_label fe "sel.else"
  and done_l = fresh_label fe "sel.done" in
  Builder.b_br b cv then_l else_l;
  ignore (Builder.start_block b then_l);
  let va, ta' = rvalue fe a in
  Builder.b_store b (coerce fe (va, ta') ta) slot;
  Builder.b_jmp b done_l;
  ignore (Builder.start_block b else_l);
  let vb, tb = rvalue fe bb in
  Builder.b_store b (coerce fe (vb, tb) ta) slot;
  Builder.b_jmp b done_l;
  ignore (Builder.start_block b done_l);
  (Builder.b_load b slot, ta)

and lower_args fe fs name args =
  let nparams = List.length fs.fs_params in
  if
    List.length args < nparams
    || ((not fs.fs_varargs) && List.length args > nparams)
  then fail "call to %s: wrong arity" name;
  List.mapi
    (fun i arg ->
      let v, t = rvalue fe arg in
      match List.nth_opt fs.fs_params i with
      | Some pt -> coerce fe (v, t) pt
      | None ->
          (* vararg tail: pass integers widened to 64 bits *)
          if is_mint t then coerce fe (v, t) clong else v)
    args

and is_intrinsic_name name =
  let pfx p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  pfx "llva_" || pfx "sva_" || pfx "pchk_"

and lower_call fe name args : (Value.t * Ast.mty) option =
  let b = fe.bld in
  match (name, args) with
  | "malloc", [ sz ] ->
      (* The explicit heap-allocation instruction of SVA-Core. *)
      let v, t = rvalue fe sz in
      let count = coerce fe (v, t) clong in
      Some (Builder.b_malloc b ~count Ty.i8, Ast.Mptr (Ast.Mint (8, true)))
  | "free", [ p ] ->
      let v, t = rvalue fe p in
      if not (is_mptr t) then fail "free of non-pointer";
      Builder.b_free b v;
      None
  | _ -> (
  match Hashtbl.find_opt fe.env.funcs name with
  | None -> (
      (* A call through a function-pointer variable parses as Ecall. *)
      match lookup_local fe name with
      | Some (_, Ast.Mfunptr _) -> lower_callptr fe (Ast.Eid name) args
      | _ -> (
          match Hashtbl.find_opt fe.env.globals name with
          | Some (Ast.Mfunptr _) -> lower_callptr fe (Ast.Eid name) args
          | _ -> fail "call to undeclared function %s" name))
  | Some fs ->
      let vargs = lower_args fe fs name args in
      let ret_ir = conv_ty fs.fs_ret in
      if is_intrinsic_name name then
        match Builder.b_intrinsic b ret_ir name vargs with
        | Some v -> Some (v, fs.fs_ret)
        | None -> None
      else (
        (* Build the callee from the collected signature rather than the
           module symbol table: the callee's definition may be lowered
           after this call site. *)
        let fty =
          Ty.Func (ret_ir, List.map conv_ty fs.fs_params, fs.fs_varargs)
        in
        match Builder.b_call b (Value.Fn (name, fty)) vargs with
        | Some v -> Some (v, fs.fs_ret)
        | None -> None))

and lower_callptr fe callee args : (Value.t * Ast.mty) option =
  let b = fe.bld in
  let cv, ct = rvalue fe callee in
  match ct with
  | Ast.Mfunptr (ret, params) ->
      let fs = { fs_ret = ret; fs_params = params; fs_varargs = false } in
      let vargs = lower_args fe fs "<indirect>" args in
      (match Builder.b_call b cv vargs with
      | Some v -> Some (v, ret)
      | None -> None)
  | _ -> fail "call through non-function-pointer"

(* ---------- statements ---------- *)

let block_terminated fe =
  match (Builder.current_block fe.bld).Func.term with
  | Instr.Unreachable -> false
  | _ -> true

let rec lower_stmt fe (s : Ast.stmt) =
  let b = fe.bld in
  if block_terminated fe then
    (* Dead code after return/break: park it in an unreachable block, which
       DCE deletes. *)
    ignore (Builder.start_block b (fresh_label fe "dead"));
  match s with
  | Ast.Sexpr e -> ignore_expr fe e
  | Ast.Sdecl (ty, name, init) ->
      let slot = Builder.b_alloca b ~name (conv_ty ty) in
      bind fe name slot ty;
      (match init with
      | Some e ->
          let v, t = rvalue fe e in
          Builder.b_store b (coerce fe (v, t) ty) slot
      | None -> ())
  | Ast.Sif (c, then_s, else_s) ->
      let cv = truth fe (rvalue fe c) in
      let then_l = fresh_label fe "if.then"
      and else_l = fresh_label fe "if.else"
      and done_l = fresh_label fe "if.done" in
      Builder.b_br b cv then_l (if else_s = [] then done_l else else_l);
      ignore (Builder.start_block b then_l);
      lower_block fe then_s;
      if not (block_terminated fe) then Builder.b_jmp b done_l;
      if else_s <> [] then begin
        ignore (Builder.start_block b else_l);
        lower_block fe else_s;
        if not (block_terminated fe) then Builder.b_jmp b done_l
      end;
      ignore (Builder.start_block b done_l)
  | Ast.Swhile (c, body) ->
      let head_l = fresh_label fe "while.head"
      and body_l = fresh_label fe "while.body"
      and done_l = fresh_label fe "while.done" in
      Builder.b_jmp b head_l;
      ignore (Builder.start_block b head_l);
      let cv = truth fe (rvalue fe c) in
      Builder.b_br b cv body_l done_l;
      ignore (Builder.start_block b body_l);
      fe.loops <- (head_l, done_l) :: fe.loops;
      lower_block fe body;
      fe.loops <- List.tl fe.loops;
      if not (block_terminated fe) then Builder.b_jmp b head_l;
      ignore (Builder.start_block b done_l)
  | Ast.Sdo (body, c) ->
      let body_l = fresh_label fe "do.body"
      and cond_l = fresh_label fe "do.cond"
      and done_l = fresh_label fe "do.done" in
      Builder.b_jmp b body_l;
      ignore (Builder.start_block b body_l);
      fe.loops <- (cond_l, done_l) :: fe.loops;
      lower_block fe body;
      fe.loops <- List.tl fe.loops;
      if not (block_terminated fe) then Builder.b_jmp b cond_l;
      ignore (Builder.start_block b cond_l);
      let cv = truth fe (rvalue fe c) in
      Builder.b_br b cv body_l done_l;
      ignore (Builder.start_block b done_l)
  | Ast.Sfor (init, cond, step, body) ->
      push_scope fe;
      (match init with Some s -> lower_stmt fe s | None -> ());
      let head_l = fresh_label fe "for.head"
      and body_l = fresh_label fe "for.body"
      and step_l = fresh_label fe "for.step"
      and done_l = fresh_label fe "for.done" in
      Builder.b_jmp b head_l;
      ignore (Builder.start_block b head_l);
      (match cond with
      | Some c ->
          let cv = truth fe (rvalue fe c) in
          Builder.b_br b cv body_l done_l
      | None -> Builder.b_jmp b body_l);
      ignore (Builder.start_block b body_l);
      fe.loops <- (step_l, done_l) :: fe.loops;
      lower_block fe body;
      fe.loops <- List.tl fe.loops;
      if not (block_terminated fe) then Builder.b_jmp b step_l;
      ignore (Builder.start_block b step_l);
      (match step with Some e -> ignore_expr fe e | None -> ());
      Builder.b_jmp b head_l;
      ignore (Builder.start_block b done_l);
      pop_scope fe
  | Ast.Sreturn None ->
      if fe.fsig.fs_ret <> Ast.Mvoid then fail "return; in non-void function";
      Builder.b_ret b None
  | Ast.Sreturn (Some e) ->
      let v, t = rvalue fe e in
      Builder.b_ret b (Some (coerce fe (v, t) fe.fsig.fs_ret))
  | Ast.Sbreak -> (
      match fe.loops with
      | (_, done_l) :: _ -> Builder.b_jmp b done_l
      | [] -> fail "break outside loop")
  | Ast.Scontinue -> (
      match fe.loops with
      | (cont_l, _) :: _ -> Builder.b_jmp b cont_l
      | [] -> fail "continue outside loop")
  | Ast.Sblock body ->
      push_scope fe;
      lower_block fe body;
      pop_scope fe

and ignore_expr fe e =
  match e with
  | Ast.Ecall (name, args) -> ignore (lower_call fe name args)
  | Ast.Ecallptr (callee, args) -> ignore (lower_callptr fe callee args)
  | _ -> ignore (rvalue fe e)

and lower_block fe stmts = List.iter (lower_stmt fe) stmts

(* ---------- top level ---------- *)

let conv_ginit env (gty : Ast.mty) (gi : Ast.ginit_ast) : Irmod.ginit =
  match (gi, gty) with
  | Ast.Gnone, _ -> Irmod.Zero
  | Ast.Gint n, Ast.Mint (w, _) -> Irmod.Ints (Ty.Int w, [ n ])
  | Ast.Gint 0L, (Ast.Mptr _ | Ast.Mfunptr _) -> Irmod.Zero
  | Ast.Gint _, _ -> fail "integer initializer for non-integer global"
  | Ast.Gstr s, Ast.Marr (Ast.Mint (8, _), n) ->
      let data = s ^ "\000" in
      if String.length data > n then fail "string initializer too long";
      Irmod.Str (data ^ String.make (n - String.length data) '\000')
  | Ast.Gstr _, _ -> fail "string initializer for non-char-array"
  | Ast.Gints ns, Ast.Marr (Ast.Mint (w, _), n) ->
      if List.length ns > n then fail "too many array initializer elements";
      let pad = n - List.length ns in
      Irmod.Ints (Ty.Int w, ns @ List.init pad (fun _ -> 0L))
  | Ast.Gints _, _ -> fail "array initializer for non-int-array"
  | Ast.Gsyms syms, (Ast.Marr _ | Ast.Mptr _ | Ast.Mfunptr _) ->
      ignore env;
      Irmod.Ptrs syms
  | Ast.Gsyms _, _ -> fail "symbol initializer for non-pointer global"

let lower_func env (fn : Ast.func) =
  let attrs =
    List.map
      (function
        | Ast.Anoanalyze -> Func.Noanalyze
        | Ast.Acallsig -> Func.Callsig_assert
        | Ast.Akernel_entry -> Func.Kernel_entry)
      fn.Ast.fn_attrs
  in
  let params = List.map (fun (t, n) -> (n, conv_ty t)) fn.Ast.fn_params in
  let f = Func.create ~attrs fn.Ast.fn_name (conv_ty fn.Ast.fn_ret) params in
  Irmod.add_func env.m f;
  let bld = Builder.create env.m f in
  let fe =
    {
      env;
      bld;
      fsig =
        {
          fs_ret = fn.Ast.fn_ret;
          fs_params = List.map fst fn.Ast.fn_params;
          fs_varargs = false;
        };
      scopes = [ [] ];
      loops = [];
      blk_count = 0;
    }
  in
  ignore (Builder.start_block bld "entry");
  (* Spill parameters into slots so they are ordinary mutable locals. *)
  List.iteri
    (fun i (t, name) ->
      let slot = Builder.b_alloca bld ~name (conv_ty t) in
      Builder.b_store bld (Func.param_value f i) slot;
      bind fe name slot t)
    fn.Ast.fn_params;
  lower_block fe fn.Ast.fn_body;
  (* Hoist every alloca to the head of the entry block (as production C
     front ends do): slot lifetimes span the whole frame, loop bodies do
     not grow the stack, and every slot dominates all of its uses. *)
  (match f.Func.f_blocks with
  | entry_blk :: _ ->
      let allocas = ref [] in
      List.iter
        (fun (blk : Func.block) ->
          let keep, moved =
            List.partition
              (fun (i : Instr.t) ->
                match i.Instr.kind with Instr.Alloca _ -> false | _ -> true)
              blk.Func.insns
          in
          allocas := !allocas @ moved;
          blk.Func.insns <- keep)
        f.Func.f_blocks;
      entry_blk.Func.insns <- !allocas @ entry_blk.Func.insns
  | [] -> ());
  if not (block_terminated fe) then
    if fn.Ast.fn_ret = Ast.Mvoid then Builder.b_ret bld None
    else
      (* Falling off the end of a non-void function returns zero. *)
      Builder.b_ret bld
        (Some
           (match conv_ty fn.Ast.fn_ret with
           | Ty.Int w -> imm_of w 0L
           | t -> Value.Null t))

let compile_program ~name (units : Ast.program list) =
  let m = Irmod.create name in
  let env =
    {
      m;
      structs = Hashtbl.create 32;
      globals = Hashtbl.create 64;
      funcs = Hashtbl.create 64;
      str_count = 0;
    }
  in
  let tops = List.concat units in
  (* Pass 1: structs, globals, signatures. *)
  List.iter
    (function
      | Ast.Tstruct (sname, fields) ->
          Hashtbl.replace env.structs sname fields;
          ignore
            (Ty.define_struct m.Irmod.m_ctx sname
               (List.map (fun (t, n) -> (n, conv_ty t)) fields))
      | Ast.Tglobal { gty; gname; ginit = _; gconst = _ } ->
          Hashtbl.replace env.globals gname gty
      | Ast.Textern { ename; eret; eparams; evarargs } ->
          Hashtbl.replace env.funcs ename
            { fs_ret = eret; fs_params = eparams; fs_varargs = evarargs }
      | Ast.Tfunc fn ->
          Hashtbl.replace env.funcs fn.Ast.fn_name
            {
              fs_ret = fn.Ast.fn_ret;
              fs_params = List.map fst fn.Ast.fn_params;
              fs_varargs = false;
            })
    tops;
  (* Pass 2: global definitions (after structs exist for sizeof). *)
  List.iter
    (function
      | Ast.Tglobal { gty; gname; ginit; gconst } ->
          Irmod.add_global m
            {
              Irmod.g_name = gname;
              g_ty = conv_ty gty;
              g_init = conv_ginit env gty ginit;
              g_const = gconst;
            }
      | Ast.Textern { ename; eret; eparams; evarargs } ->
          Irmod.declare_extern m ename
            (Ty.Func (conv_ty eret, List.map conv_ty eparams, evarargs))
      | Ast.Tstruct _ | Ast.Tfunc _ -> ())
    tops;
  (* Pass 3: function bodies. *)
  List.iter (function Ast.Tfunc fn -> lower_func env fn | _ -> ()) tops;
  Verify.check m;
  m

let compile_strings ~name srcs =
  compile_program ~name (List.map Parser.parse srcs)

let compile_string ~name src = compile_strings ~name [ src ]

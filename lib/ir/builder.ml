type t = {
  bmod : Irmod.t;
  bfunc : Func.t;
  mutable cur : Func.block option;
}

let create m f = { bmod = m; bfunc = f; cur = None }
let irmod b = b.bmod
let func b = b.bfunc

let start_block b label =
  let blk = Func.add_block b.bfunc label in
  b.cur <- Some blk;
  blk

let current_block b =
  match b.cur with
  | Some blk -> blk
  | None -> invalid_arg "Builder: not positioned at a block"

let insert b ?(name = "") ty kind =
  let blk = current_block b in
  let id = Func.fresh_reg b.bfunc in
  let i = { Instr.id; nm = name; ty; kind } in
  blk.Func.insns <- blk.Func.insns @ [ i ];
  Instr.result i

let require v = match v with Some v -> v | None -> invalid_arg "Builder: void result"

let binop_ty op (a : Value.t) =
  match op with
  | Instr.Fadd | Fsub | Fmul | Fdiv -> Ty.Float
  | _ -> Value.ty a

let gep_result_ty ctx base_ty idxs =
  match base_ty with
  | Ty.Ptr pointee ->
      let rec descend ty = function
        | [] -> Ty.Ptr ty
        | idx :: rest -> (
            match ty with
            | Ty.Array (e, _) -> descend e rest
            | Ty.Struct sname -> (
                match idx with
                | Value.Imm (_, n) ->
                    let _, fty = Ty.field_at ctx sname (Int64.to_int n) in
                    descend fty rest
                | _ -> invalid_arg "gep: non-constant struct index")
            | _ -> invalid_arg "gep: indexing into a scalar")
      in
      (* The first index steps over the pointer itself. *)
      (match idxs with
      | [] -> invalid_arg "gep: empty index list"
      | _ :: rest -> descend pointee rest)
  | _ -> invalid_arg "gep: base is not a pointer"

let b_binop b ?name op x y = require (insert b ?name (binop_ty op x) (Binop (op, x, y)))
let b_icmp b ?name op x y = require (insert b ?name Ty.i1 (Icmp (op, x, y)))

let b_alloca b ?name ?(count = Value.imm 1) ty =
  require (insert b ?name (Ty.Ptr ty) (Alloca (ty, count)))

let b_load b ?name ptr =
  require (insert b ?name (Ty.pointee (Value.ty ptr)) (Load ptr))

let b_store b v ptr = ignore (insert b Ty.Void (Store (v, ptr)))

let b_gep b ?name base idxs =
  let ty = gep_result_ty b.bmod.Irmod.m_ctx (Value.ty base) idxs in
  require (insert b ?name ty (Gep (base, idxs)))

let b_struct_gep b ?name base field =
  match Value.ty base with
  | Ty.Ptr (Ty.Struct sname) ->
      let i = Ty.field_index b.bmod.Irmod.m_ctx sname field in
      b_gep b ?name base [ Value.imm 0; Value.imm i ]
  | _ -> invalid_arg "b_struct_gep: base is not a struct pointer"

let b_cast b ?name op v ty = require (insert b ?name ty (Cast (op, v, ty)))

let callee_ret callee =
  match Value.ty callee with
  | Ty.Ptr (Ty.Func (ret, _, _)) -> ret
  | _ -> invalid_arg "b_call: callee is not a function pointer"

let b_call b ?name callee args =
  insert b ?name (callee_ret callee) (Call (callee, args))

let b_call_named b ?name fname args =
  match Irmod.symbol_ty b.bmod fname with
  | Some fty -> b_call b ?name (Value.Fn (fname, fty)) args
  | None -> invalid_arg ("b_call_named: unknown function @" ^ fname)

let b_phi b ?name ty incoming = require (insert b ?name ty (Phi incoming))

let b_malloc b ?name ?(count = Value.imm 1) ty =
  require (insert b ?name (Ty.Ptr ty) (Malloc (ty, count)))

let b_free b ptr = ignore (insert b Ty.Void (Free ptr))

let b_cas b ?name ptr expected repl =
  require (insert b ?name (Value.ty expected) (Atomic_cas (ptr, expected, repl)))

let b_atomic_add b ?name ptr delta =
  require (insert b ?name (Value.ty delta) (Atomic_add (ptr, delta)))

let b_intrinsic b ?name ty iname args = insert b ?name ty (Intrinsic (iname, args))

let set_term b t =
  let blk = current_block b in
  blk.Func.term <- t

let b_ret b v = set_term b (Ret v)
let b_br b c then_l else_l = set_term b (Br (c, then_l, else_l))
let b_jmp b l = set_term b (Jmp l)

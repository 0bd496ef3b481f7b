let string_of_binop : Instr.binop -> string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul"
  | Sdiv -> "sdiv" | Udiv -> "udiv" | Srem -> "srem" | Urem -> "urem"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let string_of_icmp : Instr.icmp -> string = function
  | Eq -> "eq" | Ne -> "ne"
  | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt" | Sge -> "sge"
  | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"

let string_of_cast : Instr.cast -> string = function
  | Bitcast -> "bitcast" | Inttoptr -> "inttoptr" | Ptrtoint -> "ptrtoint"
  | Trunc -> "trunc" | Zext -> "zext" | Sext -> "sext"
  | Fptosi -> "fptosi" | Sitofp -> "sitofp"

let v = Value.to_string

let args_str vs = String.concat ", " (List.map v vs)

let string_of_kind ty (k : Instr.kind) =
  match k with
  | Binop (op, a, b) -> Printf.sprintf "%s %s, %s" (string_of_binop op) (v a) (v b)
  | Icmp (op, a, b) -> Printf.sprintf "icmp %s %s, %s" (string_of_icmp op) (v a) (v b)
  | Alloca (t, n) -> Printf.sprintf "alloca %s, %s" (Ty.to_string t) (v n)
  | Load p -> Printf.sprintf "load %s" (v p)
  | Store (x, p) -> Printf.sprintf "store %s, %s" (v x) (v p)
  | Gep (base, idxs) -> Printf.sprintf "getelementptr %s [%s]" (v base) (args_str idxs)
  | Cast (op, x, t) ->
      Printf.sprintf "%s %s to %s" (string_of_cast op) (v x) (Ty.to_string t)
  | Select (c, a, b) -> Printf.sprintf "select %s, %s, %s" (v c) (v a) (v b)
  | Call (f, args) ->
      Printf.sprintf "call %s %s(%s)" (Ty.to_string ty) (v f) (args_str args)
  | Phi incoming ->
      let inc =
        List.map (fun (l, x) -> Printf.sprintf "[%s, %%%s]" (v x) l) incoming
      in
      Printf.sprintf "phi %s %s" (Ty.to_string ty) (String.concat ", " inc)
  | Malloc (t, n) -> Printf.sprintf "malloc %s, %s" (Ty.to_string t) (v n)
  | Free p -> Printf.sprintf "free %s" (v p)
  | Atomic_cas (p, e, r) -> Printf.sprintf "cas %s, %s, %s" (v p) (v e) (v r)
  | Atomic_add (p, d) -> Printf.sprintf "atomicadd %s, %s" (v p) (v d)
  | Membar -> "membar"
  | Intrinsic (name, args) ->
      Printf.sprintf "intrinsic %s @%s(%s)" (Ty.to_string ty) name (args_str args)

let string_of_instr (i : Instr.t) =
  match Instr.result i with
  | Some r -> Printf.sprintf "%s = %s" (Value.to_string r) (string_of_kind i.ty i.kind)
  | None -> string_of_kind i.ty i.kind

let string_of_term : Instr.term -> string = function
  | Ret None -> "ret void"
  | Ret (Some x) -> Printf.sprintf "ret %s" (v x)
  | Br (c, t, e) -> Printf.sprintf "br %s, %%%s, %%%s" (v c) t e
  | Jmp l -> Printf.sprintf "br %%%s" l
  | Switch (x, cases, d) ->
      let cs = List.map (fun (n, l) -> Printf.sprintf "%Ld -> %%%s" n l) cases in
      Printf.sprintf "switch %s [%s] default %%%s" (v x) (String.concat "; " cs) d
  | Unreachable -> "unreachable"

let string_of_block (b : Func.block) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (b.label ^ ":\n");
  List.iter
    (fun i -> Buffer.add_string buf ("  " ^ string_of_instr i ^ "\n"))
    b.insns;
  Buffer.add_string buf ("  " ^ string_of_term b.term ^ "\n");
  Buffer.contents buf

let string_of_func (f : Func.t) =
  let buf = Buffer.create 1024 in
  let params =
    List.mapi
      (fun i (name, ty) ->
        Printf.sprintf "%s %s" (Ty.to_string ty)
          (Value.to_string (Value.Reg (i, ty, name))))
      f.Func.f_params
  in
  let params = if f.Func.f_varargs then params @ [ "..." ] else params in
  Buffer.add_string buf
    (Printf.sprintf "define %s @%s(%s) {\n" (Ty.to_string f.Func.f_ret)
       f.Func.f_name (String.concat ", " params));
  List.iter (fun b -> Buffer.add_string buf (string_of_block b)) f.Func.f_blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let string_of_ginit : Irmod.ginit -> string = function
  | Zero -> "zeroinitializer"
  | Str s -> Printf.sprintf "c%S" s
  | Ints (t, ns) ->
      Printf.sprintf "[%s]"
        (String.concat ", "
           (List.map (fun n -> Printf.sprintf "%s %Ld" (Ty.to_string t) n) ns))
  | Ptrs syms -> Printf.sprintf "[%s]" (String.concat ", " (List.map (( ^ ) "@") syms))

let string_of_module (m : Irmod.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "; module %s\n" m.Irmod.m_name);
  List.iter
    (fun name ->
      let def = Ty.find_struct m.Irmod.m_ctx name in
      let fields =
        List.map
          (fun (fn, ft) -> Printf.sprintf "%s %s" (Ty.to_string ft) fn)
          def.Ty.s_fields
      in
      Buffer.add_string buf
        (Printf.sprintf "%%%s = type { %s }\n" name (String.concat ", " fields)))
    (Ty.struct_names m.Irmod.m_ctx);
  List.iter
    (fun (g : Irmod.global) ->
      Buffer.add_string buf
        (Printf.sprintf "@%s = %s %s %s\n" g.g_name
           (if g.g_const then "constant" else "global")
           (Ty.to_string g.g_ty) (string_of_ginit g.g_init)))
    m.Irmod.m_globals;
  List.iter
    (fun (name, ty) ->
      Buffer.add_string buf (Printf.sprintf "declare @%s : %s\n" name (Ty.to_string ty)))
    m.Irmod.m_externs;
  List.iter
    (fun f -> Buffer.add_string buf ("\n" ^ string_of_func f))
    m.Irmod.m_funcs;
  Buffer.contents buf

type ginit = Zero | Str of string | Ints of Ty.t * int64 list | Ptrs of string list

type global = { g_name : string; g_ty : Ty.t; g_init : ginit; g_const : bool }

type t = {
  m_name : string;
  m_ctx : Ty.ctx;
  mutable m_globals : global list;
  mutable m_funcs : Func.t list;
  mutable m_externs : (string * Ty.t) list;
}

let create name =
  {
    m_name = name;
    m_ctx = Ty.create_ctx ();
    m_globals = [];
    m_funcs = [];
    m_externs = [];
  }

let add_global m g =
  if List.exists (fun g' -> g'.g_name = g.g_name) m.m_globals then
    invalid_arg ("Irmod.add_global: duplicate @" ^ g.g_name);
  m.m_globals <- m.m_globals @ [ g ]

let add_func m f =
  if List.exists (fun f' -> f'.Func.f_name = f.Func.f_name) m.m_funcs then
    invalid_arg ("Irmod.add_func: duplicate @" ^ f.Func.f_name);
  m.m_funcs <- m.m_funcs @ [ f ]

let declare_extern m name ty =
  match List.assoc_opt name m.m_externs with
  | Some prev when not (Ty.equal prev ty) ->
      invalid_arg ("Irmod.declare_extern: conflicting types for @" ^ name)
  | Some _ -> ()
  | None -> m.m_externs <- m.m_externs @ [ (name, ty) ]

let find_func m name = List.find_opt (fun f -> f.Func.f_name = name) m.m_funcs

let find_global m name = List.find_opt (fun g -> g.g_name = name) m.m_globals

let extern_ty m name = List.assoc_opt name m.m_externs

let symbol_ty m name =
  match find_func m name with
  | Some f -> Some (Func.func_ty f)
  | None -> extern_ty m name

let global_value g = Value.Global (g.g_name, g.g_ty)

let merge dst src =
  List.iter
    (fun name ->
      let def = Ty.find_struct src.m_ctx name in
      ignore (Ty.define_struct dst.m_ctx name def.Ty.s_fields))
    (Ty.struct_names src.m_ctx);
  List.iter (fun g -> add_global dst g) src.m_globals;
  List.iter (fun f -> add_func dst f) src.m_funcs;
  List.iter
    (fun (name, ty) ->
      match find_func dst name with
      | Some f ->
          if not (Ty.equal (Func.func_ty f) ty) then
            invalid_arg ("Irmod.merge: extern/def type clash for @" ^ name)
      | None -> declare_extern dst name ty)
    src.m_externs;
  (* Externs of dst now resolved by definitions from src stay harmless. *)
  ()

let instr_count m =
  List.fold_left (fun n f -> n + Func.instr_count f) 0 m.m_funcs

type block = {
  label : string;
  mutable insns : Instr.t list;
  mutable term : Instr.term;
}

type attr = Noanalyze | Callsig_assert | Kernel_entry

type t = {
  f_name : string;
  f_ret : Ty.t;
  f_params : (string * Ty.t) list;
  f_varargs : bool;
  mutable f_blocks : block list;
  mutable f_next_reg : int;
  mutable f_attrs : attr list;
}

let create ?(varargs = false) ?(attrs = []) name ret params =
  {
    f_name = name;
    f_ret = ret;
    f_params = params;
    f_varargs = varargs;
    f_blocks = [];
    f_next_reg = List.length params;
    f_attrs = attrs;
  }

let param_value f i =
  match List.nth_opt f.f_params i with
  | Some (name, ty) -> Value.Reg (i, ty, name)
  | None -> invalid_arg ("Func.param_value: " ^ f.f_name)

let fresh_reg f =
  let r = f.f_next_reg in
  f.f_next_reg <- r + 1;
  r

let add_block f label =
  if List.exists (fun b -> b.label = label) f.f_blocks then
    invalid_arg ("Func.add_block: duplicate label " ^ label);
  let b = { label; insns = []; term = Instr.Unreachable } in
  f.f_blocks <- f.f_blocks @ [ b ];
  b

let find_block f label =
  match List.find_opt (fun b -> b.label = label) f.f_blocks with
  | Some b -> b
  | None -> raise Not_found

let entry f =
  match f.f_blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("Func.entry: empty function " ^ f.f_name)

let iter_instrs f g =
  List.iter (fun b -> List.iter (fun i -> g b i) b.insns) f.f_blocks

let fold_instrs f g init =
  List.fold_left
    (fun acc b -> List.fold_left (fun acc i -> g acc b i) acc b.insns)
    init f.f_blocks

let func_ty f = Ty.Func (f.f_ret, List.map snd f.f_params, f.f_varargs)

let has_attr f a = List.mem a f.f_attrs

let instr_count f = fold_instrs f (fun n _ _ -> n + 1) 0

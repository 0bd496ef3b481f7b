open Sva_ir

(* Instructions are immutable; blocks are not. *)
let clone_function (m : Irmod.t) (f : Func.t) name =
  let g = Func.create ~varargs:f.Func.f_varargs ~attrs:f.Func.f_attrs name
      f.Func.f_ret f.Func.f_params in
  g.Func.f_next_reg <- f.Func.f_next_reg;
  g.Func.f_blocks <-
    List.map
      (fun (b : Func.block) ->
        { Func.label = b.Func.label; insns = b.Func.insns; term = b.Func.term })
      f.Func.f_blocks;
  Irmod.add_func m g;
  g

let is_recursive (f : Func.t) =
  Func.fold_instrs f
    (fun acc _ (i : Instr.t) ->
      acc
      ||
      match i.Instr.kind with
      | Instr.Call (Value.Fn (n, _), _) -> n = f.Func.f_name
      | _ -> false)
    false

let has_pointer_param (f : Func.t) =
  List.exists (fun (_, t) -> Ty.is_pointer t) f.Func.f_params

(* All direct call sites of [name]: (caller, block, instr). *)
let call_sites (m : Irmod.t) name =
  List.concat_map
    (fun (caller : Func.t) ->
      Func.fold_instrs caller
        (fun acc b (i : Instr.t) ->
          match i.Instr.kind with
          | Instr.Call (Value.Fn (n, _), _) when n = name -> (caller, b, i) :: acc
          | _ -> acc)
        [])
    m.Irmod.m_funcs

let retarget (b : Func.block) (site : Instr.t) new_name =
  b.Func.insns <-
    List.map
      (fun (i : Instr.t) ->
        if i.Instr.id = site.Instr.id then
          match i.Instr.kind with
          | Instr.Call (Value.Fn (_, fty), args) ->
              { i with Instr.kind = Instr.Call (Value.Fn (new_name, fty), args) }
          | _ -> i
        else i)
      b.Func.insns

let max_size = 40
let max_sites = 4

let run (m : Irmod.t) =
  let cloned = ref 0 in
  (* Snapshot the candidate list first: cloning adds functions. *)
  let candidates =
    List.filter
      (fun (f : Func.t) ->
        (not (Func.has_attr f Func.Noanalyze))
        && has_pointer_param f
        && (not (is_recursive f))
        && Func.instr_count f <= max_size)
      m.Irmod.m_funcs
  in
  List.iter
    (fun (f : Func.t) ->
      (* Only clone when the function's address is never taken: an
         indirect call must keep reaching the original. *)
      let address_taken =
        List.exists
          (fun (g : Func.t) ->
            Func.fold_instrs g
              (fun acc _ (i : Instr.t) ->
                acc
                ||
                match i.Instr.kind with
                | Instr.Call (Value.Fn (_, _), args) ->
                    List.exists
                      (fun a ->
                        match a with
                        | Value.Fn (n, _) -> n = f.Func.f_name
                        | _ -> false)
                      args
                | k ->
                    List.exists
                      (fun a ->
                        match a with
                        | Value.Fn (n, _) -> n = f.Func.f_name
                        | _ -> false)
                      (Instr.operands k))
              false)
          m.Irmod.m_funcs
      in
      if not address_taken then begin
        let sites = call_sites m f.Func.f_name in
        let n = List.length sites in
        if n >= 2 && n <= max_sites then
          (* the first site keeps the original; each further site gets a
             private copy *)
          List.iteri
            (fun k (_, b, site) ->
              if k > 0 then begin
                let cname = Printf.sprintf "%s.clone%d" f.Func.f_name k in
                if Irmod.find_func m cname = None then begin
                  ignore (clone_function m f cname);
                  retarget b site cname;
                  incr cloned
                end
              end)
            sites
      end)
    candidates;
  if !cloned > 0 then Verify.check m;
  !cloned

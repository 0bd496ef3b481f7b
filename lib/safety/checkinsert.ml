open Sva_ir
open Sva_analysis

type options = { static_bounds : bool; th_elides_lscheck : bool }

let default_options = { static_bounds = true; th_elides_lscheck = true }

type summary = {
  ls_inserted : int;
  ls_elided_th : int;
  ls_reduced_incomplete : int;
  bounds_inserted : int;
  bounds_static : int;
  funcchecks_inserted : int;
  funcchecks_elided : int;
  regs_inserted : int;
  drops_inserted : int;
  stack_promoted : int;
  ls_proved_static : int;
  bounds_static_range : int;
}

let zero_summary =
  {
    ls_inserted = 0;
    ls_elided_th = 0;
    ls_reduced_incomplete = 0;
    bounds_inserted = 0;
    bounds_static = 0;
    funcchecks_inserted = 0;
    funcchecks_elided = 0;
    regs_inserted = 0;
    drops_inserted = 0;
    stack_promoted = 0;
    ls_proved_static = 0;
    bounds_static_range = 0;
  }

(* ---------- helpers ---------- *)

let mk_instr f ty kind = { Instr.id = Func.fresh_reg f; nm = ""; ty; kind }

let mp_arg (d : Metapool.decl) = Value.imm d.Metapool.mp_id
let len_arg n = Value.imm64 (Int64.of_int n)

let cls_heap = Value.imm 0
let cls_stack = Value.imm 1
let cls_global = Value.imm 2

(* Is a constant-indexed gep provably in bounds of the base's static type?
   The first index must be 0 (a pointer is treated as one object); array
   indexes must be within the static array length. *)
let static_safe ctx (base : Value.t) idxs =
  match Value.ty base with
  | Ty.Ptr pointee ->
      let const v = match v with Value.Imm (_, n) -> Some n | _ -> None in
      let rec descend ty = function
        | [] -> true
        | idx :: rest -> (
            match (ty, const idx) with
            | Ty.Array (e, n), Some i ->
                Int64.compare i 0L >= 0
                && Int64.compare i (Int64.of_int n) < 0
                && descend e rest
            | Ty.Struct sname, Some i -> (
                match Ty.field_at ctx sname (Int64.to_int i) with
                | _, fty -> descend fty rest
                | exception Not_found -> false)
            | _ -> false)
      in
      (match idxs with
      | Value.Imm (_, 0L) :: rest -> descend pointee rest
      | _ -> false)
  | _ -> false

(* The byte size accessed through the gep result (the scalar or aggregate
   the result points to). *)
let gep_access_len ctx (i : Instr.t) =
  match i.Instr.ty with
  | Ty.Ptr p -> ( try Ty.sizeof ctx p with Invalid_argument _ -> 1)
  | _ -> 1

(* ---------- stack-to-heap promotion ---------- *)

(* An alloca whose address is stored into memory or returned may have
   reachable pointers after the frame dies (Section 4.3): promote it to an
   explicit heap object, freed on return (dangling pointers to it are then
   tolerated exactly like other heap danglers). *)
let escaping_allocas (f : Func.t) =
  let alloca_ids =
    Func.fold_instrs f
      (fun acc _ (i : Instr.t) ->
        match i.Instr.kind with Instr.Alloca _ -> i.Instr.id :: acc | _ -> acc)
      []
  in
  let escapes = Hashtbl.create 8 in
  let is_alloca v =
    match v with
    | Value.Reg (id, _, _) when List.mem id alloca_ids -> Some id
    | _ -> None
  in
  Func.iter_instrs f (fun _ (i : Instr.t) ->
      match i.Instr.kind with
      | Instr.Store (v, _) -> (
          match is_alloca v with
          | Some id -> Hashtbl.replace escapes id ()
          | None -> ())
      | _ -> ());
  List.iter
    (fun (b : Func.block) ->
      match b.Func.term with
      | Instr.Ret (Some v) -> (
          match is_alloca v with
          | Some id -> Hashtbl.replace escapes id ()
          | None -> ())
      | _ -> ())
    f.Func.f_blocks;
  escapes

let promote_stack (f : Func.t) =
  let escapes = escaping_allocas f in
  if Hashtbl.length escapes = 0 then 0
  else begin
    let promoted = ref [] in
    List.iter
      (fun (b : Func.block) ->
        b.Func.insns <-
          List.map
            (fun (i : Instr.t) ->
              match i.Instr.kind with
              | Instr.Alloca (ty, count) when Hashtbl.mem escapes i.Instr.id ->
                  promoted := Value.Reg (i.Instr.id, i.Instr.ty, i.Instr.nm) :: !promoted;
                  { i with Instr.kind = Instr.Malloc (ty, count) }
              | _ -> i)
            b.Func.insns)
      f.Func.f_blocks;
    (* Free every promoted object on each return path. *)
    List.iter
      (fun (b : Func.block) ->
        match b.Func.term with
        | Instr.Ret _ ->
            let frees =
              List.map (fun v -> mk_instr f Ty.Void (Instr.Free v)) !promoted
            in
            b.Func.insns <- b.Func.insns @ frees
        | _ -> ())
      f.Func.f_blocks;
    Hashtbl.length escapes
  end

(* ---------- instrumentation ---------- *)

type ctx = {
  m : Irmod.t;
  pa : Pointsto.result;
  mps : Metapool.t;
  adecls : Allocdecl.t list;
  opts : options;
  proofs : fname:string -> int -> bool;
  ranges : fname:string -> Instr.t -> bool;
  poolcert : Poolev.bundle option;
      (* when present, every points-to-justified elision appends its
         record here — "every elision materializes a certificate or is
         not taken" *)
  mutable s : summary;
}

let note_elision c e =
  match c.poolcert with
  | Some b -> Poolev.record_elision b e
  | None -> ()

let decl_of c ~fname v = Metapool.of_value c.mps c.pa ~fname v

let scalar_size c ty = try Ty.sizeof c.m.Irmod.m_ctx ty with Invalid_argument _ -> 1

let instrument_func c (f : Func.t) =
  let fname = f.Func.f_name in
  (* Stack registrations: collected so returns can drop them. *)
  let stack_regs = ref [] in
  let lscheck before (at : Instr.t) ptr len =
    match decl_of c ~fname ptr with
    | None -> ()
    | Some d ->
        if not d.Metapool.mp_complete then begin
          c.s <- { c.s with ls_reduced_incomplete = c.s.ls_reduced_incomplete + 1 };
          note_elision c
            (Poolev.El_reduced
               ( { Poolev.s_func = fname; s_instr = at.Instr.id },
                 d.Metapool.mp_id ))
        end
        else if c.opts.th_elides_lscheck && d.Metapool.mp_th then begin
          c.s <- { c.s with ls_elided_th = c.s.ls_elided_th + 1 };
          note_elision c
            (Poolev.El_th
               ( { Poolev.s_func = fname; s_instr = at.Instr.id },
                 d.Metapool.mp_id ))
        end
        else if c.proofs ~fname at.Instr.id then
          (* The lint layer proved this access in bounds of a live
             object: the check would otherwise have been inserted. *)
          c.s <- { c.s with ls_proved_static = c.s.ls_proved_static + 1 }
        else begin
          c.s <- { c.s with ls_inserted = c.s.ls_inserted + 1 };
          before :=
            mk_instr f Ty.Void
              (Instr.Intrinsic ("pchk_lscheck", [ mp_arg d; ptr; len_arg len ]))
            :: !before
        end
  in
  let reg_obj after ptr size_v cls =
    match decl_of c ~fname ptr with
    | None -> ()
    | Some d ->
        c.s <- { c.s with regs_inserted = c.s.regs_inserted + 1 };
        after :=
          mk_instr f Ty.Void
            (Instr.Intrinsic ("pchk_reg_obj", [ mp_arg d; ptr; size_v; cls ]))
          :: !after
  in
  let drop_obj before ptr =
    match decl_of c ~fname ptr with
    | None -> ()
    | Some d ->
        c.s <- { c.s with drops_inserted = c.s.drops_inserted + 1 };
        before :=
          mk_instr f Ty.Void (Instr.Intrinsic ("pchk_drop_obj", [ mp_arg d; ptr ]))
          :: !before
  in
  List.iter
    (fun (b : Func.block) ->
      let out = ref [] in
      let emit i = out := i :: !out in
      List.iter
        (fun (i : Instr.t) ->
          let before = ref [] and after = ref [] in
          (match i.Instr.kind with
          | Instr.Load p -> lscheck before i p (scalar_size c i.Instr.ty)
          | Instr.Store (v, p) -> lscheck before i p (scalar_size c (Value.ty v))
          | Instr.Atomic_cas (p, e, _) ->
              lscheck before i p (scalar_size c (Value.ty e))
          | Instr.Atomic_add (p, d) ->
              lscheck before i p (scalar_size c (Value.ty d))
          | Instr.Gep (base, idxs) -> (
              match decl_of c ~fname base with
              | None -> ()
              | Some d ->
                  if c.opts.static_bounds && static_safe c.m.Irmod.m_ctx base idxs
                  then c.s <- { c.s with bounds_static = c.s.bounds_static + 1 }
                  else if c.ranges ~fname i then
                    (* The interval analysis certified every variable
                       index in extent; the certificate is re-verified by
                       the trusted checker downstream. *)
                    c.s <-
                      {
                        c.s with
                        bounds_static_range = c.s.bounds_static_range + 1;
                      }
                  else (
                    match Instr.result i with
                    | Some r ->
                        c.s <- { c.s with bounds_inserted = c.s.bounds_inserted + 1 };
                        after :=
                          mk_instr f Ty.Void
                            (Instr.Intrinsic
                               ( "pchk_bounds",
                                 [
                                   mp_arg d;
                                   base;
                                   r;
                                   len_arg (gep_access_len c.m.Irmod.m_ctx i);
                                 ] ))
                          :: !after
                    | None -> ()))
          | Instr.Malloc (ty, count) -> (
              match Instr.result i with
              | Some r ->
                  let size_v =
                    match count with
                    | Value.Imm (_, n) ->
                        len_arg (Int64.to_int n * scalar_size c ty)
                    | cv ->
                        let widened =
                          if Ty.equal (Value.ty cv) Ty.i64 then cv
                          else
                            let w =
                              mk_instr f Ty.i64 (Instr.Cast (Instr.Sext, cv, Ty.i64))
                            in
                            after := w :: !after;
                            Option.get (Instr.result w)
                        in
                        let mul =
                          mk_instr f Ty.i64
                            (Instr.Binop
                               ( Instr.Mul,
                                 widened,
                                 len_arg (scalar_size c ty) ))
                        in
                        after := mul :: !after;
                        Option.get (Instr.result mul)
                  in
                  reg_obj after r size_v cls_heap
              | None -> ())
          | Instr.Free p -> drop_obj before p
          | Instr.Alloca (ty, count) -> (
              match Instr.result i with
              | Some r ->
                  let size =
                    match count with
                    | Value.Imm (_, n) -> Int64.to_int n * scalar_size c ty
                    | _ -> scalar_size c ty
                  in
                  reg_obj after r (len_arg size) cls_stack;
                  stack_regs := r :: !stack_regs
              | None -> ())
          | Instr.Call (Value.Fn (callee, _), args) -> (
              match Allocdecl.find c.adecls callee with
              | Some decl -> (
                  match Instr.result i with
                  | Some r ->
                      let size_v =
                        match decl.Allocdecl.a_size_arg with
                        | Some k when k < List.length args -> List.nth args k
                        | _ -> (
                            match decl.Allocdecl.a_size_fn with
                            | Some fn -> (
                                match Irmod.symbol_ty c.m fn with
                                | Some fty ->
                                    let callsz =
                                      mk_instr f Ty.i64
                                        (Instr.Call (Value.Fn (fn, fty), args))
                                    in
                                    after := callsz :: !after;
                                    Option.get (Instr.result callsz)
                                | None -> len_arg 0)
                            | None -> len_arg 0)
                      in
                      reg_obj after r size_v cls_heap
                  | None -> ())
              | None -> (
                  match Allocdecl.find_free c.adecls callee with
                  | Some _ -> (
                      match List.rev args with
                      | obj :: _ -> drop_obj before obj
                      | [] -> ())
                  | None -> ()))
          | Instr.Call (callee, _) -> (
              match Pointsto.value_node c.pa ~fname callee with
              | Some node
                when Pointsto.is_type_homog node
                     || not (Pointsto.is_complete node) ->
                  c.s <-
                    { c.s with funcchecks_elided = c.s.funcchecks_elided + 1 };
                  let mpi =
                    match Metapool.of_node c.mps node with
                    | Some d -> d.Metapool.mp_id
                    | None -> -1
                  in
                  note_elision c
                    (Poolev.El_func
                       ( { Poolev.s_func = fname; s_instr = i.Instr.id },
                         mpi,
                         if Pointsto.is_type_homog node then Poolev.Fc_th
                         else Poolev.Fc_incomplete ))
              | Some _ | None ->
                  let targets =
                    Pointsto.callsite_targets c.pa ~fname i.Instr.id
                  in
                  let target_vals =
                    List.filter_map
                      (fun fn ->
                        match Irmod.symbol_ty c.m fn with
                        | Some fty -> Some (Value.Fn (fn, fty))
                        | None -> None)
                      targets
                  in
                  c.s <-
                    {
                      c.s with
                      funcchecks_inserted = c.s.funcchecks_inserted + 1;
                    };
                  before :=
                    mk_instr f Ty.Void
                      (Instr.Intrinsic ("pchk_funccheck", callee :: target_vals))
                    :: !before)
          | _ -> ());
          List.iter emit (List.rev !before);
          (* Rewrite manufactured-address registrations in place. *)
          let i =
            match i.Instr.kind with
            | Instr.Intrinsic ("sva_pseudo_alloc", args) -> (
                match
                  Instr.result i
                  |> Option.map (fun r -> decl_of c ~fname r)
                  |> Option.join
                with
                | Some d ->
                    c.s <- { c.s with regs_inserted = c.s.regs_inserted + 1 };
                    { i with
                      Instr.kind =
                        Instr.Intrinsic ("pchk_pseudo_alloc", mp_arg d :: args)
                    }
                | None -> i)
            | _ -> i
          in
          emit i;
          List.iter emit (List.rev !after))
        b.Func.insns;
      b.Func.insns <- List.rev !out)
    f.Func.f_blocks;
  (* Drop stack registrations on every return. *)
  if !stack_regs <> [] then
    List.iter
      (fun (b : Func.block) ->
        match b.Func.term with
        | Instr.Ret _ ->
            let drops = ref [] in
            List.iter (fun r -> drop_obj drops r) !stack_regs;
            b.Func.insns <- b.Func.insns @ List.rev !drops
        | _ -> ())
      f.Func.f_blocks

(* ---------- global registration ---------- *)

let register_globals_fn = "__sva_register_globals"

let add_global_registration c =
  if Irmod.find_func c.m register_globals_fn <> None then ()
  else begin
    let f = Func.create register_globals_fn Ty.Void [] in
    Irmod.add_func c.m f;
    let b = Builder.create c.m f in
    ignore (Builder.start_block b "entry");
    List.iter
      (fun (g : Irmod.global) ->
        match Pointsto.global_node c.pa g.Irmod.g_name with
        | None -> ()
        | Some node -> (
            match Metapool.of_node c.mps node with
            | None -> ()
            | Some d ->
                let size = scalar_size c g.Irmod.g_ty in
                c.s <- { c.s with regs_inserted = c.s.regs_inserted + 1 };
                ignore
                  (Builder.b_intrinsic b Ty.Void "pchk_reg_obj"
                     [ mp_arg d; Irmod.global_value g; len_arg size; cls_global ])))
      c.m.Irmod.m_globals;
    Builder.b_ret b None
    (* The SVM calls @__sva_register_globals once at boot, before control
       first enters the kernel (Section 4.3: global registrations happen
       at the kernel entry point). *)
  end

let run ?(options = default_options) ?(proofs = fun ~fname:_ _ -> false)
    ?(ranges = fun ~fname:_ _ -> false) ?poolcert m pa mps adecls =
  let c =
    {
      m;
      pa;
      mps;
      adecls;
      opts = options;
      proofs;
      ranges;
      poolcert;
      s = zero_summary;
    }
  in
  List.iter
    (fun (f : Func.t) ->
      if not (Func.has_attr f Func.Noanalyze) then begin
        let n = promote_stack f in
        c.s <- { c.s with stack_promoted = c.s.stack_promoted + n };
        instrument_func c f
      end)
    m.Irmod.m_funcs;
  add_global_registration c;
  Verify.check m;
  c.s

let runtime_pools ?smp ?user_range (mps : Metapool.t) =
  List.map
    (fun (d : Metapool.decl) ->
      let mp =
        Sva_rt.Metapool_rt.create ?smp ~type_homog:d.Metapool.mp_th
          ~complete:d.Metapool.mp_complete ~elem_size:d.Metapool.mp_elem_size
          d.Metapool.mp_name
      in
      (match (d.Metapool.mp_userspace, user_range) with
      | true, Some (base, size) ->
          Sva_rt.Metapool_rt.register mp ~cls:Sva_rt.Metapool_rt.Userspace
            ~start:base ~len:size
      | _ -> ());
      (d.Metapool.mp_id, mp))
    (Metapool.decls mps)

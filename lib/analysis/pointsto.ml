open Sva_ir

type flag = Heap | Stack | Global | Unknown | Funcs | Userspace | Bios

let flag_bit = function
  | Heap -> 1
  | Stack -> 2
  | Global -> 4
  | Unknown -> 8
  | Funcs -> 16
  | Userspace -> 32
  | Bios -> 64

type node = {
  nid : int;
  mutable parent : node option;
  mutable rank : int;
  mutable nflags : int;
  mutable nty : Ty.t option;
  mutable collapsed : bool;
  mutable succ : node option;
  mutable funcs : string list;
  mutable globset : string list;
  mutable incomplete : bool;
  mutable extern_seed : bool;
}

type access_kind = Acc_load | Acc_store | Acc_struct_index | Acc_array_index

type access = {
  acc_func : string;
  acc_instr : int;
  acc_kind : access_kind;
  acc_node : node;
}

type alloc_site = {
  al_func : string;
  al_instr : int;
  al_alloc : string;
  al_node : node;
  al_pool_node : node option;
  al_size_class : int option;
}

type escape_site = {
  es_func : string;
  es_instr : int;
  es_reason : string;
  es_node : node;
}

type config = {
  allocators : Allocdecl.t list;
  copy_functions : string list;
  known_externs : string list;
  user_copy_functions : string list;
  syscall_register : string option;
  syscall_invoke : string option;
  track_int_ptrs : bool;
  null_small_int_casts : bool;
  userspace_valid : bool;
  externs_complete : bool;
}

let default_config =
  {
    allocators = [];
    copy_functions = [];
    known_externs = [ "memset"; "strlen"; "strcmp"; "memcmp" ];
    user_copy_functions = [];
    syscall_register = None;
    syscall_invoke = None;
    track_int_ptrs = true;
    null_small_int_casts = true;
    userspace_valid = false;
    externs_complete = false;
  }

type key = Kreg of string * int | Kglobal of string | Kfunc of string | Kret of string

(* An indirect call site awaiting resolution against the function set of its
   callee node. *)
type indirect_site = {
  is_func : string;
  is_instr : int;
  is_callee : node;
  is_args : Value.t list;
  is_result_key : key option;
  mutable is_applied : string list;  (* callees already unified *)
}

type result = {
  cfg : config;
  irmod : Irmod.t;
  mutable next_id : int;
  mutable recording : bool;
      (* record accesses/allocs/frees/indirect sites (first transfer pass
         only; later fixpoint passes just add unification constraints) *)
  env : (key, node) Hashtbl.t;
  mutable accs : access list;
  mutable allocs : alloc_site list;
  mutable frees : (string * int * node) list;
  mutable indirects : indirect_site list;
  syscalls : (int, string) Hashtbl.t;
  interior : (string * int, unit) Hashtbl.t;
      (* registers holding mid-object (field) pointers: their loads/stores
         do not contribute to the node's homogeneous type *)
  escapes : (string * int * int, string * node) Hashtbl.t;
      (* escape-frontier evidence, keyed (function, instr, operand slot;
         -1 = result).  Recorded on every pass (keyed replacement is
         idempotent) so the last fixpoint sweep leaves records that match
         the final partitions — integer operands may only join a pointer
         partition after the first pass. *)
}

(* ---------- union-find ---------- *)

(* Bumped on every node creation and every effective union: the analysis
   driver iterates the transfer pass until this stabilizes (integer
   tracking makes a single pass order-dependent). *)
let generation = ref 0

let rec find n =
  match n.parent with
  | None -> n
  | Some p ->
      let r = find p in
      n.parent <- Some r;
      r

let union_str a b = List.sort_uniq compare (List.rev_append a b)

let reduce_ty = function Ty.Array (e, _) -> e | t -> t

let set_flag n f =
  let n = find n in
  n.nflags <- n.nflags lor flag_bit f

let collapse n =
  let n = find n in
  n.collapsed <- true;
  n.nty <- None

(* Record that objects of (reduced) type [ty] inhabit node [n]; conflicting
   types collapse the node (destroying type homogeneity). *)
let add_ty n ty =
  let n = find n in
  if not n.collapsed then
    let ty = reduce_ty ty in
    match n.nty with
    | None -> n.nty <- Some ty
    | Some t when Ty.equal t ty -> ()
    | Some _ -> collapse n

let rec unify a b =
  let a = find a and b = find b in
  if a != b then begin
    incr generation;
    let root, child = if a.rank >= b.rank then (a, b) else (b, a) in
    if root.rank = child.rank then root.rank <- root.rank + 1;
    child.parent <- Some root;
    root.nflags <- root.nflags lor child.nflags;
    root.funcs <- union_str root.funcs child.funcs;
    root.globset <- union_str root.globset child.globset;
    root.incomplete <- root.incomplete || child.incomplete;
    root.extern_seed <- root.extern_seed || child.extern_seed;
    (if root.collapsed || child.collapsed then collapse root
     else
       match (root.nty, child.nty) with
       | None, t -> root.nty <- t
       | _, None -> ()
       | Some t1, Some t2 ->
           if not (Ty.equal t1 t2) then collapse root);
    let s1 = root.succ and s2 = child.succ in
    child.succ <- None;
    match (s1, s2) with
    | Some x, Some y -> unify x y
    | None, (Some _ as s) -> root.succ <- s
    | _, None -> ()
  end

(* ---------- state helpers ---------- *)

let fresh st =
  incr generation;
  let n =
    {
      nid = st.next_id;
      parent = None;
      rank = 0;
      nflags = 0;
      nty = None;
      collapsed = false;
      succ = None;
      funcs = [];
      globset = [];
      incomplete = false;
      extern_seed = false;
    }
  in
  st.next_id <- st.next_id + 1;
  n

let key_node st key =
  match Hashtbl.find_opt st.env key with
  | Some n -> find n
  | None ->
      let n = fresh st in
      (match key with
      | Kglobal g -> (
          n.nflags <- n.nflags lor flag_bit Global;
          n.globset <- [ g ];
          match Irmod.find_global st.irmod g with
          | Some gl -> add_ty n gl.Irmod.g_ty
          | None -> ())
      | Kfunc f ->
          n.nflags <- n.nflags lor flag_bit Funcs;
          n.funcs <- [ f ]
      | Kreg _ | Kret _ -> ());
      Hashtbl.replace st.env key n;
      n

let tracked_ty st (ty : Ty.t) =
  match ty with
  | Ty.Ptr _ -> true
  | Ty.Int 64 -> st.cfg.track_int_ptrs
  | _ -> false

(* The node a pointer value targets; creates the node on demand. *)
let rec node_of st ~fname (v : Value.t) : node option =
  match v with
  | Value.Reg (id, ty, _) ->
      if tracked_ty st ty then Some (key_node st (Kreg (fname, id))) else None
  | Value.Global (g, _) -> Some (key_node st (Kglobal g))
  | Value.Fn (f, _) -> Some (key_node st (Kfunc f))
  | Value.Null _ | Value.Undef _ | Value.Fimm _ -> None
  | Value.Imm _ -> None

(* Like node_of but never creates nodes for integer registers: a plain
   integer only aliases a partition when pointer data already flowed into
   it. *)
and node_of_int st ~fname (v : Value.t) : node option =
  match v with
  | Value.Reg (id, Ty.Int 64, _) -> (
      match Hashtbl.find_opt st.env (Kreg (fname, id)) with
      | Some n -> Some (find n)
      | None -> None)
  | Value.Reg (_, Ty.Ptr _, _) | Value.Global _ | Value.Fn _ ->
      node_of st ~fname v
  | _ -> None

let deref st n =
  let n = find n in
  match n.succ with
  | Some s -> find s
  | None ->
      let s = fresh st in
      n.succ <- Some s;
      s

let mark_extern_exposed st ~fname ~instr ~slot ~reason n =
  let n = find n in
  n.extern_seed <- true;
  Hashtbl.replace st.escapes (fname, instr, slot) (reason, n)

let is_interior st fname (v : Value.t) =
  match v with
  | Value.Reg (id, _, _) -> Hashtbl.mem st.interior (fname, id)
  | _ -> false

let set_interior st fname (i : Instr.t) =
  Hashtbl.replace st.interior (fname, i.Instr.id) ()

(* Does this gep descend into a struct field?  Array steps keep the
   result a whole-object (element) pointer. *)
let gep_enters_struct _ctx (base_ty : Ty.t) idxs =
  match base_ty with
  | Ty.Ptr pointee ->
      let rec descend ty = function
        | [] -> false
        | idx :: rest -> (
            match ty with
            | Ty.Array (e, _) -> descend e rest
            | Ty.Struct _ ->
                (* indexing a struct field: the result is interior *)
                ignore idx;
                true
            | _ -> true)
      in
      (match idxs with
      | [] -> false
      | _first :: rest -> (
          match rest with
          | [] -> false (* pure pointer arithmetic *)
          | _ -> (
              match pointee with
              | Ty.Struct _ -> true (* [0, field] into a struct *)
              | _ -> descend pointee rest)))
  | _ -> false

let record_access st ~fname ~instr kind n =
  if st.recording then
    st.accs <-
      { acc_func = fname; acc_instr = instr; acc_kind = kind; acc_node = n }
      :: st.accs

(* ---------- instruction transfer ---------- *)

let value_is_const_int (v : Value.t) =
  match v with Value.Imm (_, n) -> Some n | _ -> None

let classify_gep idxs =
  let all_const = List.for_all (fun v -> value_is_const_int v <> None) idxs in
  if not all_const then Acc_array_index
  else
    match idxs with
    | [ Value.Imm (_, n) ] when n <> 0L -> Acc_array_index
    | _ -> Acc_struct_index

let handle_copy st ~fname dst src =
  let nd = node_of st ~fname dst and ns = node_of st ~fname src in
  match (nd, ns) with
  | Some nd, Some ns -> unify nd ns
  | Some n, None | None, Some n -> collapse n
  | None, None -> ()

(* Section 4.8: for copies to or from userspace, merge only the targets of
   the outgoing edges of the copied objects; this requires precise type
   information on both sides, otherwise collapse each node individually
   while preventing the merge itself. *)
let handle_user_copy st ~fname dst src =
  let nd = node_of st ~fname dst and ns = node_of st ~fname src in
  match (nd, ns) with
  | Some nd, Some ns ->
      let nd = find nd and ns = find ns in
      if nd.collapsed || ns.collapsed || nd.nty = None || ns.nty = None then begin
        collapse nd;
        collapse ns
      end
      else unify (deref st nd) (deref st ns)
  | Some n, None | None, Some n -> collapse n
  | None, None -> ()

let handle_extern_call st ~fname ~instr ~callee args result_node =
  let reason = "escapes to unanalyzed '" ^ callee ^ "'" in
  List.iteri
    (fun slot arg ->
      match node_of_int st ~fname arg with
      | Some n ->
          mark_extern_exposed st ~fname ~instr ~slot ~reason n;
          set_flag n Unknown
      | None -> ())
    args;
  match result_node with
  | Some n ->
      set_flag n Unknown;
      mark_extern_exposed st ~fname ~instr ~slot:(-1)
        ~reason:("result of unanalyzed '" ^ callee ^ "'")
        n
  | None -> ()

let is_defined_analyzed st name =
  match Irmod.find_func st.irmod name with
  | Some f -> not (Func.has_attr f Func.Noanalyze)
  | None -> false

let unify_call st ~fname callee_name args result_key =
  match Irmod.find_func st.irmod callee_name with
  | None -> ()
  | Some callee ->
      List.iteri
        (fun i arg ->
          match List.nth_opt callee.Func.f_params i with
          | Some (_, pty) when tracked_ty st pty -> (
              let pnode = key_node st (Kreg (callee_name, i)) in
              match node_of_int st ~fname arg with
              | Some a -> unify pnode a
              | None -> ())
          | _ -> ())
        args;
      (match result_key with
      | Some key when tracked_ty st callee.Func.f_ret ->
          unify (key_node st key) (key_node st (Kret callee_name))
      | _ -> ())

let handle_alloc st ~fname ~instr (decl : Allocdecl.t) args result_node =
  match result_node with
  | None -> ()
  | Some n ->
      set_flag n Heap;
      let pool_node =
        match decl.Allocdecl.a_pool_arg with
        | Some i -> (
            match List.nth_opt args i with
            | Some v -> node_of st ~fname v
            | None -> None)
        | None -> None
      in
      let size_class =
        match decl.Allocdecl.a_size_arg with
        | Some i -> (
            match List.nth_opt args i with
            | Some (Value.Imm (_, sz)) ->
                Allocdecl.size_class decl (Int64.to_int sz)
            | _ -> None)
        | None -> None
      in
      if st.recording then
        st.allocs <-
          {
            al_func = fname;
            al_instr = instr;
            al_alloc = decl.Allocdecl.a_alloc;
            al_node = n;
            al_pool_node = pool_node;
            al_size_class = size_class;
          }
          :: st.allocs

let is_sva_name name =
  let pfx p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  pfx "llva_" || pfx "sva_" || pfx "pchk_"

let handle_call st ~fname (i : Instr.t) callee args =
  let result_key =
    match Instr.result i with
    | Some (Value.Reg (id, ty, _)) when tracked_ty st ty -> Some (Kreg (fname, id))
    | _ -> None
  in
  let result_node = Option.map (key_node st) result_key in
  match callee with
  | Value.Fn (name, _) -> (
      match Allocdecl.find st.cfg.allocators name with
      | Some decl -> handle_alloc st ~fname ~instr:i.Instr.id decl args result_node
      | None -> (
          match Allocdecl.find_free st.cfg.allocators name with
          | Some _ -> (
              (* The object being freed is the last argument by convention
                 (kfree(p); kmem_cache_free(cache, p)). *)
              match List.rev args with
              | obj :: _ -> (
                  match node_of st ~fname obj with
                  | Some n ->
                      if st.recording then
                        st.frees <- (fname, i.Instr.id, n) :: st.frees
                  | None -> ())
              | [] -> ())
          | None ->
              if List.mem name st.cfg.user_copy_functions then (
                match args with
                | dst :: src :: _ -> handle_user_copy st ~fname dst src
                | _ -> ())
              else if List.mem name st.cfg.copy_functions then (
                match args with
                | dst :: src :: _ -> handle_copy st ~fname dst src
                | _ -> ())
              else if Some name = st.cfg.syscall_register then (
                (* sva.register.syscall(num, handler) *)
                match args with
                | [ Value.Imm (_, num); Value.Fn (h, _) ] ->
                    Hashtbl.replace st.syscalls (Int64.to_int num) h
                | _ -> ())
              else if Some name = st.cfg.syscall_invoke then (
                (* Internal syscall: resolved to a direct call when the
                   number is a constant and registered (Section 4.8). *)
                match args with
                | Value.Imm (_, num) :: rest -> (
                    match Hashtbl.find_opt st.syscalls (Int64.to_int num) with
                    | Some h -> unify_call st ~fname h rest result_key
                    | None ->
                        handle_extern_call st ~fname ~instr:i.Instr.id
                          ~callee:name rest result_node)
                | _ ->
                    handle_extern_call st ~fname ~instr:i.Instr.id ~callee:name
                      args result_node)
              else if List.mem name st.cfg.known_externs then ()
              else if is_sva_name name then
                (* SVA-OS operations are implemented by the (trusted) SVM
                   and do not leak kernel pointers to unknown code. *)
                ()
              else if is_defined_analyzed st name then
                unify_call st ~fname name args result_key
              else
                handle_extern_call st ~fname ~instr:i.Instr.id ~callee:name
                  args result_node))
  | callee_v -> (
      match node_of st ~fname callee_v with
      | Some cn ->
          if st.recording then
            st.indirects <-
              {
                is_func = fname;
                is_instr = i.Instr.id;
                is_callee = cn;
                is_args = args;
                is_result_key = result_key;
                is_applied = [];
              }
              :: st.indirects
      | None -> ())

let handle_intrinsic st ~fname (i : Instr.t) name args =
  let result_node =
    match Instr.result i with
    | Some (Value.Reg (id, ty, _)) when tracked_ty st ty ->
        Some (key_node st (Kreg (fname, id)))
    | _ -> None
  in
  match (name, result_node) with
  | "sva_pseudo_alloc", Some n ->
      (* Manufactured-address registration (Section 4.7): the returned
         pointer targets a BIOS-era object that is registered at run time,
         so it is neither unknown nor incomplete. *)
      set_flag n Bios;
      add_ty n Ty.i8
  | "sva_user_base", Some n ->
      set_flag n Userspace;
      add_ty n Ty.i8
  | ("sva_register_syscall" | "sva_syscall"), _ -> (
      (* Also accept the registration/invoke operations as intrinsics. *)
      match (Some name = st.cfg.syscall_register, args) with
      | true, [ Value.Imm (_, num); Value.Fn (h, _) ] ->
          Hashtbl.replace st.syscalls (Int64.to_int num) h
      | _ -> (
          match (Some name = st.cfg.syscall_invoke, args) with
          | true, Value.Imm (_, num) :: rest -> (
              match Hashtbl.find_opt st.syscalls (Int64.to_int num) with
              | Some h -> unify_call st ~fname h rest None
              | None -> ())
          | _ -> ()))
  | _ -> ()

let transfer st ~fname (i : Instr.t) =
  let node_of = node_of st ~fname and node_of_int = node_of_int st ~fname in
  let result_node () =
    match Instr.result i with
    | Some v -> node_of v
    | None -> None
  in
  match i.Instr.kind with
  | Instr.Alloca (ty, _) -> (
      match result_node () with
      | Some n ->
          set_flag n Stack;
          add_ty n ty
      | None -> ())
  | Instr.Malloc (ty, _) -> (
      match result_node () with
      | Some n ->
          set_flag n Heap;
          (* A byte-typed malloc (the lowering of C's malloc) says nothing
             about the objects' type; the casts and accesses decide. *)
          if not (Ty.equal ty Ty.i8) then add_ty n ty;
          if st.recording then
            st.allocs <-
              {
                al_func = fname;
                al_instr = i.Instr.id;
                al_alloc = "malloc";
                al_node = n;
                al_pool_node = None;
                al_size_class = None;
              }
              :: st.allocs
      | None -> ())
  | Instr.Free p -> (
      match node_of p with
      | Some n -> if st.recording then st.frees <- (fname, i.Instr.id, n) :: st.frees
      | None -> ())
  | Instr.Load p -> (
      match node_of p with
      | None -> ()
      | Some pn -> (
          record_access st ~fname ~instr:i.Instr.id Acc_load pn;
          if not (is_interior st fname p) then add_ty pn (Ty.pointee (Value.ty p));
          match Instr.result i with
          | Some (Value.Reg (id, ty, _)) when tracked_ty st ty -> (
              match ty with
              | Ty.Ptr _ -> unify (key_node st (Kreg (fname, id))) (deref st pn)
              | _ ->
                  (* Integer load: only alias when pointers already flowed
                     into the loaded-from cells. *)
                  let pn = find pn in
                  if pn.succ <> None then
                    unify (key_node st (Kreg (fname, id))) (deref st pn))
          | _ -> ()))
  | Instr.Store (v, p) -> (
      match node_of p with
      | None -> ()
      | Some pn -> (
          record_access st ~fname ~instr:i.Instr.id Acc_store pn;
          if not (is_interior st fname p) then add_ty pn (Ty.pointee (Value.ty p));
          match v with
          | Value.Reg (_, Ty.Ptr _, _) | Value.Global _ | Value.Fn _ -> (
              match node_of v with
              | Some vn -> unify (deref st pn) vn
              | None -> ())
          | _ -> (
              match node_of_int v with
              | Some vn -> unify (deref st pn) vn
              | None -> ())))
  | Instr.Gep (base, idxs) -> (
      match node_of base with
      | None -> ()
      | Some bn ->
          record_access st ~fname ~instr:i.Instr.id (classify_gep idxs) bn;
          if not (is_interior st fname base) then
            add_ty bn (Ty.pointee (Value.ty base));
          (match result_node () with Some rn -> unify rn bn | None -> ());
          if
            gep_enters_struct st.irmod.Irmod.m_ctx (Value.ty base) idxs
            || is_interior st fname base
          then set_interior st fname i)
  | Instr.Cast (op, x, ty) -> (
      match op with
      | Instr.Bitcast | Instr.Ptrtoint -> (
          match (result_node (), node_of_int x) with
          | Some rn, Some xn ->
              unify rn xn;
              if is_interior st fname x then set_interior st fname i
          | _ -> ())
      | Instr.Inttoptr -> (
          match x with
          | Value.Imm (_, v)
            when st.cfg.null_small_int_casts
                 && (Int64.abs v < 4096L || Int64.equal v (-1L)) ->
              (* Error-encoding casts like (struct f * )-EINVAL: treated as
                 null (Section 4.8). *)
              ()
          | Value.Imm (_, _) -> (
              (* A genuinely manufactured address: unanalyzable unless
                 registered via sva.pseudo.alloc. *)
              match result_node () with
              | Some n ->
                  set_flag n Unknown;
                  mark_extern_exposed st ~fname ~instr:i.Instr.id ~slot:(-1)
                    ~reason:"manufactured address (constant inttoptr)" n
              | None -> ())
          | _ -> (
              (* A non-constant integer cast to a pointer: the integer is
                 treated as carrying a pointer (Section 4.7), creating its
                 partition on demand rather than collapsing to Unknown. *)
              match (result_node (), node_of x) with
              | Some rn, Some xn -> unify rn xn
              | Some rn, None ->
                  set_flag rn Unknown;
                  mark_extern_exposed st ~fname ~instr:i.Instr.id ~slot:(-1)
                    ~reason:"inttoptr of an untracked integer" rn
              | None, _ -> ()))
      | Instr.Trunc | Instr.Zext | Instr.Sext -> (
          match (result_node (), node_of_int x) with
          | Some rn, Some xn when Ty.equal ty Ty.i64 || Ty.is_pointer ty ->
              unify rn xn
          | _ -> ())
      | Instr.Fptosi | Instr.Sitofp -> ())
  | Instr.Binop (_, a, b) -> (
      match Instr.result i with
      | Some (Value.Reg (_, ty, _)) when tracked_ty st ty -> (
          let ops = List.filter_map node_of_int [ a; b ] in
          match ops with
          | [] -> ()
          | ns ->
              let rn = Option.get (result_node ()) in
              List.iter (unify rn) ns)
      | _ -> ())
  | Instr.Phi incoming -> (
      match result_node () with
      | Some rn ->
          List.iter
            (fun (_, v) ->
              match node_of_int v with Some n -> unify rn n | None -> ())
            incoming
      | None ->
          (* Untracked phi (e.g. i32): nothing to do. *)
          ())
  | Instr.Select (_, a, b) -> (
      match result_node () with
      | Some rn ->
          List.iter
            (fun v -> match node_of_int v with Some n -> unify rn n | None -> ())
            [ a; b ]
      | None -> ())
  | Instr.Atomic_cas (p, e, r) -> (
      match node_of p with
      | None -> ()
      | Some pn ->
          record_access st ~fname ~instr:i.Instr.id Acc_store pn;
          List.iter
            (fun v -> match node_of_int v with Some n -> unify (deref st pn) n | None -> ())
            [ e; r ];
          (match result_node () with
          | Some rn -> unify rn (deref st pn)
          | None -> ()))
  | Instr.Atomic_add (p, d) -> (
      match node_of p with
      | None -> ()
      | Some pn ->
          record_access st ~fname ~instr:i.Instr.id Acc_store pn;
          (match node_of_int d with
          | Some n -> unify (deref st pn) n
          | None -> ());
          (match result_node () with
          | Some rn -> unify rn (deref st pn)
          | None -> ()))
  | Instr.Membar -> ()
  | Instr.Icmp _ -> ()
  | Instr.Call (callee, args) -> handle_call st ~fname i callee args
  | Instr.Intrinsic (name, args) -> handle_intrinsic st ~fname i name args

(* ---------- driver ---------- *)

let term_transfer st ~fname (f : Func.t) (b : Func.block) =
  match b.Func.term with
  | Instr.Ret (Some v) when tracked_ty st (Value.ty v) -> (
      match node_of_int st ~fname v with
      | Some n -> unify (key_node st (Kret f.Func.f_name)) n
      | None -> ())
  | _ -> ()

let sig_compatible (m : Irmod.t) fn_name (args : Value.t list) ret_ty =
  match Irmod.find_func m fn_name with
  | None -> false
  | Some f ->
      List.length f.Func.f_params = List.length args
      && List.for_all2
           (fun (_, pty) arg -> Ty.equal pty (Value.ty arg))
           f.Func.f_params args
      && (Ty.equal f.Func.f_ret ret_ty || Ty.equal ret_ty Ty.Void)

let resolve_indirects st =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun site ->
        let callee = find site.is_callee in
        List.iter
          (fun fn ->
            if not (List.mem fn site.is_applied) then begin
              site.is_applied <- fn :: site.is_applied;
              changed := true;
              unify_call st ~fname:site.is_func fn site.is_args
                site.is_result_key
            end)
          callee.funcs)
      st.indirects
  done

let mark_syscall_entries st =
  Hashtbl.iter
    (fun _ handler ->
      match Irmod.find_func st.irmod handler with
      | None -> ()
      | Some f ->
          List.iteri
            (fun idx (_, pty) ->
              if Ty.is_pointer pty then begin
                let n = key_node st (Kreg (handler, idx)) in
                set_flag n Userspace
              end)
            f.Func.f_params)
    st.syscalls

let propagate_incompleteness st =
  (* Collect representatives. *)
  let reps = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ n ->
      let r = find n in
      Hashtbl.replace reps r.nid r)
    st.env;
  let seed r =
    (r.extern_seed && not st.cfg.externs_complete)
    || r.nflags land flag_bit Unknown <> 0
    || (r.nflags land flag_bit Userspace <> 0 && not st.cfg.userspace_valid)
  in
  let worklist = ref [] in
  Hashtbl.iter
    (fun _ r ->
      if seed r && not r.incomplete then begin
        r.incomplete <- true;
        worklist := r :: !worklist
      end)
    reps;
  while !worklist <> [] do
    match !worklist with
    | [] -> ()
    | r :: rest -> (
        worklist := rest;
        match r.succ with
        | Some s ->
            let s = find s in
            if not s.incomplete then begin
              s.incomplete <- true;
              worklist := s :: !worklist
            end
        | None -> ())
  done

let run ?(config = default_config) (m : Irmod.t) =
  let st =
    {
      cfg = config;
      irmod = m;
      next_id = 0;
      recording = true;
      env = Hashtbl.create 256;
      accs = [];
      allocs = [];
      frees = [];
      indirects = [];
      syscalls = Hashtbl.create 16;
      interior = Hashtbl.create 256;
      escapes = Hashtbl.create 64;
    }
  in
  (* Global initializers holding symbol addresses create points-to edges
     (e.g. syscall tables, file-operation tables). *)
  List.iter
    (fun (g : Irmod.global) ->
      match g.Irmod.g_init with
      | Irmod.Ptrs syms ->
          let gn = key_node st (Kglobal g.Irmod.g_name) in
          List.iter
            (fun s ->
              let target =
                if Irmod.find_func m s <> None || Irmod.extern_ty m s <> None
                then key_node st (Kfunc s)
                else key_node st (Kglobal s)
              in
              unify (deref st gn) target)
            syms
      | Irmod.Zero | Irmod.Str _ | Irmod.Ints _ -> ())
    m.Irmod.m_globals;
  (* Pre-pass: collect syscall registrations so internal syscalls resolve
     even when registration happens later in program order. *)
  List.iter
    (fun (f : Func.t) ->
      if not (Func.has_attr f Func.Noanalyze) then
        Func.iter_instrs f (fun _ (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Call (Value.Fn (name, _), [ Value.Imm (_, num); Value.Fn (h, _) ])
              when Some name = config.syscall_register ->
                Hashtbl.replace st.syscalls (Int64.to_int num) h
            | Instr.Intrinsic (name, [ Value.Imm (_, num); Value.Fn (h, _) ])
              when Some name = config.syscall_register ->
                Hashtbl.replace st.syscalls (Int64.to_int num) h
            | _ -> ()))
    m.Irmod.m_funcs;
  (* Main transfer pass, iterated to a fixpoint: integer tracking only
     unifies against partitions that already exist, so constraints
     discovered late require another sweep. *)
  let pass () =
    List.iter
      (fun (f : Func.t) ->
        if not (Func.has_attr f Func.Noanalyze) then begin
          let fname = f.Func.f_name in
          Func.iter_instrs f (fun _ i -> transfer st ~fname i);
          List.iter (fun b -> term_transfer st ~fname f b) f.Func.f_blocks
        end)
      m.Irmod.m_funcs;
    resolve_indirects st
  in
  pass ();
  st.recording <- false;
  let rec iterate n =
    let v = !generation in
    pass ();
    if !generation <> v && n < 10 then iterate (n + 1)
  in
  iterate 0;
  mark_syscall_entries st;
  propagate_incompleteness st;
  st

(* ---------- queries ---------- *)

let same_node a b = find a == find b
let node_id n = (find n).nid
let has_flag n f = (find n).nflags land flag_bit f <> 0
let node_ty n = (find n).nty

let is_type_homog n =
  let n = find n in
  (not n.collapsed) && n.nty <> None && n.nflags land flag_bit Unknown = 0

let is_complete n = not (find n).incomplete

let node_succ n =
  match (find n).succ with Some s -> Some (find s) | None -> None

let flags_to_string n =
  let n = find n in
  let s = Buffer.create 8 in
  List.iter
    (fun (f, c) -> if n.nflags land flag_bit f <> 0 then Buffer.add_char s c)
    [ (Global, 'G'); (Heap, 'H'); (Stack, 'S'); (Unknown, 'U'); (Funcs, 'F');
      (Userspace, 'A'); (Bios, 'B') ];
  if n.incomplete then Buffer.add_char s 'I';
  Buffer.contents s

let nodes st =
  let seen = Hashtbl.create 64 in
  Hashtbl.fold
    (fun _ n acc ->
      let r = find n in
      if Hashtbl.mem seen r.nid then acc
      else begin
        Hashtbl.replace seen r.nid ();
        r :: acc
      end)
    st.env []
  |> List.sort (fun a b -> compare a.nid b.nid)

let value_node st ~fname v =
  match v with
  | Value.Reg (id, _, _) -> (
      match Hashtbl.find_opt st.env (Kreg (fname, id)) with
      | Some n -> Some (find n)
      | None -> None)
  | Value.Global (g, _) -> (
      match Hashtbl.find_opt st.env (Kglobal g) with
      | Some n -> Some (find n)
      | None -> None)
  | Value.Fn (f, _) -> (
      match Hashtbl.find_opt st.env (Kfunc f) with
      | Some n -> Some (find n)
      | None -> None)
  | _ -> None

let reg_node st ~fname id =
  match Hashtbl.find_opt st.env (Kreg (fname, id)) with
  | Some n -> Some (find n)
  | None -> None

let global_node st g =
  match Hashtbl.find_opt st.env (Kglobal g) with
  | Some n -> Some (find n)
  | None -> None

let ret_node st fname =
  match Hashtbl.find_opt st.env (Kret fname) with
  | Some n -> Some (find n)
  | None -> None

let accesses st = List.rev st.accs
let alloc_sites st = List.rev st.allocs

let escape_sites st =
  Hashtbl.fold
    (fun (f, instr, slot) (reason, n) acc ->
      ((f, instr, slot), { es_func = f; es_instr = instr; es_reason = reason; es_node = n })
      :: acc)
    st.escapes []
  |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
  |> List.map snd

let callsite_targets st ~fname instr =
  match
    List.find_opt
      (fun s -> s.is_func = fname && s.is_instr = instr)
      st.indirects
  with
  | None -> []
  | Some site ->
      let callee = find site.is_callee in
      let f = Irmod.find_func st.irmod fname in
      let filter_sig =
        match f with
        | Some f -> Func.has_attr f Func.Callsig_assert
        | None -> false
      in
      if filter_sig then
        List.filter
          (fun fn ->
            sig_compatible st.irmod fn site.is_args
              (match Irmod.symbol_ty st.irmod fn with
              | Some (Ty.Func (r, _, _)) -> r
              | _ -> Ty.Void))
          callee.funcs
      else callee.funcs

let syscall_table st =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.syscalls []
  |> List.sort compare

let unify_nodes _st a b = unify a b

let node_count st = List.length (nodes st)

let dump st =
  let buf = Buffer.create 1024 in
  List.iter
    (fun n ->
      let ty =
        match n.nty with
        | Some t -> Ty.to_string t
        | None -> if n.collapsed then "<collapsed>" else "<unknown>"
      in
      Buffer.add_string buf
        (Printf.sprintf "node %d [%s]%s ty=%s" n.nid (flags_to_string n)
           (if is_type_homog n then " TH" else "")
           ty);
      (match n.succ with
      | Some s -> Buffer.add_string buf (Printf.sprintf " -> node %d" (find s).nid)
      | None -> ());
      if n.globset <> [] then
        Buffer.add_string buf (" globals:{" ^ String.concat "," n.globset ^ "}");
      if n.funcs <> [] then
        Buffer.add_string buf (" funcs:{" ^ String.concat "," n.funcs ^ "}");
      Buffer.add_char buf '\n')
    (nodes st);
  Buffer.contents buf

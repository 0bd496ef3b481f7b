(* The SVM's second execution tier: a closure compiler.

   Section 3.4's SVM "can cache translations" of verified bytecode; this
   module is that translator for the OCaml substrate.  A promoted
   function is compiled once into a tree of OCaml closures — one chain
   per basic block, with operands, widths and gep terms resolved at
   translation time, branch targets resolved to block indices, and a
   block-ending compare fused into its branch — so the hot path never
   pays the interpreter's per-instruction constructor dispatch again.
   One loop dispatches the blocks.

   Translations are keyed by the SHA-256 of the function's bytecode and
   recorded as signed cache entries ({!Sva_bytecode.Signing.fentry}).  A
   cache hit re-verifies the signature before reuse and may then skip the
   translation-time bytecode re-verification; a tampered entry is
   discarded and the function re-translated from re-verified bytecode,
   exactly the paper's cached-native-code story.

   The tier must be semantically invisible.  Every compiled closure
   reproduces the interpreter's bookkeeping bit-for-bit: steps, the
   modeled cycle counts (including the splay-comparison and cache-hit
   deltas charged around intrinsics), the step-limit check position, phi
   simultaneity, stack-pointer save/restore, and all error messages.
   The speedup is host wall-clock only. *)

open Sva_ir
module I = Interp
module Machine = Sva_hw.Machine
module Stats = Sva_rt.Stats
module Codec = Sva_bytecode.Codec
module Signing = Sva_bytecode.Signing
module Sha256 = Sva_bytecode.Sha256

(* ---------- per-invocation frame ---------- *)

type frame = {
  regs : int64 array;
  scratch : int64 array;  (* phi staging, sized pf_max_phis *)
  mutable prev : int;  (* predecessor block index; -1 on entry *)
  mutable ret : int64 option;
}

type cvalf = frame -> int64
type cop = frame -> unit

(* Per-step bookkeeping, identical to the interpreter's prologue for
   every instruction and terminator: count, charge one cycle, then the
   step-limit check. *)
let[@inline] tick (t : I.t) =
  t.I.nsteps <- t.I.nsteps + 1;
  t.I.ncycles <- t.I.ncycles + 1;
  match t.I.limit with
  | Some l when t.I.nsteps > l -> I.vm_err "step limit exceeded"
  | _ -> ()

(* ---------- operand fetch specialization ---------- *)

(* Translation-time constant: an immediate, exactly as [I.eval] computes
   it, or the address of a symbol already loaded (addresses, once
   assigned, are never rebound). *)
let const_at (t : I.t) (v : Value.t) : int64 option =
  let addr tbl name = Option.map Int64.of_int (Hashtbl.find_opt tbl name) in
  match v with
  | Value.Imm (Ty.Int w, n) -> Some (Constfold.truncate_to_width w n)
  | Value.Imm (_, n) -> Some n
  | Value.Fimm f -> Some (Int64.bits_of_float f)
  | Value.Null _ | Value.Undef _ -> Some 0L
  | Value.Global (g, _) -> addr t.I.g_addr g
  | Value.Fn (f, _) -> addr t.I.fn_addr f
  | Value.Reg _ -> None

let cval (t : I.t) (v : Value.t) : cvalf =
  match v with
  | Value.Reg (id, _, _) -> fun fr -> fr.regs.(id)
  | _ -> (
      match const_at t v with
      | Some k -> fun _ -> k
      | None ->
          (* a symbol a later link_module may still provide: the
             interpreter's lookup, on every execution *)
          fun _ -> I.eval t [||] v)

(* An operand resolved at translation time, read inline by the
   specialized closures: register [r], or the constant [k] when [r] is
   -1.  [None] for a symbol not loaded yet; such an instruction keeps the
   interpreter's evaluation. *)
let src (t : I.t) (v : Value.t) : (int * int64) option =
  match v with
  | Value.Reg (id, _, _) -> Some (id, 0L)
  | _ -> Option.map (fun k -> (-1, k)) (const_at t v)

let[@inline] get fr r k = if r >= 0 then fr.regs.(r) else k

(* ---------- instruction compilation ---------- *)

(* [Constfold.truncate_to_width w] for 2 <= w, with [sh = 64 - min w 64]. *)
let[@inline] wrap sh v = Int64.shift_right (Int64.shift_left v sh) sh

(* A shift count, as Constfold.eval_binop reads it. *)
let[@inline] amount b = Int64.to_int (Int64.logand b 63L)

(* Integer binops, specialized at translation time by opcode and width:
   the wrap to width is two inline shifts, only the unsigned ops and lshr
   zero-extend (by a precomputed mask), a constant operand is captured,
   and a constant nonzero divisor is not re-tested.  i1 operands and a
   symbol not loaded yet keep Constfold.eval_binop, the interpreter's
   own evaluator, so the semantics cannot drift. *)
let cbinop t fname (i : Instr.t) op x y : cop =
  let id = i.Instr.id in
  match op with
  | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv ->
      let cx = cval t x and cy = cval t y in
      let fop =
        match op with
        | Instr.Fadd -> ( +. )
        | Instr.Fsub -> ( -. )
        | Instr.Fmul -> ( *. )
        | _ -> ( /. )
      in
      fun fr ->
        tick t;
        let fx = Int64.float_of_bits (cx fr) in
        let fy = Int64.float_of_bits (cy fr) in
        fr.regs.(id) <- Int64.bits_of_float (fop fx fy)
  | _ -> (
      let w = I.width_of_value x in
      match (src t x, src t y) with
      | Some (rx, kx), Some (ry, ky) when w >= 2 -> (
          let sh = 64 - min w 64 in
          let m = Constfold.zext_of_width w (-1L) in
          let div_by_zero () = I.vm_err "division by zero in @%s" fname in
          match op with
          | Instr.Add ->
              fun fr ->
                tick t;
                fr.regs.(id) <- wrap sh (Int64.add (get fr rx kx) (get fr ry ky))
          | Instr.Sub ->
              fun fr ->
                tick t;
                fr.regs.(id) <- wrap sh (Int64.sub (get fr rx kx) (get fr ry ky))
          | Instr.Mul ->
              fun fr ->
                tick t;
                fr.regs.(id) <- wrap sh (Int64.mul (get fr rx kx) (get fr ry ky))
          | Instr.And ->
              fun fr ->
                tick t;
                fr.regs.(id) <-
                  wrap sh (Int64.logand (get fr rx kx) (get fr ry ky))
          | Instr.Or ->
              fun fr ->
                tick t;
                fr.regs.(id) <-
                  wrap sh (Int64.logor (get fr rx kx) (get fr ry ky))
          | Instr.Xor ->
              fun fr ->
                tick t;
                fr.regs.(id) <-
                  wrap sh (Int64.logxor (get fr rx kx) (get fr ry ky))
          | Instr.Shl ->
              fun fr ->
                tick t;
                fr.regs.(id) <-
                  wrap sh
                    (Int64.shift_left (get fr rx kx) (amount (get fr ry ky)))
          | Instr.Lshr ->
              fun fr ->
                tick t;
                fr.regs.(id) <-
                  wrap sh
                    (Int64.shift_right_logical
                       (Int64.logand (get fr rx kx) m)
                       (amount (get fr ry ky)))
          | Instr.Ashr ->
              fun fr ->
                tick t;
                fr.regs.(id) <-
                  wrap sh
                    (Int64.shift_right (get fr rx kx) (amount (get fr ry ky)))
          | Instr.Sdiv | Instr.Srem | Instr.Udiv | Instr.Urem
            when ry < 0 && ky = 0L ->
              fun _ ->
                tick t;
                div_by_zero ()
          (* only a divisor in a register is tested for zero *)
          | Instr.Sdiv ->
              fun fr ->
                tick t;
                let b = get fr ry ky in
                if ry >= 0 && b = 0L then div_by_zero ();
                fr.regs.(id) <- wrap sh (Int64.div (get fr rx kx) b)
          | Instr.Srem ->
              fun fr ->
                tick t;
                let b = get fr ry ky in
                if ry >= 0 && b = 0L then div_by_zero ();
                fr.regs.(id) <- wrap sh (Int64.rem (get fr rx kx) b)
          | Instr.Udiv ->
              fun fr ->
                tick t;
                let b = get fr ry ky in
                if ry >= 0 && b = 0L then div_by_zero ();
                fr.regs.(id) <-
                  wrap sh
                    (Int64.unsigned_div
                       (Int64.logand (get fr rx kx) m)
                       (Int64.logand b m))
          | _ (* Urem *) ->
              fun fr ->
                tick t;
                let b = get fr ry ky in
                if ry >= 0 && b = 0L then div_by_zero ();
                fr.regs.(id) <-
                  wrap sh
                    (Int64.unsigned_rem
                       (Int64.logand (get fr rx kx) m)
                       (Int64.logand b m)))
      | _ ->
          let cx = cval t x and cy = cval t y in
          fun fr ->
            tick t;
            let a = cx fr in
            let b = cy fr in
            (match Constfold.eval_binop op w a b with
            | Some r -> fr.regs.(id) <- r
            | None -> I.vm_err "division by zero in @%s" fname))

(* Compares.  Every predicate is equality, signed less-than or unsigned
   less-than of its operands, possibly swapped, possibly negated:
   [op x y = base a b <> neg]. *)
type cmp_base = Beq | Blt | Bult

let decompose (op : Instr.icmp) =
  match op with
  | Instr.Eq -> (Beq, false, false)
  | Instr.Ne -> (Beq, false, true)
  | Instr.Slt -> (Blt, false, false)
  | Instr.Sge -> (Blt, false, true)
  | Instr.Sgt -> (Blt, true, false)
  | Instr.Sle -> (Blt, true, true)
  | Instr.Ult -> (Bult, false, false)
  | Instr.Uge -> (Bult, false, true)
  | Instr.Ugt -> (Bult, true, false)
  | Instr.Ule -> (Bult, true, true)

(* Unsigned less-than of [a] and [b] zero-extended by the mask [m]:
   Int64.unsigned_compare, inline. *)
let[@inline] ult m a b =
  Int64.logxor (Int64.logand a m) Int64.min_int
  < Int64.logxor (Int64.logand b m) Int64.min_int

(* A compare specialized at translation time by predicate and width, its
   operands resolved; [None] when an operand is a symbol not loaded yet.
   Only the unsigned predicates zero-extend. *)
let spec_icmp t op x y =
  let w = I.width_of_value x in
  match (src t x, src t y) with
  | Some sx, Some sy ->
      let base, swap, neg = decompose op in
      let (ra, ka), (rb, kb) = if swap then (sy, sx) else (sx, sy) in
      Some (base, neg, ra, ka, rb, kb, Constfold.zext_of_width w (-1L))
  | _ -> None

let cicmp t (i : Instr.t) op x y : cop =
  let id = i.Instr.id in
  match spec_icmp t op x y with
  | Some (Beq, neg, ra, ka, rb, kb, _) ->
      fun fr ->
        tick t;
        fr.regs.(id) <-
          (if get fr ra ka = get fr rb kb <> neg then 1L else 0L)
  | Some (Blt, neg, ra, ka, rb, kb, _) ->
      fun fr ->
        tick t;
        fr.regs.(id) <-
          (if get fr ra ka < get fr rb kb <> neg then 1L else 0L)
  | Some (Bult, neg, ra, ka, rb, kb, m) ->
      fun fr ->
        tick t;
        fr.regs.(id) <-
          (if ult m (get fr ra ka) (get fr rb kb) <> neg then 1L else 0L)
  | None ->
      let w = I.width_of_value x in
      let cx = cval t x and cy = cval t y in
      fun fr ->
        tick t;
        let a = cx fr in
        let b = cy fr in
        fr.regs.(id) <- (if Constfold.eval_icmp op w a b then 1L else 0L)

(* Gep: fold the index walk at compile time into a static byte offset
   plus at most one dynamic (scale * register) term.  Two or more
   register indices (MiniC's lowering emits one gep per subscript, so
   the kernel has none), a dynamically-indexed struct, an operand naming
   a symbol not loaded yet, or any walk this decomposition cannot prove
   out falls back to the interpreter's own gep_offset so errors and
   semantics match exactly. *)
let cgep t (i : Instr.t) (base : Value.t) idxs : cop =
  let id = i.Instr.id in
  let pointee = Ty.pointee (Value.ty base) in
  let generic () =
    let cbase = cval t base in
    (* offset first, base second — the interpreter's order *)
    fun fr ->
      tick t;
      let off = I.gep_offset t pointee fr.regs idxs in
      fr.regs.(id) <- Int64.add (cbase fr) off
  in
  match
    let konst = ref 0L in
    let terms = ref [] in
    let add_idx scale v =
      match (v, const_at t v) with
      | _, Some n -> konst := Int64.add !konst (Int64.mul n scale)
      | Value.Reg (r, _, _), None -> terms := (scale, r) :: !terms
      | _ -> raise Exit
    in
    (match idxs with
    | first :: rest ->
        add_idx (Int64.of_int (I.sizeof t pointee)) first;
        let rec descend ty = function
          | [] -> ()
          | idx :: more -> (
              match ty with
              | Ty.Array (e, _) ->
                  add_idx (Int64.of_int (I.sizeof t e)) idx;
                  descend e more
              | Ty.Struct sname -> (
                  match const_at t idx with
                  | Some n ->
                      let foff, fty =
                        Ty.field_at t.I.im_mod.Irmod.m_ctx sname
                          (Int64.to_int n)
                      in
                      konst := Int64.add !konst (Int64.of_int foff);
                      descend fty more
                  | None -> raise Exit)
              | _ -> raise Exit)
        in
        descend pointee rest
    | [] -> raise Exit);
    match src t base with
    | Some (rb, kb) -> (rb, kb, !konst, !terms)
    | None -> raise Exit
  with
  | exception _ -> generic ()
  | rb, kb, k, [] ->
      fun fr ->
        tick t;
        fr.regs.(id) <- Int64.add (get fr rb kb) k
  | rb, kb, k, [ (s, r) ] ->
      fun fr ->
        tick t;
        let off = Int64.add k (Int64.mul fr.regs.(r) s) in
        fr.regs.(id) <- Int64.add (get fr rb kb) off
  | _ -> generic ()

(* Calls.  A compiled call site shares the interpreter's per-site callee
   cache: a callee already resolved by interpreted runs is inlined, and
   one resolved later is memoized for both tiers.  Callees always
   re-enter through [I.enter], so compiled code can call interpreted
   functions and trigger their promotion. *)
let ccall t (i : Instr.t) (callee : Value.t) (cargs : Value.t array)
    (cache : I.prepared_func I.callee_cache) : cop =
  let id = i.Instr.id in
  let evs = Array.map (cval t) cargs in
  let argv fr = Array.to_list (Array.map (fun ev -> ev fr) evs) in
  let set fr res =
    match res with Some v -> fr.regs.(id) <- v | None -> ()
  in
  let direct cpf fr =
    tick t;
    set fr (I.enter t cpf (argv fr))
  in
  match cache.I.cc with
  | I.Cc_func cpf -> direct cpf
  | I.Cc_builtin name ->
      fun fr ->
        tick t;
        set fr (I.builtin t name (Array.of_list (argv fr)))
  | I.Cc_unresolved -> (
      match callee with
      | Value.Fn (name, _) -> (
          match Hashtbl.find_opt t.I.funcs name with
          | Some cpf ->
              cache.I.cc <- I.Cc_func cpf;
              direct cpf
          | None ->
              (* Unresolved at translation time: the defining module may
                 be linked later.  Resolve on first execution, memoizing
                 into the shared per-site cache like the interpreter. *)
              fun fr ->
                tick t;
                let args = argv fr in
                let res =
                  match cache.I.cc with
                  | I.Cc_func cpf -> I.enter t cpf args
                  | I.Cc_builtin nm -> I.builtin t nm (Array.of_list args)
                  | I.Cc_unresolved -> (
                      match Hashtbl.find_opt t.I.funcs name with
                      | Some cpf ->
                          cache.I.cc <- I.Cc_func cpf;
                          I.enter t cpf args
                      | None ->
                          if I.is_builtin name then begin
                            cache.I.cc <- I.Cc_builtin name;
                            I.builtin t name (Array.of_list args)
                          end
                          else
                            I.vm_err "call to undefined function @%s" name)
                in
                set fr res)
      | _ ->
          let ctarget = cval t callee in
          fun fr ->
            tick t;
            let args = argv fr in
            let target = I.to_addr (ctarget fr) in
            (match I.func_name t target with
            | Some name -> set fr (I.dispatch_call t name args)
            | None ->
                I.vm_err "indirect call to non-code address 0x%x" target))

(* Intrinsics: pre-compiled operand fetches feeding the interpreter's
   [I.run_intr], which executes and charges them.  A [pchk_funccheck]
   site whose allowed functions are all loaded gets its target set now,
   built by the interpreter's [I.funccheck_set] into the site's cache
   that both engines share, and evaluates only its target. *)
let cintr t (i : Instr.t) intr (vargs : Value.t array) cost_native
    cost_mediated : cop =
  let id = i.Instr.id in
  let has_result = i.Instr.ty <> Ty.Void in
  let general () =
    let evs = Array.map (cval t) vargs in
    fun fr ->
      tick t;
      match
        I.run_intr t intr vargs
          (Array.map (fun ev -> ev fr) evs)
          cost_native cost_mediated
      with
      | Some v -> if has_result then fr.regs.(id) <- v
      | None -> ()
  in
  match intr with
  | I.I_pchk_funccheck (Some c) -> (
      (* the operands' addresses, the target's left 0 *)
      let addrs =
        Array.mapi (fun k v -> if k = 0 then Some 0L else const_at t v) vargs
      in
      if not (Array.for_all Option.is_some addrs) then general ()
      else begin
        if c.I.fc_set = None then
          c.I.fc_set <- Some (I.funccheck_set vargs (Array.map Option.get addrs));
        let ctarget = cval t vargs.(0) in
        fun fr ->
          tick t;
          ignore
            (I.run_intr t intr vargs [| ctarget fr |] cost_native cost_mediated)
      end)
  | _ -> general ()

(* One instruction to one closure.  A compile-time error (bad width, gep
   into a scalar, ...) is deferred to execution time, where the
   interpreter would raise it — after the same bookkeeping. *)
let cinsn t fname (p : I.pinsn) : cop =
  let compile () =
    match p with
    | I.P_intr (i, intr, vargs, cn, cm) -> cintr t i intr vargs cn cm
    | I.P_call (i, callee, cargs, cache) -> ccall t i callee cargs cache
    | I.P_base i -> (
        let id = i.Instr.id in
        match i.Instr.kind with
        | Instr.Binop (op, x, y) -> cbinop t fname i op x y
        | Instr.Icmp (op, x, y) -> cicmp t i op x y
        | Instr.Alloca (ty, count) ->
            let es = I.sizeof t ty in
            let ccount = cval t count in
            fun fr ->
              tick t;
              let n = Int64.to_int (ccount fr) in
              let size = max 1 (es * max 1 n) in
              t.I.sp <- (t.I.sp + 15) / 16 * 16;
              if t.I.sp + size > Machine.stack_base + Machine.stack_size
              then I.vm_err "kernel stack overflow";
              let addr = t.I.sp in
              t.I.sp <- t.I.sp + size;
              fr.regs.(id) <- Int64.of_int addr
        (* Loads, stores and atomics go through the VM's frame cache
           (Interp.mem_read_cached); the address is converted inline,
           not by a call to I.to_addr. *)
        | Instr.Load p -> (
            let w = I.ty_width i.Instr.ty in
            match src t p with
            | Some (r, k) ->
                fun fr ->
                  tick t;
                  fr.regs.(id) <-
                    I.mem_read_cached t
                      ~addr:(Int64.to_int (get fr r k))
                      ~width:w
            | None ->
                let cp = cval t p in
                fun fr ->
                  tick t;
                  fr.regs.(id) <-
                    I.mem_read_cached t ~addr:(Int64.to_int (cp fr)) ~width:w)
        | Instr.Store (v, p) -> (
            let w = I.ty_width (Value.ty v) in
            match (src t v, src t p) with
            | Some (rv, kv), Some (r, k) ->
                fun fr ->
                  tick t;
                  I.mem_write_cached t
                    ~addr:(Int64.to_int (get fr r k))
                    ~width:w (get fr rv kv)
            | _ ->
                let cv = cval t v and cp = cval t p in
                fun fr ->
                  tick t;
                  I.mem_write_cached t
                    ~addr:(Int64.to_int (cp fr))
                    ~width:w (cv fr))
        | Instr.Gep (base, idxs) -> cgep t i base idxs
        | Instr.Cast (op, x, ty) -> (
            (* the copies, trunc and zext specialized by width; an
               operand naming a symbol not loaded yet keeps Constfold's
               evaluators *)
            let cx = cval t x in
            match (op, ty, src t x) with
            | (Instr.Bitcast | Instr.Inttoptr | Instr.Ptrtoint | Instr.Sext), _,
              Some (r, k) ->
                fun fr ->
                  tick t;
                  fr.regs.(id) <- get fr r k
            | Instr.Trunc, Ty.Int w, Some (r, k) when w >= 2 ->
                let sh = 64 - min w 64 in
                fun fr ->
                  tick t;
                  fr.regs.(id) <- wrap sh (get fr r k)
            | Instr.Zext, _, Some (r, k) ->
                let m = Constfold.zext_of_width (I.width_of_value x) (-1L) in
                fun fr ->
                  tick t;
                  fr.regs.(id) <- Int64.logand (get fr r k) m
            | (Instr.Bitcast | Instr.Inttoptr | Instr.Ptrtoint | Instr.Sext), _, _
              ->
                fun fr ->
                  tick t;
                  fr.regs.(id) <- cx fr
            | Instr.Trunc, Ty.Int w, _ ->
                fun fr ->
                  tick t;
                  fr.regs.(id) <- Constfold.truncate_to_width w (cx fr)
            | Instr.Trunc, _, _ -> I.vm_err "trunc to non-integer"
            | Instr.Zext, _, _ ->
                let sw = I.width_of_value x in
                fun fr ->
                  tick t;
                  fr.regs.(id) <- Constfold.zext_of_width sw (cx fr)
            | Instr.Fptosi, _, _ ->
                fun fr ->
                  tick t;
                  fr.regs.(id) <-
                    Int64.of_float (Int64.float_of_bits (cx fr))
            | Instr.Sitofp, _, _ ->
                fun fr ->
                  tick t;
                  fr.regs.(id) <-
                    Int64.bits_of_float (Int64.to_float (cx fr)))
        | Instr.Select (c, x, y) ->
            let cc = cval t c and cx = cval t x and cy = cval t y in
            fun fr ->
              tick t;
              fr.regs.(id) <- (if cc fr <> 0L then cx fr else cy fr)
        | Instr.Malloc (ty, count) ->
            let es = I.sizeof t ty in
            let ccount = cval t count in
            fun fr ->
              tick t;
              let n = Int64.to_int (ccount fr) in
              fr.regs.(id) <- Int64.of_int (I.heap_alloc t (es * max 1 n))
        | Instr.Free p ->
            let cp = cval t p in
            fun fr ->
              tick t;
              I.heap_free t (I.to_addr (cp fr))
        | Instr.Atomic_cas (p, e, r) ->
            let w = I.ty_width (Value.ty e) in
            let cp = cval t p and ce = cval t e and cr = cval t r in
            fun fr ->
              tick t;
              let addr = Int64.to_int (cp fr) in
              let old = I.mem_read_cached t ~addr ~width:w in
              if old = ce fr then I.mem_write_cached t ~addr ~width:w (cr fr);
              fr.regs.(id) <- old
        | Instr.Atomic_add (p, d) ->
            let w = I.ty_width (Value.ty d) in
            let cp = cval t p and cd = cval t d in
            fun fr ->
              tick t;
              let addr = Int64.to_int (cp fr) in
              let old = I.mem_read_cached t ~addr ~width:w in
              I.mem_write_cached t ~addr ~width:w (Int64.add old (cd fr));
              fr.regs.(id) <- old
        | Instr.Membar -> fun _ -> tick t
        | Instr.Intrinsic _ | Instr.Call _ | Instr.Phi _ -> assert false)
  in
  match compile () with
  | c -> c
  | exception e ->
      fun _ ->
        tick t;
        raise e

(* ---------- block compilation ---------- *)

type cblock = {
  cb_phis : cop option;
  cb_body : cop array;
  cb_term : frame -> int;  (* next block index; -1 = return *)
}

(* Compile a terminator.  [bi] is this block's index: the interpreter
   records [prev] after the terminator's bookkeeping, before evaluating
   its operand. *)
let cterm t fname bi (term : I.pterm) : frame -> int =
  match term with
  | I.P_ret None ->
      fun fr ->
        tick t;
        fr.prev <- bi;
        fr.ret <- None;
        -1
  | I.P_ret (Some v) ->
      let cv = cval t v in
      fun fr ->
        tick t;
        fr.prev <- bi;
        fr.ret <- Some (cv fr);
        -1
  | I.P_jmp ix ->
      fun fr ->
        tick t;
        fr.prev <- bi;
        ix
  | I.P_br (c, th, el) ->
      let cc = cval t c in
      fun fr ->
        tick t;
        fr.prev <- bi;
        if cc fr <> 0L then th else el
  | I.P_switch (v, cases, default) ->
      let cv = cval t v in
      let n = Array.length cases in
      fun fr ->
        tick t;
        fr.prev <- bi;
        let x = cv fr in
        let rec go k =
          if k >= n then default
          else
            let c, ix = cases.(k) in
            if Int64.equal c x then ix else go (k + 1)
        in
        go 0
  | I.P_unreachable ->
      fun fr ->
        tick t;
        fr.prev <- bi;
        I.vm_err "reached 'unreachable' in @%s" fname

(* Fused compare+branch: the icmp result is still written (later blocks
   may read it through phis), and both halves keep their own bookkeeping
   so the counters and the limit-trap position are unchanged. *)
let fuse_icmp_br t bi (ic : Instr.t) op x y th el : frame -> int =
  let cmp = cicmp t ic op x y in
  let iid = ic.Instr.id in
  fun fr ->
    cmp fr;
    tick t;
    fr.prev <- bi;
    if fr.regs.(iid) <> 0L then th else el

let cphis t (labels : string array) (pb : I.pblock) : cop option =
  let phis = pb.I.pb_phis in
  let n = Array.length phis in
  if n = 0 then None
  else
    let dests = Array.map fst phis in
    let comp =
      Array.map
        (fun (_, incoming) -> Array.map (Option.map (cval t)) incoming)
        phis
    in
    let label = pb.I.pb_label in
    Some
      (fun fr ->
        for k = 0 to n - 1 do
          let inc = comp.(k) in
          match (if fr.prev >= 0 then inc.(fr.prev) else None) with
          | Some cv -> fr.scratch.(k) <- cv fr
          | None ->
              I.vm_err "phi in %%%s has no incoming for %%%s" label
                (if fr.prev >= 0 then labels.(fr.prev) else "")
        done;
        for k = 0 to n - 1 do
          fr.regs.(dests.(k)) <- fr.scratch.(k)
        done;
        t.I.nsteps <- t.I.nsteps + n;
        t.I.ncycles <- t.I.ncycles + n)

let cblock t fname (labels : string array) bi (pb : I.pblock) : cblock =
  let body = pb.I.pb_body in
  let nbody = Array.length body in
  (* Fused compare+branch consumes the last body instruction when it
     produces exactly the branch condition. *)
  let term_fused, body_end =
    match pb.I.pb_term with
    | I.P_br (Value.Reg (cid, _, _), th, el) when nbody > 0 -> (
        match body.(nbody - 1) with
        | I.P_base ({ Instr.kind = Instr.Icmp (op, x, y); _ } as ic)
          when ic.Instr.id = cid -> (
            match fuse_icmp_br t bi ic op x y th el with
            | f -> (Some f, nbody - 1)
            | exception _ -> (None, nbody))
        | _ -> (None, nbody))
    | _ -> (None, nbody)
  in
  {
    cb_phis = cphis t labels pb;
    cb_body = Array.init body_end (fun k -> cinsn t fname body.(k));
    cb_term =
      (match term_fused with
      | Some f -> f
      | None -> cterm t fname bi pb.I.pb_term);
  }

(* ---------- function compilation ---------- *)

let build (t : I.t) (pf : I.prepared_func) : int64 list -> int64 option =
  let f = pf.I.pf in
  let fname = f.Func.f_name in
  let nregs = max 1 f.Func.f_next_reg in
  let nscratch = max 1 pf.I.pf_max_phis in
  let labels = Array.map (fun b -> b.I.pb_label) pf.I.pf_blocks in
  let blocks = Array.mapi (cblock t fname labels) pf.I.pf_blocks in
  let run_block (cb : cblock) fr =
    (match cb.cb_phis with Some p -> p fr | None -> ());
    let body = cb.cb_body in
    for k = 0 to Array.length body - 1 do
      body.(k) fr
    done;
    cb.cb_term fr
  in
  fun args ->
    let fr =
      {
        regs = Array.make nregs 0L;
        scratch = Array.make nscratch 0L;
        prev = -1;
        ret = None;
      }
    in
    List.iteri (fun i v -> if i < nregs then fr.regs.(i) <- v) args;
    let sp_save = t.I.sp in
    let cur = ref 0 in
    let running = ref true in
    while !running do
      let nxt = run_block blocks.(!cur) fr in
      if nxt < 0 then running := false else cur := nxt
    done;
    (* Restored only on normal return, like the interpreter: a trap
       unwinds through [I.call], which resets the stack allocator. *)
    t.I.sp <- sp_save;
    fr.ret

(* ---------- the signed translation cache ---------- *)

let cache : (string, Signing.fentry) Hashtbl.t = Hashtbl.create 64

let native_artifact ~bytecode = Sha256.hex ("svm-closcomp-v1:" ^ bytecode)
let key_of_func f = Sha256.hex (Codec.encode_func f)

(* Translation-time bytecode re-verification: the function must decode
   from its bytecode and round-trip bit-exactly.  This is the work a
   valid signed cache entry lets the SVM skip. *)
let reverify fname bytecode =
  let ok =
    match Codec.decode_func bytecode with
    | f2 -> String.equal (Codec.encode_func f2) bytecode
    | exception Codec.Decode_error _ -> false
  in
  if not ok then
    I.vm_err "translation: bytecode re-verification failed for @%s" fname

let clear_cache () = Hashtbl.reset cache
let cache_size () = Hashtbl.length cache
let cached_entry key = Hashtbl.find_opt cache key

let tamper_cached key f =
  match Hashtbl.find_opt cache key with
  | None -> false
  | Some e ->
      Hashtbl.replace cache key (f e);
      true

let translate (t : I.t) (pf : I.prepared_func) : int64 list -> int64 option =
  Stats.bump_promotion ();
  let fname = pf.I.pf.Func.f_name in
  (* Tier events are the one deliberate divergence between the two
     engines' traces: the interpreter never translates.  The
     event-identity tests filter them out before comparing streams. *)
  if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tier_promote fname;
  let bytecode = Codec.encode_func pf.I.pf in
  let key = Sha256.hex bytecode in
  let native = native_artifact ~bytecode in
  (* Section 3.4: a miss (or a cached translation whose signature does
     not verify) re-translates from re-verified bytecode, re-signs the
     result, and persists it for the next process. *)
  let fresh ~disk_stale =
    Stats.bump_tcache_miss ();
    if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_miss fname;
    if disk_stale then begin
      Stats.bump_tcache_disk_stale ();
      if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_disk_stale fname
    end;
    reverify fname bytecode;
    let e = Signing.sign_function ~name:fname ~bytecode ~native in
    Hashtbl.replace cache key e;
    if Tcache_disk.store e then begin
      Stats.bump_tcache_disk_write ();
      if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_disk_write fname
    end
  in
  (* In-memory miss: probe the persistent store.  A decodable on-disk
     entry gets the same signature verification an in-memory one does;
     anything structurally broken, tampered or stale falls back to a
     fresh translation (which overwrites the bad file). *)
  let from_disk () =
    match Tcache_disk.probe ~key with
    | Tcache_disk.Absent -> fresh ~disk_stale:false
    | Tcache_disk.Corrupt _ -> fresh ~disk_stale:true
    | Tcache_disk.Entry e -> (
        Stats.bump_sig_verification ();
        match Signing.verify_function e ~bytecode ~native with
        | () ->
            Stats.bump_tcache_hit ();
            Stats.bump_tcache_disk_hit ();
            if !Sva_rt.Trace.active then
              Sva_rt.Trace.emit_tcache_disk_hit fname;
            Hashtbl.replace cache key e
        | exception Signing.Tampered _ -> fresh ~disk_stale:true)
  in
  (match Hashtbl.find_opt cache key with
  | Some e -> (
      Stats.bump_sig_verification ();
      match Signing.verify_function e ~bytecode ~native with
      | () ->
          Stats.bump_tcache_hit ();
          if !Sva_rt.Trace.active then Sva_rt.Trace.emit_tcache_hit fname
      | exception Signing.Tampered _ -> from_disk ())
  | None -> from_disk ());
  build t pf

let enable ?(threshold = 1) (t : I.t) =
  if threshold <> 1 then
    invalid_arg "Closcomp.enable: only ~threshold:1 (the tiered engine was deleted)";
  I.set_jit t (Some translate)

(* Whole-kernel ahead-of-time mode: translate every loaded function at
   instantiate time (deterministic name order), so the first call of
   every function already runs compiled and a populated persistent store
   makes a second process boot hot.  Translation is host work — modeled
   cycles, steps and check counters are untouched, so AOT output is
   bit-identical to the interpreter's. *)
let compile_all (t : I.t) =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.I.funcs [] in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.I.funcs name with
      | Some pf -> (
          match pf.I.pf_entry with
          | Some _ -> ()
          | None -> pf.I.pf_entry <- Some (translate t pf))
      | None -> ())
    (List.sort String.compare names)

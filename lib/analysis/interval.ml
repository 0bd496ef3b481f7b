(* Value-range abstract interpretation over the SVA IR (SSA form).

   An untrusted analysis in the Section 5 spirit: intervals are computed
   with widening/narrowing and branch-sensitive refinement, and every
   range used to elide a run-time check is exported as a *certificate*
   that the small trusted checker ({!Sva_tyck.Rangecert}) re-verifies
   with purely local rules.  Interval itself therefore stays out of the
   TCB; only the pure arithmetic kernel at the top of this file is
   shared with the checker (and exercised by {!selftest} against
   {!Constfold} on concrete values). *)

open Sva_ir

module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* The interval domain: the pure arithmetic kernel.                    *)
(* ------------------------------------------------------------------ *)

(* [Iv (lo, hi)]: None is the infinite bound on that side.  Values are
   the SVM's canonical register representation (sign-extended w-bit
   two's complement), so bounds are ordinary signed int64s. *)
type ival = Bot | Iv of int64 option * int64 option

let top = Iv (None, None)
let const n = Iv (Some n, Some n)
let range lo hi = if lo > hi then Bot else Iv (Some lo, Some hi)
let is_top = function Iv (None, None) -> true | _ -> false
let is_bot = function Bot -> true | _ -> false

(* Bound order: [lo_le] treats None as -inf, [hi_le] treats None as
   +inf. *)
let lo_le a b =
  match (a, b) with
  | None, _ -> true
  | _, None -> false
  | Some x, Some y -> x <= y

let hi_le a b =
  match (a, b) with
  | _, None -> true
  | None, _ -> false
  | Some x, Some y -> x <= y

let lo_min a b = if lo_le a b then a else b
let lo_max a b = if lo_le a b then b else a
let hi_min a b = if hi_le a b then a else b
let hi_max a b = if hi_le a b then b else a
let norm lo hi = match (lo, hi) with
  | Some l, Some h when l > h -> Bot
  | _ -> Iv (lo, hi)

let bound_eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Int64.equal x y
  | _ -> false

let equal_ival a b =
  a == b
  ||
  match (a, b) with
  | Bot, Bot -> true
  | Iv (l1, h1), Iv (l2, h2) -> bound_eq l1 l2 && bound_eq h1 h2
  | _ -> false

(* The lattice operations below return an argument itself whenever the
   result equals it, so an unchanged environment slot stays physically
   unchanged and the element-wise environment operations can share it. *)
let reuse a b lo hi =
  match (a, b) with
  | Iv (l1, h1), _ when bound_eq lo l1 && bound_eq hi h1 -> a
  | _, Iv (l2, h2) when bound_eq lo l2 && bound_eq hi h2 -> b
  | _ -> Iv (lo, hi)

let join_ival a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Iv (l1, h1), Iv (l2, h2) -> reuse a b (lo_min l1 l2) (hi_max h1 h2)

let meet_ival a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, h1), Iv (l2, h2) -> (
      let lo = lo_max l1 l2 and hi = hi_min h1 h2 in
      match (lo, hi) with
      | Some l, Some h when l > h -> Bot
      | _ -> reuse a b lo hi)

let subset a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Iv (l1, h1), Iv (l2, h2) -> lo_le l2 l1 && hi_le h1 h2

let contains iv n = subset (const n) iv

(* Classic interval widening: any bound that moved jumps to infinity.
   Returns an upper bound of both arguments. *)
let widen_ival old cur =
  match (old, cur) with
  | Bot, x | x, Bot -> x
  | Iv (l1, h1), Iv (l2, h2) ->
      reuse old cur
        (if lo_le l1 l2 then l1 else None)
        (if hi_le h2 h1 then h1 else None)

(* The canonical value range of a w-bit register, one shared value per
   width. *)
let width_ranges =
  Array.init 65 (fun w ->
      if w >= 64 then top
      else if w <= 1 then range 0L 1L
      else
        let p = Int64.shift_left 1L (w - 1) in
        range (Int64.neg p) (Int64.sub p 1L))

let width_range w =
  width_ranges.(if w >= 64 then 64 else if w < 0 then 0 else w)

(* Sound post-op clamp at width [w]: if the exact interval fits inside
   the representable range, the wrapped result equals the exact one on
   every concrete point; otherwise give up to the full width range. *)
let wrap w iv =
  match iv with
  | Bot -> Bot
  | _ -> if subset iv (width_range w) then iv else width_range w

(* -- overflow-checked bound arithmetic (None = infinity) -- *)

let badd a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y ->
      let s = Int64.add x y in
      if x >= 0L = (y >= 0L) && s >= 0L <> (x >= 0L) then None else Some s

let bneg = function
  | None -> None
  | Some x -> if x = Int64.min_int then None else Some (Int64.neg x)

let add_iv a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (l1, h1), Iv (l2, h2) -> Iv (badd l1 l2, badd h1 h2)

let neg_iv = function Bot -> Bot | Iv (l, h) -> Iv (bneg h, bneg l)
let sub_iv a b = add_iv a (neg_iv b)

let bmul x y =
  if x = 0L || y = 0L then Some 0L
  else if (x = Int64.min_int && y = -1L) || (y = Int64.min_int && x = -1L)
  then None
  else
    let p = Int64.mul x y in
    if Int64.div p y = x then Some p else None

let mul_iv a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv (Some l1, Some h1), Iv (Some l2, Some h2) -> (
      let ps = [ bmul l1 l2; bmul l1 h2; bmul h1 l2; bmul h1 h2 ] in
      if List.mem None ps then top
      else
        match List.filter_map Fun.id ps with
        | v :: vs ->
            range (List.fold_left min v vs) (List.fold_left max v vs)
        | [] -> top)
  | _ -> top

let nonneg = function Iv (Some l, _) -> l >= 0L | Bot -> true | _ -> false
let hi_of = function Iv (_, h) -> h | Bot -> None
let as_const = function Iv (Some l, Some h) when l = h -> Some l | _ -> None

(* Fill every bit at or below the most significant set bit. *)
let smear v =
  let v = Int64.logor v (Int64.shift_right_logical v 1) in
  let v = Int64.logor v (Int64.shift_right_logical v 2) in
  let v = Int64.logor v (Int64.shift_right_logical v 4) in
  let v = Int64.logor v (Int64.shift_right_logical v 8) in
  let v = Int64.logor v (Int64.shift_right_logical v 16) in
  Int64.logor v (Int64.shift_right_logical v 32)

(* Monotone map over both bounds. *)
let map_bounds f = function
  | Bot -> Bot
  | Iv (l, h) -> Iv (Option.map f l, Option.map f h)

(* Every 64-bit value is an int64: infinite bounds can be clamped to the
   type limits, after which a [None] bound in a 64-bit arithmetic result
   can only mean the mathematical value overflowed (wrapped). *)
let clamp64 = function
  | Bot -> Bot
  | Iv (l, h) ->
      Iv ((match l with None -> Some Int64.min_int | s -> s),
          (match h with None -> Some Int64.max_int | s -> s))

(* Abstract transfer for [Instr.Binop (op, a, b)] at result width [w].
   Must over-approximate {!Constfold.eval_binop}'s concrete semantics
   (wrap-around at [w]; division by zero traps, so the continuing path
   may assume any claim). *)
let eval_binop op w a0 b0 =
  if is_bot a0 || is_bot b0 then Bot
  else
    (* operands are canonical at [w]; at w=64 additionally clamp the
       infinite bounds so overflow is detectable below *)
    let canon v =
      let v = meet_ival v (width_range w) in
      if w >= 64 then clamp64 v else v
    in
    let a = canon a0 and b = canon b0 in
    if is_bot a || is_bot b then Bot
  else
    (* at w=64 a [None] bound after finite-input arithmetic means the
       exact result wrapped: give up to top *)
    let wrap w iv =
      if w >= 64 then
        match iv with Bot -> Bot | Iv (Some _, Some _) -> iv | _ -> top
      else wrap w iv
    in
    let fallback = width_range w in
    match (op : Instr.binop) with
    | Instr.Add -> wrap w (add_iv a b)
    | Instr.Sub -> wrap w (sub_iv a b)
    | Instr.Mul -> wrap w (mul_iv a b)
    | Instr.And -> (
        let masked m = if m >= 0L then range 0L m else fallback in
        match (as_const a, as_const b) with
        | _, Some m -> wrap w (masked m)
        | Some m, _ -> wrap w (masked m)
        | None, None ->
            if nonneg a && nonneg b then
              match (hi_of a, hi_of b) with
              | Some ha, Some hb -> wrap w (range 0L (min ha hb))
              | _ -> fallback
            else fallback)
    | Instr.Or | Instr.Xor ->
        if nonneg a && nonneg b then
          match (hi_of a, hi_of b) with
          | Some ha, Some hb -> wrap w (range 0L (smear (Int64.logor ha hb)))
          | _ -> fallback
        else fallback
    | Instr.Shl -> (
        match as_const b with
        | Some s when s >= 0L && s <= 62L ->
            wrap w (mul_iv a (const (Int64.shift_left 1L (Int64.to_int s))))
        | _ -> fallback)
    | Instr.Lshr -> (
        match as_const b with
        | Some 0L -> wrap w a
        | Some s when s >= 1L && s <= 63L ->
            let s = Int64.to_int s in
            let base =
              if w >= 64 then range 0L (Int64.shift_right_logical (-1L) s)
              else if w - s <= 0 then const 0L
              else range 0L (Int64.sub (Int64.shift_left 1L (w - s)) 1L)
            in
            let tight =
              if nonneg a then map_bounds (fun x -> Int64.shift_right x s) a
              else top
            in
            wrap w (meet_ival base tight)
        | _ ->
            (* shift amount unknown: an unsigned shift of a nonneg value
               only shrinks it *)
            if nonneg a then
              match hi_of a with
              | Some h -> wrap w (range 0L h)
              | None -> Iv (Some 0L, None)
            else fallback)
    | Instr.Ashr -> (
        match as_const b with
        | Some s when s >= 0L && s <= 63L ->
            wrap w (map_bounds (fun x -> Int64.shift_right x (Int64.to_int s)) a)
        | _ ->
            if nonneg a then
              match hi_of a with
              | Some h -> wrap w (range 0L h)
              | None -> Iv (Some 0L, None)
            else fallback)
    | Instr.Sdiv -> (
        match as_const b with
        | Some c when c > 0L ->
            wrap w (map_bounds (fun x -> Int64.div x c) a)
        | _ -> fallback)
    | Instr.Udiv -> (
        match as_const b with
        | Some c when c > 0L && nonneg a ->
            wrap w (map_bounds (fun x -> Int64.div x c) a)
        | _ -> fallback)
    | Instr.Srem -> (
        match as_const b with
        | Some c when c <> 0L && c <> Int64.min_int ->
            let m = Int64.sub (Int64.abs c) 1L in
            wrap w (if nonneg a then range 0L m else range (Int64.neg m) m)
        | _ -> fallback)
    | Instr.Urem -> (
        match as_const b with
        | Some c when c > 0L -> wrap w (range 0L (Int64.sub c 1L))
        | _ -> fallback)
    | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> top

(* Abstract transfer for casts.  Mirrors the SVM: values are canonical,
   so Sext (and the pointer casts) are the identity, Zext re-reads the
   source bits unsigned, Trunc re-canonicalizes at the target width. *)
let eval_cast c ~src ~dst v =
  if is_bot v then Bot
  else
    match (c : Instr.cast) with
    | Instr.Bitcast | Instr.Inttoptr | Instr.Ptrtoint | Instr.Sext -> v
    | Instr.Zext -> (
        match (src, dst) with
        | Ty.Int sw, Ty.Int dw when dw > sw && sw < 64 ->
            if sw <= 1 then
              (* canonical i1 is already 0/1 *)
              meet_ival v (range 0L 1L)
            else if subset v (range 0L (Int64.sub (Int64.shift_left 1L (sw - 1)) 1L))
            then v
            else range 0L (Int64.sub (Int64.shift_left 1L sw) 1L)
        | _, Ty.Int dw -> wrap dw v (* same-width zext is the identity *)
        | _ -> v)
    | Instr.Trunc -> (
        match dst with Ty.Int w -> wrap w v | _ -> top)
    | Instr.Fptosi | Instr.Sitofp -> top

(* Constraint on [subject] given that [subject op other] (side = Left)
   or [other op subject] (side = Right) evaluated to TRUE.  The result
   is meant to be met with subject's current interval.  Unsigned
   predicates only yield information when [other] is provably
   non-negative (then u< coincides with the signed order on the
   canonical representation). *)
let rec refine op side other =
  match side with
  | `Right ->
      let swapped : Instr.icmp =
        match (op : Instr.icmp) with
        | Instr.Slt -> Instr.Sgt
        | Instr.Sle -> Instr.Sge
        | Instr.Sgt -> Instr.Slt
        | Instr.Sge -> Instr.Sle
        | Instr.Ult -> Instr.Ugt
        | Instr.Ule -> Instr.Uge
        | Instr.Ugt -> Instr.Ult
        | Instr.Uge -> Instr.Ule
        | (Instr.Eq | Instr.Ne) as o -> o
      in
      refine swapped `Left other
  | `Left -> (
      match other with
      | Bot -> Bot (* the comparison is unreachable *)
      | Iv (o_lo, o_hi) -> (
          let lt_hi = function
            | None -> top
            | Some h ->
                if h = Int64.min_int then Bot
                else Iv (None, Some (Int64.pred h))
          in
          let gt_lo = function
            | None -> top
            | Some l ->
                if l = Int64.max_int then Bot
                else Iv (Some (Int64.succ l), None)
          in
          match (op : Instr.icmp) with
          | Instr.Eq -> Iv (o_lo, o_hi)
          | Instr.Ne -> top
          | Instr.Slt -> lt_hi o_hi
          | Instr.Sle -> Iv (None, o_hi)
          | Instr.Sgt -> gt_lo o_lo
          | Instr.Sge -> Iv (o_lo, None)
          | Instr.Ult -> (
              match (o_lo, o_hi) with
              | Some l, Some h when l >= 0L ->
                  if h <= 0L then Bot else range 0L (Int64.pred h)
              | _ -> top)
          | Instr.Ule -> (
              match (o_lo, o_hi) with
              | Some l, Some h when l >= 0L -> range 0L h
              | _ -> top)
          | Instr.Ugt | Instr.Uge -> top))

let negate_icmp : Instr.icmp -> Instr.icmp = function
  | Instr.Eq -> Instr.Ne
  | Instr.Ne -> Instr.Eq
  | Instr.Slt -> Instr.Sge
  | Instr.Sle -> Instr.Sgt
  | Instr.Sgt -> Instr.Sle
  | Instr.Sge -> Instr.Slt
  | Instr.Ult -> Instr.Uge
  | Instr.Ule -> Instr.Ugt
  | Instr.Ugt -> Instr.Ule
  | Instr.Uge -> Instr.Ult

let ival_to_string = function
  | Bot -> "bot"
  | Iv (None, None) -> "top"
  | Iv (l, h) ->
      let b = function None -> "inf" | Some x -> Int64.to_string x in
      Printf.sprintf "[%s,%s]" (b l) (b h)

(* ------------------------------------------------------------------ *)
(* Per-function analysis.                                              *)
(* ------------------------------------------------------------------ *)

(* Register layout of one function: a dense slot for every
   integer-typed register, parameters first, then instruction results in
   block and instruction order.  Only these registers carry an interval. *)
type layout = {
  ly_slot : int array;  (** register id -> slot, or -1 *)
  ly_reg : int array;  (** slot -> register id *)
}

let layout_of (f : Func.t) =
  let regs = ref [] and max_id = ref (List.length f.Func.f_params - 1) in
  List.iteri
    (fun k (_, ty) -> match ty with Ty.Int _ -> regs := k :: !regs | _ -> ())
    f.Func.f_params;
  Func.iter_instrs f (fun _ i ->
      match i.Instr.ty with
      | Ty.Int _ ->
          max_id := max !max_id i.Instr.id;
          regs := i.Instr.id :: !regs
      | _ -> ());
  let ly_reg = Array.of_list (List.rev !regs) in
  let ly_slot = Array.make (!max_id + 1) (-1) in
  Array.iteri (fun s r -> ly_slot.(r) <- s) ly_reg;
  { ly_slot; ly_reg }

let slot_of ly id =
  if id >= 0 && id < Array.length ly.ly_slot then ly.ly_slot.(id) else -1

(* Abstract environment: the interval of every slot of the function's
   layout.  The empty array is bottom, "no path processed so far"; a
   [Bot] slot likewise means the register was not computed on any path
   processed so far, and {!value_of} reads both as bottom.  That optimism
   is sound at the fixpoint: [step] writes every integer result, and SSA
   dominance guarantees the slot is written on every path that can reach
   a use.  Every other environment of a function has the layout's
   length.  Join, equality and widening work slot by slot and return an
   argument itself whenever the result equals it, so an environment is
   only copied where a slot changes; nothing writes to an environment
   once it is shared. *)
module EnvL = struct
  type t = ival array

  let bottom = [||]

  let equal a b =
    a == b
    || Array.length a = Array.length b
       &&
       let rec go k = k < 0 || (equal_ival a.(k) b.(k) && go (k - 1)) in
       go (Array.length a - 1)

  (* [f] slot by slot over two environments of one length, where [f x y]
     is [x] itself whenever it equals [x]. *)
  let map2 f a b =
    let n = Array.length a in
    let rec first_change k =
      if k = n || f a.(k) b.(k) != a.(k) then k else first_change (k + 1)
    in
    let k0 = first_change 0 in
    if k0 = n then a
    else begin
      let r = Array.copy a in
      let is_b = ref true in
      for k = 0 to k0 - 1 do
        if !is_b && not (equal_ival a.(k) b.(k)) then is_b := false
      done;
      for k = k0 to n - 1 do
        let x = f a.(k) b.(k) in
        r.(k) <- x;
        if !is_b && not (equal_ival x b.(k)) then is_b := false
      done;
      if !is_b then b else r
    end

  let join a b =
    if a == b || Array.length b = 0 then a
    else if Array.length a = 0 then b
    else map2 join_ival a b
end

module Solver = Dataflow.Make (EnvL)

let width_of_ty = function Ty.Int w -> Some w | _ -> None

(* A fresh full-length environment holding [env]'s intervals, for a
   transfer to write in place. *)
let own ly env =
  if Array.length env = 0 then Array.make (Array.length ly.ly_reg) Bot
  else Array.copy env

let value_of ly env (v : Value.t) =
  match v with
  | Value.Imm (Ty.Int _, n) -> const n
  | Value.Reg (id, Ty.Int _, _) ->
      let s = slot_of ly id in
      if s < 0 || s >= Array.length env then Bot else env.(s)
  | _ -> top

(* Shared instruction evaluation: given the operand intervals (in
   [Instr.operands] order; phis excluded), the result interval.  Also
   the rule {!Sva_tyck.Rangecert} replays for [Jdef] facts. *)
let eval_def (i : Instr.t) ivs =
  let v =
    match (i.Instr.kind, ivs) with
    | Instr.Binop (op, _, _), [ a; b ] -> (
        match i.Instr.ty with
        | Ty.Int w -> eval_binop op w a b
        | _ -> top)
    | Instr.Icmp _, _ -> range 0L 1L
    | Instr.Cast (c, x, ty), [ xv ] -> eval_cast c ~src:(Value.ty x) ~dst:ty xv
    | Instr.Select (_, _, _), [ _; a; b ] -> join_ival a b
    | _ -> top
  in
  (* results are canonical at [w] (arithmetic wrap-around is already
     handled inside [eval_binop]/[eval_cast]); the meet keeps partial
     bounds that an all-or-nothing [wrap] would discard *)
  match i.Instr.ty with Ty.Int w -> meet_ival v (width_range w) | _ -> v

(* Evaluate [i] over [env], a full-length environment the caller owns,
   and write its result slot. *)
let step ly ret_of env (i : Instr.t) =
  match i.Instr.ty with
  | Ty.Int w ->
      let v =
        match i.Instr.kind with
        | Instr.Binop _ | Instr.Icmp _ | Instr.Cast _ | Instr.Select _ ->
            eval_def i
              (List.map (value_of ly env) (Instr.operands i.Instr.kind))
        | Instr.Phi incoming ->
            List.fold_left
              (fun acc (_, x) -> join_ival acc (value_of ly env x))
              Bot incoming
        | Instr.Call (Value.Fn (g, _), _) -> ret_of g
        | _ -> top
      in
      env.(ly.ly_slot.(i.Instr.id)) <- meet_ival v (width_range w)
  | _ -> ()

let defines_int (b : Func.block) =
  List.exists
    (fun (i : Instr.t) -> match i.Instr.ty with Ty.Int _ -> true | _ -> false)
    b.Func.insns

let transfer_block ly ret_of (b : Func.block) env =
  if not (defines_int b) then env
  else begin
    let env = own ly env in
    List.iter (step ly ret_of env) b.Func.insns;
    env
  end

(* Resolve a branch condition to the icmp that decides it, peeling the
   int-cast and bool-retest chains MiniC lowering produces.  [pos] is
   true on the then-edge. *)
let rec resolve_cond_l lookup (v : Value.t) pos depth =
  if depth > 12 then None
  else
    let def_of = function
      | Value.Reg (id, _, _) -> (lookup id : Instr.t option)
      | _ -> None
    in
    match def_of v with
    | Some { Instr.kind = Instr.Cast ((Instr.Zext | Instr.Sext | Instr.Trunc), x, _); _ } ->
        resolve_cond_l lookup x pos (depth + 1)
    | Some { Instr.kind = Instr.Icmp (op, a, b); _ } -> (
        (* [icmp ne x, 0] re-tests boolean x; [icmp eq x, 0] negates it *)
        let nested =
          match (op, b) with
          | Instr.Ne, Value.Imm (_, 0L) -> resolve_cond_l lookup a pos (depth + 1)
          | Instr.Eq, Value.Imm (_, 0L) ->
              resolve_cond_l lookup a (not pos) (depth + 1)
          | _ -> None
        in
        match nested with
        | Some _ -> nested
        | None -> Some (if pos then (op, a, b) else (negate_icmp op, a, b)))
    | _ -> None

let branch_cond ~lookup v ~pos = resolve_cond_l lookup v pos 0

let resolve_cond defs v pos depth =
  resolve_cond_l
    (fun id -> Option.map snd (Hashtbl.find_opt defs id))
    v pos depth

(* What the analysis knows of a function before solving it. *)
type fshape = {
  sh_func : Func.t;
  sh_cfg : Cfg.t;
  sh_defs : (int, string * Instr.t) Hashtbl.t;  (** reg id -> (block, instr) *)
  sh_layout : layout;
  sh_headers : SS.t;  (** loop heads: the widening points *)
}

let defs_of (f : Func.t) =
  let t = Hashtbl.create 64 in
  Func.iter_instrs f (fun b i ->
      match Instr.result i with
      | Some _ -> Hashtbl.replace t i.Instr.id (b.Func.label, i)
      | None -> ());
  t

let shape_of (f : Func.t) =
  let cfg = Cfg.build f in
  {
    sh_func = f;
    sh_cfg = cfg;
    sh_defs = defs_of f;
    sh_layout = layout_of f;
    sh_headers = SS.of_list (List.map snd (Cfg.back_edges cfg));
  }

(* Edge refinement: meet the branch constraint into both icmp operands
   when the source block ends in a two-way conditional branch.  The
   environment is copied once, and only if a slot changes. *)
let refine_env sh ~src ~dst env =
  let ly = sh.sh_layout in
  match (Cfg.find_block sh.sh_cfg src).Func.term with
  | Instr.Br (cond, tl, el) when tl <> el -> (
      match resolve_cond sh.sh_defs cond (dst = tl) 0 with
      | None -> env
      | Some (op, a, b) ->
          let env = ref env and owned = ref false in
          let apply subj side =
            match subj with
            | Value.Reg (id, Ty.Int _, _) ->
                let other = if side = `Left then b else a in
                let cons = refine op side (value_of ly !env other) in
                let old = value_of ly !env subj in
                let nv = meet_ival old cons in
                if nv != old then begin
                  if not !owned then begin
                    env := Array.copy !env;
                    owned := true
                  end;
                  !env.(slot_of ly id) <- nv
                end
            | _ -> ()
          in
          apply a `Left;
          apply b `Right;
          !env)
  | _ -> env

let widen_env headers ~label ~old ~cur =
  if not (SS.mem label headers) then cur
  else if Array.length old = 0 then cur
  else if Array.length cur = 0 then old
  else EnvL.map2 widen_ival old cur

type finfo = {
  fi_func : Func.t;
  fi_cfg : Cfg.t;
  fi_defs : (int, string * Instr.t) Hashtbl.t;  (** reg id -> (block, instr) *)
  fi_layout : layout;
  fi_nparams : int;
  fi_ret_of : string -> ival;  (** callee return ranges used during solve *)
  fi_plain : ival array;
      (** guard-free fixpoint, joined over the reachable blocks *)
  fi_input : ival array array;
      (** refined+narrowed entry of each reachable block, by CFG node *)
}

let entry_env ly (f : Func.t) sp =
  let env = Array.make (Array.length ly.ly_reg) Bot in
  List.iteri
    (fun k (_, ty) ->
      match ty with
      | Ty.Int _ ->
          env.(ly.ly_slot.(k)) <- (if k < Array.length sp then sp.(k) else top)
      | _ -> ())
    f.Func.f_params;
  env

(* Two decreasing re-application sweeps from the widened post-fixpoint:
   sound for a monotone transfer, and enough to recover the bounds the
   loop-exit guards give back after widening jumped to infinity. *)
let narrow sh ret_of ~entry (r : Solver.result) rounds =
  let cfg = sh.sh_cfg in
  let rpo = Cfg.rpo cfg in
  let out = Array.make (Cfg.size cfg) EnvL.bottom in
  Array.iter (fun i -> out.(i) <- r.Solver.output (Cfg.label cfg i)) rpo;
  let inp = Array.make (Cfg.size cfg) EnvL.bottom in
  for _ = 1 to rounds do
    Array.iter
      (fun i ->
        let l = Cfg.label cfg i in
        let flowed =
          Array.fold_left
            (fun acc p ->
              EnvL.join acc (refine_env sh ~src:(Cfg.label cfg p) ~dst:l out.(p)))
            EnvL.bottom (Cfg.pred cfg i)
        in
        let in_fact = if i = 0 then EnvL.join entry flowed else flowed in
        inp.(i) <- in_fact;
        out.(i) <- transfer_block sh.sh_layout ret_of (Cfg.block cfg i) in_fact)
      rpo
  done;
  inp

let iters = ref 0

(* [plain] is the guard-free fixpoint the summary phase solved last,
   joined over the reachable blocks (see {!run}). *)
let analyze_func ret_of sh sp plain =
  let f = sh.sh_func and cfg = sh.sh_cfg and ly = sh.sh_layout in
  let entry = entry_env ly f sp in
  (* refined fixpoint with edge constraints, then narrowing *)
  let ref_r =
    Solver.solve ~entry
      ~edge:(refine_env sh)
      ~widen:(widen_env sh.sh_headers)
      ~transfer:(transfer_block ly ret_of) f cfg
  in
  iters := !iters + ref_r.Solver.iterations;
  let input = narrow sh ret_of ~entry ref_r 2 in
  {
    fi_func = f;
    fi_cfg = cfg;
    fi_defs = sh.sh_defs;
    fi_layout = ly;
    fi_nparams = List.length f.Func.f_params;
    fi_ret_of = ret_of;
    fi_plain = plain;
    fi_input = input;
  }

(* ------------------------------------------------------------------ *)
(* Interprocedural argument/return summaries.                          *)
(* ------------------------------------------------------------------ *)

type fsum = { sp_params : ival array; sp_ret : ival }

let analyzed (f : Func.t) =
  (not (Func.has_attr f Func.Noanalyze)) && f.Func.f_blocks <> []

(* A function whose address escapes (or that the environment may call
   directly) must assume top for its parameters: [Fn] values appearing
   anywhere but the callee slot of a direct call — including intrinsic
   arguments such as syscall-handler registration — escape. *)
let escaped_fns (m : Irmod.t) =
  let esc = Hashtbl.create 16 in
  let note = function
    | Value.Fn (g, _) -> Hashtbl.replace esc g ()
    | _ -> ()
  in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun _ i ->
          match i.Instr.kind with
          | Instr.Call (Value.Fn _, args) -> List.iter note args
          | k -> List.iter note (Instr.operands k));
      List.iter
        (fun (b : Func.block) ->
          List.iter note (Instr.term_operands b.Func.term))
        f.Func.f_blocks)
    m.Irmod.m_funcs;
  List.iter
    (fun (g : Irmod.global) ->
      match g.Irmod.g_init with
      | Irmod.Ptrs names -> List.iter (fun n -> Hashtbl.replace esc n ()) names
      | _ -> ())
    m.Irmod.m_globals;
  esc

(* Direct call sites of every function, with the calling context (the
   certificate checker re-derives the same table). *)
let direct_callsites (m : Irmod.t) =
  let t : (string, (string * string * Instr.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun b i ->
          match i.Instr.kind with
          | Instr.Call (Value.Fn (g, _), _) ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt t g) in
              Hashtbl.replace t g ((f.Func.f_name, b.Func.label, i) :: prev)
          | _ -> ()))
    m.Irmod.m_funcs;
  t

(* ------------------------------------------------------------------ *)
(* Range certificates.                                                 *)
(* ------------------------------------------------------------------ *)

(* Justification of one fact, checkable with purely local rules:
   - [Jwide]: the interval is the full canonical range of the register's
     width (true of every w-bit register, no premises);
   - [Jdef]: re-evaluate the defining instruction over the dep facts;
   - [Jphi]: every incoming value is a constant or dep fact inside the
     claimed interval (the inductive post-fixpoint check);
   - [Jguard]: the interval is the meet of a dominating fact with the
     branch constraint of the unique predecessor's conditional;
   - [Jparam]: the module-level claim registered for this parameter
     (every direct call site justified, address never escapes);
   - [Jret]: the module-level claim registered for the callee's return
     (every [Ret] operand justified). *)
type just =
  | Jwide
  | Jdef
  | Jphi
  | Jguard of { jg_src : string; jg_dst : string }
  | Jparam of int
  | Jret of string

type fact = {
  fa_reg : int;
  mutable fa_ival : ival;
  fa_just : just;
  mutable fa_deps : int option list;
  fa_valid : string;  (** block where the fact holds (and below, by dominance) *)
}

type cert_kind = Cbounds | Cls

type cert = {
  ce_func : string;
  ce_block : string;
  ce_gep : int;  (** instruction (result register) id of the gep *)
  ce_kind : cert_kind;
  ce_idx : (int * int) list;  (** (gep operand position, fact index) *)
}

type bundle = {
  cb_facts : (string, fact array) Hashtbl.t;
  cb_params : (string * int, ival) Hashtbl.t;
  cb_rets : (string, ival) Hashtbl.t;
  cb_certs : cert list;
}

type cstate = {
  cs_fi : finfo;
  mutable cs_rev : fact list;
  mutable cs_n : int;
  mutable cs_arr : fact array;
  cs_def : (int, ival * int option) Hashtbl.t;
  cs_use : (int * string, ival * int option) Hashtbl.t;
}

type result = {
  r_m : Irmod.t;
  r_entries : string -> bool;
  r_eff_entry : string -> bool;
  r_sums : (string, fsum) Hashtbl.t;
  r_cstates : (string, cstate) Hashtbl.t;
  r_order : string list;  (** analyzed functions in module order *)
  r_callsites : (string, (string * string * Instr.t) list) Hashtbl.t;
  r_params_used : (string * int, ival) Hashtbl.t;
  r_rets_used : (string, ival) Hashtbl.t;
  r_certified : (string * int, string * (int * int) list) Hashtbl.t;
  r_taken : (string * int * cert_kind, unit) Hashtbl.t;
  mutable r_certs : cert list;
  r_busy_param : (string * int, unit) Hashtbl.t;
  r_busy_ret : (string, unit) Hashtbl.t;
  r_iterations : int;
}

let cstate_of res fn = Hashtbl.find_opt res.r_cstates fn

let push_fact cs fa =
  cs.cs_rev <- fa :: cs.cs_rev;
  let idx = cs.cs_n in
  cs.cs_n <- idx + 1;
  idx

let reg_width cs reg =
  if reg < cs.cs_fi.fi_nparams then
    match List.nth_opt cs.cs_fi.fi_func.Func.f_params reg with
    | Some (_, Ty.Int w) -> Some w
    | _ -> None
  else
    match Hashtbl.find_opt cs.cs_fi.fi_defs reg with
    | Some (_, i) -> width_of_ty i.Instr.ty
    | None -> None

let ret_claim res g =
  match Hashtbl.find_opt res.r_sums g with Some s -> s.sp_ret | None -> top

(* Refined (narrowed, guard-sensitive) value of a register at its own
   definition: re-run the transfer over the block's refined entry
   environment up to the defining instruction.  For a phi this is the
   inductive loop invariant the exit guards justify — the claim a
   [Jphi] fact carries (sound by induction on execution length, as in
   ABCD). *)
let refined_def_value cs reg =
  let fi = cs.cs_fi in
  match Hashtbl.find_opt fi.fi_defs reg with
  | None -> top
  | Some (blk, _) -> (
      match Cfg.index fi.fi_cfg blk with
      | exception Not_found -> top
      | i when not (Cfg.reachable_at fi.fi_cfg i) -> top
      | i ->
          let env0 = fi.fi_input.(i) in
          let ly = fi.fi_layout in
          let env = own ly env0 in
          let rec go = function
            | [] -> top
            | (i : Instr.t) :: tl ->
                step ly fi.fi_ret_of env i;
                if i.Instr.id = reg && Instr.result i <> None then
                  let s = slot_of ly reg in
                  if s < 0 then top else env.(s)
                else go tl
          in
          go (Cfg.block fi.fi_cfg i).Func.insns)

(* Certified value of [reg]'s definition (no guards): a fact whose chain
   the checker can replay.  Returns the interval plus the fact index, or
   [(top, None)] when nothing useful is certifiable. *)
let rec certify_def res cs reg =
  match Hashtbl.find_opt cs.cs_def reg with
  | Some r -> r
  | None ->
      let fin r =
        Hashtbl.replace cs.cs_def reg r;
        r
      in
      let fn = cs.cs_fi.fi_func.Func.f_name in
      let wide blk =
        (* any w-bit register is canonically within width_range w *)
        match reg_width cs reg with
        | Some w when w < 64 ->
            let iv = width_range w in
            fin (iv, Some (push_fact cs
                   { fa_reg = reg; fa_ival = iv; fa_just = Jwide;
                     fa_deps = []; fa_valid = blk }))
        | _ -> fin (top, None)
      in
      if reg < cs.cs_fi.fi_nparams then begin
        let entry_label = (Func.entry cs.cs_fi.fi_func).Func.label in
        let claim =
          match Hashtbl.find_opt res.r_sums fn with
          | Some s when reg < Array.length s.sp_params -> s.sp_params.(reg)
          | _ -> top
        in
        let claimable =
          (not (is_top claim))
          && (not (res.r_eff_entry fn))
          && (not (Hashtbl.mem res.r_busy_param (fn, reg)))
        in
        if claimable && certify_param_claim res fn reg claim then begin
          Hashtbl.replace res.r_params_used (fn, reg) claim;
          fin (claim, Some (push_fact cs
                 { fa_reg = reg; fa_ival = claim; fa_just = Jparam reg;
                   fa_deps = []; fa_valid = entry_label }))
        end
        else wide entry_label
      end
      else
        match Hashtbl.find_opt cs.cs_fi.fi_defs reg with
        | None -> fin (top, None)
        | Some (blk, i) -> (
            match i.Instr.kind with
            | Instr.Phi incoming ->
                let claim = refined_def_value cs reg in
                if is_top claim then wide blk
                else begin
                  let fa =
                    { fa_reg = reg; fa_ival = claim; fa_just = Jphi;
                      fa_deps = []; fa_valid = blk }
                  in
                  let idx = push_fact cs fa in
                  (* pre-register: breaks the cycle through back edges *)
                  Hashtbl.replace cs.cs_def reg (claim, Some idx);
                  fa.fa_deps <-
                    List.map
                      (fun (pred, v) -> snd (certify_value res cs v pred))
                      incoming;
                  (claim, Some idx)
                end
            | Instr.Call (Value.Fn (g, _), _) ->
                let rc = ret_claim res g in
                if is_top rc || Hashtbl.mem res.r_busy_ret g then wide blk
                else if Hashtbl.mem res.r_rets_used g
                        || certify_ret_claim res g rc
                then begin
                  Hashtbl.replace res.r_rets_used g rc;
                  fin (rc, Some (push_fact cs
                         { fa_reg = reg; fa_ival = rc; fa_just = Jret g;
                           fa_deps = []; fa_valid = blk }))
                end
                else wide blk
            | Instr.Binop _ | Instr.Icmp _ | Instr.Cast _ | Instr.Select _ ->
                let ops = Instr.operands i.Instr.kind in
                let certified = List.map (fun v -> certify_value res cs v blk) ops in
                let derived = eval_def i (List.map fst certified) in
                if is_top derived then wide blk
                else
                  fin (derived, Some (push_fact cs
                         { fa_reg = reg; fa_ival = derived; fa_just = Jdef;
                           fa_deps = List.map snd certified; fa_valid = blk }))
            | _ -> wide blk)

(* Certified value of [reg] as seen at [at_block]: the def fact refined
   by every conditional guard on the dominator chain whose target has
   that guard edge as its unique predecessor (so edge dominance reduces
   to block dominance, which the checker can test locally). *)
and certify_use res cs reg at_block =
  match Hashtbl.find_opt cs.cs_use (reg, at_block) with
  | Some r -> r
  | None ->
      let cfg = cs.cs_fi.fi_cfg in
      let base = certify_def res cs reg in
      let rec idom_path b acc =
        match Cfg.idom cfg b with
        | None -> b :: acc
        | Some p -> idom_path p (b :: acc)
      in
      let r =
        List.fold_left
          (fun (cur, curidx) d ->
            match Cfg.predecessors cfg d with
            | [ p ] -> (
                match (Cfg.find_block cfg p).Func.term with
                | Instr.Br (cond, tl, el) when tl <> el && (d = tl || d = el) -> (
                    match resolve_cond cs.cs_fi.fi_defs cond (d = tl) 0 with
                    | None -> (cur, curidx)
                    | Some (op, a, b) ->
                        let try_side subj side (cur, curidx) =
                          match subj with
                          | Value.Reg (id, Ty.Int _, _) when id = reg ->
                              let other = if side = `Left then b else a in
                              let oiv, oidx = certify_value res cs other p in
                              let niv = meet_ival cur (refine op side oiv) in
                              if equal_ival niv cur then (cur, curidx)
                              else
                                let fidx = push_fact cs
                                    { fa_reg = reg; fa_ival = niv;
                                      fa_just = Jguard { jg_src = p; jg_dst = d };
                                      fa_deps = [ curidx; oidx ];
                                      fa_valid = d }
                                in
                                (niv, Some fidx)
                          | _ -> (cur, curidx)
                        in
                        (cur, curidx) |> try_side a `Left |> try_side b `Right)
                | _ -> (cur, curidx))
            | _ -> (cur, curidx))
          base (idom_path at_block [])
      in
      Hashtbl.replace cs.cs_use (reg, at_block) r;
      r

and certify_value res cs (v : Value.t) at_block =
  match v with
  | Value.Imm (Ty.Int _, n) -> (const n, None)
  | Value.Reg (id, Ty.Int _, _) -> certify_use res cs id at_block
  | _ -> (top, None)

(* Module-level parameter claim: every direct call site passes an
   argument provably inside [claim], and the function's address never
   escapes (so there are no other callers). *)
and certify_param_claim res fn k claim =
  Hashtbl.replace res.r_busy_param (fn, k) ();
  let sites = Option.value ~default:[] (Hashtbl.find_opt res.r_callsites fn) in
  let ok =
    sites <> []
    && List.for_all
         (fun (caller, cblock, (ci : Instr.t)) ->
           match (cstate_of res caller, ci.Instr.kind) with
           | Some ccs, Instr.Call (_, args) -> (
               match List.nth_opt args k with
               | Some arg ->
                   let aiv, _ = certify_value res ccs arg cblock in
                   subset aiv claim
               | None -> false)
           | _ -> false)
         sites
  in
  Hashtbl.remove res.r_busy_param (fn, k);
  ok

(* Module-level return claim: every [Ret (Some v)] of [g] is provably
   inside [claim]. *)
and certify_ret_claim res g claim =
  match cstate_of res g with
  | None -> false
  | Some gcs ->
      Hashtbl.replace res.r_busy_ret g ();
      let ok =
        List.for_all
          (fun (b : Func.block) ->
            (not (Cfg.is_reachable gcs.cs_fi.fi_cfg b.Func.label))
            ||
            match b.Func.term with
            | Instr.Ret (Some v) ->
                let riv, _ = certify_value res gcs v b.Func.label in
                subset riv claim
            | _ -> true)
          gcs.cs_fi.fi_func.Func.f_blocks
      in
      Hashtbl.remove res.r_busy_ret g;
      ok

(* ------------------------------------------------------------------ *)
(* Gep candidates and the certification sweep.                         *)
(* ------------------------------------------------------------------ *)

(* A gep stays inside its base object's registered extent when the
   leading index is 0 and every further index is within its array (or a
   valid struct field) — {!Sva_safety.Checkinsert.static_safe} decides
   the all-constant case; here we additionally allow register indexes
   into arrays, returning [(position, reg, array length)] for each. *)
let gep_candidate ctx (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Gep (base, Value.Imm (_, 0L) :: rest) when rest <> [] -> (
      match Value.ty base with
      | Ty.Ptr pointee ->
          let rec descend ty pos idxs acc =
            match idxs with
            | [] -> if acc = [] then None else Some (List.rev acc)
            | idx :: tl -> (
                match (ty, idx) with
                | Ty.Array (e, n), Value.Imm (_, c)
                  when c >= 0L && c < Int64.of_int n ->
                    descend e (pos + 1) tl acc
                | Ty.Array (e, n), Value.Reg (id, Ty.Int _, _) when n > 0 ->
                    descend e (pos + 1) tl ((pos, id, n) :: acc)
                | Ty.Struct s, Value.Imm (_, c) -> (
                    match Ty.field_at ctx s (Int64.to_int c) with
                    | exception Not_found -> None
                    | _, fty -> descend fty (pos + 1) tl acc)
                | _ -> None)
          in
          descend pointee 1 rest []
      | _ -> None)
  | _ -> None

let gep_extents = gep_candidate

let certify_all res =
  List.iter
    (fun fn ->
      match cstate_of res fn with
      | None -> ()
      | Some cs ->
          Func.iter_instrs cs.cs_fi.fi_func (fun b i ->
              if Cfg.is_reachable cs.cs_fi.fi_cfg b.Func.label then
                match gep_candidate res.r_m.Irmod.m_ctx i with
                | None -> ()
                | Some vars ->
                    let idxs =
                      List.filter_map
                        (fun (pos, reg, n) ->
                          let iv, fo = certify_use res cs reg b.Func.label in
                          match fo with
                          | Some fidx
                            when subset iv (range 0L (Int64.of_int (n - 1))) ->
                              Some (pos, fidx)
                          | _ -> None)
                        vars
                    in
                    if List.length idxs = List.length vars then
                      Hashtbl.replace res.r_certified (fn, i.Instr.id)
                        (b.Func.label, idxs)))
    res.r_order

(* ------------------------------------------------------------------ *)
(* Producer-side validation: replay the checker's own rules and widen   *)
(* any fact that fails to [top], to a fixpoint.  Guarantees that every  *)
(* emitted certificate passes {!Sva_tyck.Rangecert} verbatim.           *)
(* ------------------------------------------------------------------ *)

let dep_ival arr = function
  | Some fidx when fidx >= 0 && fidx < Array.length arr ->
      arr.(fidx).fa_ival
  | _ -> top

let fact_ok res cs (fa : fact) =
  let arr = cs.cs_arr in
  let fi = cs.cs_fi in
  match fa.fa_just with
  | Jwide -> (
      match reg_width cs fa.fa_reg with
      | Some w -> subset (width_range w) fa.fa_ival
      | None -> false)
  | Jdef -> (
      match Hashtbl.find_opt fi.fi_defs fa.fa_reg with
      | None -> false
      | Some (_, i) ->
          let ops = Instr.operands i.Instr.kind in
          let ivs =
            List.map2
              (fun (v : Value.t) dep ->
                match v with
                | Value.Imm (Ty.Int _, n) -> const n
                | Value.Reg _ -> dep_ival arr dep
                | _ -> top)
              ops
              (if List.length fa.fa_deps = List.length ops then fa.fa_deps
               else List.map (fun _ -> None) ops)
          in
          subset (eval_def i ivs) fa.fa_ival)
  | Jphi -> (
      match Hashtbl.find_opt fi.fi_defs fa.fa_reg with
      | Some (_, { Instr.kind = Instr.Phi incoming; _ })
        when List.length incoming = List.length fa.fa_deps ->
          List.for_all2
            (fun (_, (v : Value.t)) dep ->
              match v with
              | Value.Imm (Ty.Int _, n) -> contains fa.fa_ival n
              | Value.Reg _ -> subset (dep_ival arr dep) fa.fa_ival
              | _ -> false)
            incoming fa.fa_deps
      | _ -> false)
  | Jguard { jg_src; jg_dst } -> (
      match
        (Cfg.find_block fi.fi_cfg jg_src).Func.term
      with
      | Instr.Br (cond, tl, el) when tl <> el && (jg_dst = tl || jg_dst = el)
        -> (
          match resolve_cond fi.fi_defs cond (jg_dst = tl) 0 with
          | None -> false
          | Some (op, a, b) -> (
              let base, odep =
                match fa.fa_deps with
                | [ d0; d1 ] -> (dep_ival arr d0, d1)
                | _ -> (top, None)
              in
              let constrain subj side =
                match subj with
                | Value.Reg (id, Ty.Int _, _) when id = fa.fa_reg ->
                    let other = if side = `Left then b else a in
                    let oiv =
                      match other with
                      | Value.Imm (Ty.Int _, n) -> const n
                      | Value.Reg _ -> dep_ival arr odep
                      | _ -> top
                    in
                    Some (refine op side oiv)
                | _ -> None
              in
              match (constrain a `Left, constrain b `Right) with
              | Some c, _ | None, Some c ->
                  subset (meet_ival base c) fa.fa_ival
              | None, None -> false))
      | _ -> false)
  | Jparam k ->
      fa.fa_reg = k
      && (match Hashtbl.find_opt res.r_params_used
                  (fi.fi_func.Func.f_name, k)
          with
         | Some claim -> subset claim fa.fa_ival
         | None -> false)
  | Jret g -> (
      match Hashtbl.find_opt res.r_rets_used g with
      | Some claim -> subset claim fa.fa_ival
      | None -> false)

(* Structural side conditions the producer establishes by construction
   (dep validity dominating the fact's block, matching registers); the
   trusted checker re-tests them, the validation pass only re-tests the
   interval arithmetic above. *)

let check_param_claim res fn k claim =
  let sites = Option.value ~default:[] (Hashtbl.find_opt res.r_callsites fn) in
  (not (res.r_eff_entry fn))
  && sites <> []
  && List.for_all
       (fun (caller, cblock, (ci : Instr.t)) ->
         match (cstate_of res caller, ci.Instr.kind) with
         | Some ccs, Instr.Call (_, args) -> (
             match List.nth_opt args k with
             | Some (Value.Imm (Ty.Int _, n)) -> contains claim n
             | Some (Value.Reg (id, Ty.Int _, _)) ->
                 Array.exists
                   (fun (fa : fact) ->
                     fa.fa_reg = id
                     && (not (is_top fa.fa_ival))
                     && subset fa.fa_ival claim
                     && Cfg.dominates ccs.cs_fi.fi_cfg fa.fa_valid cblock)
                   ccs.cs_arr
             | _ -> false)
         | _ -> false)
       sites

let check_ret_claim res g claim =
  match cstate_of res g with
  | None -> false
  | Some gcs ->
      List.for_all
        (fun (b : Func.block) ->
          (not (Cfg.is_reachable gcs.cs_fi.fi_cfg b.Func.label))
          ||
          match b.Func.term with
          | Instr.Ret (Some (Value.Imm (Ty.Int _, n))) -> contains claim n
          | Instr.Ret (Some (Value.Reg (id, Ty.Int _, _))) ->
              Array.exists
                (fun (fa : fact) ->
                  fa.fa_reg = id
                  && (not (is_top fa.fa_ival))
                  && subset fa.fa_ival claim
                  && Cfg.dominates gcs.cs_fi.fi_cfg fa.fa_valid b.Func.label)
                gcs.cs_arr
          | Instr.Ret (Some _) -> false
          | _ -> true)
        gcs.cs_fi.fi_func.Func.f_blocks

let validate res =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fn ->
        match cstate_of res fn with
        | None -> ()
        | Some cs ->
            Array.iter
              (fun (fa : fact) ->
                if (not (is_top fa.fa_ival)) && not (fact_ok res cs fa)
                then begin
                  fa.fa_ival <- top;
                  changed := true
                end)
              cs.cs_arr)
      res.r_order;
    let bad_params =
      Hashtbl.fold
        (fun (fn, k) claim acc ->
          if check_param_claim res fn k claim then acc else (fn, k) :: acc)
        res.r_params_used []
    in
    List.iter
      (fun (fn, k) ->
        Hashtbl.remove res.r_params_used (fn, k);
        changed := true;
        match cstate_of res fn with
        | Some cs ->
            Array.iter
              (fun (fa : fact) ->
                if fa.fa_just = Jparam k then fa.fa_ival <- top)
              cs.cs_arr
        | None -> ())
      bad_params;
    let bad_rets =
      Hashtbl.fold
        (fun g claim acc ->
          if check_ret_claim res g claim then acc else g :: acc)
        res.r_rets_used []
    in
    List.iter
      (fun g ->
        Hashtbl.remove res.r_rets_used g;
        changed := true;
        List.iter
          (fun fn ->
            match cstate_of res fn with
            | Some cs ->
                Array.iter
                  (fun (fa : fact) ->
                    if fa.fa_just = Jret g then fa.fa_ival <- top)
                  cs.cs_arr
            | None -> ())
          res.r_order)
      bad_rets
  done;
  (* prune candidate certificates whose index facts no longer prove the
     in-extent ranges *)
  let stale =
    Hashtbl.fold
      (fun ((fn, gep) as key) (_blk, idxs) acc ->
        let ok =
          match cstate_of res fn with
          | None -> false
          | Some cs -> (
              match Hashtbl.find_opt cs.cs_fi.fi_defs gep with
              | None -> false
              | Some (_, i) -> (
                  match gep_candidate res.r_m.Irmod.m_ctx i with
                  | None -> false
                  | Some vars ->
                      List.length vars = List.length idxs
                      && List.for_all2
                           (fun (pos, _, n) (pos', fidx) ->
                             pos = pos'
                             && fidx < Array.length cs.cs_arr
                             && subset cs.cs_arr.(fidx).fa_ival
                                  (range 0L (Int64.of_int (n - 1))))
                           vars idxs))
        in
        if ok then acc else key :: acc)
      res.r_certified []
  in
  List.iter (Hashtbl.remove res.r_certified) stale

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let run ?(entries = fun _ -> true) (m : Irmod.t) (pa : Pointsto.result) =
  iters := 0;
  let cg = Callgraph.build m pa in
  let esc = escaped_fns m in
  let eff fn =
    entries fn || Hashtbl.mem esc fn
    ||
    match Irmod.find_func m fn with
    | Some f ->
        Func.has_attr f Func.Kernel_entry || f.Func.f_varargs
        || not (analyzed f)
    | None -> true
  in
  let funcs = List.filter analyzed m.Irmod.m_funcs in
  let names = List.map (fun (f : Func.t) -> f.Func.f_name) funcs in
  let pre = Hashtbl.create 64 in
  List.iter
    (fun (f : Func.t) -> Hashtbl.replace pre f.Func.f_name (shape_of f))
    funcs;
  let init fn =
    let e = eff fn in
    let sp =
      Array.of_list
        (List.map
           (fun (_, ty) ->
             match ty with
             | Ty.Int w -> if e then width_range w else Bot
             | _ -> top)
           (Hashtbl.find pre fn).sh_func.Func.f_params)
    in
    { sp_params = sp; sp_ret = Bot }
  in
  let equal_sum a b =
    equal_ival a.sp_ret b.sp_ret
    && Array.for_all2 equal_ival a.sp_params b.sp_params
  in
  (* The guard-free fixpoint of each function's last summary solve,
     joined over its reachable blocks.  That solve already ran with the
     final summaries: [Summaries] re-queues a function whenever its own
     summary or a direct callee's summary changes, and the call graph
     records every direct call of an analyzed function. *)
  let plain = Hashtbl.create 64 in
  let sums_t =
    Dataflow.Summaries.solve cg ~funcs:names ~init ~equal:equal_sum
      ~transfer:(fun ~get ~update fn ->
        let sh = Hashtbl.find pre fn in
        let f = sh.sh_func and cfg = sh.sh_cfg and ly = sh.sh_layout in
        let ret_of g =
          if Hashtbl.mem pre g then (get g).sp_ret else top
        in
        let entry = entry_env ly f (get fn).sp_params in
        let r =
          Solver.solve ~entry ~widen:(widen_env sh.sh_headers)
            ~transfer:(transfer_block ly ret_of) f cfg
        in
        iters := !iters + r.Solver.iterations;
        Hashtbl.replace plain fn
          (List.fold_left
             (fun acc l -> EnvL.join acc (r.Solver.output l))
             entry (Cfg.reachable cfg));
        let rv = ref Bot in
        List.iter
          (fun (b : Func.block) ->
            if Cfg.is_reachable cfg b.Func.label then begin
              let env = own ly (r.Solver.input b.Func.label) in
              List.iter
                (fun (i : Instr.t) ->
                  (match i.Instr.kind with
                  | Instr.Call (Value.Fn (g, _), args)
                    when Hashtbl.mem pre g && not (eff g) ->
                      (* join the argument ranges into the callee's
                         parameter summary *)
                      let gf = (Hashtbl.find pre g).sh_func in
                      let gs = get g in
                      let sp = Array.copy gs.sp_params in
                      let changed = ref false in
                      List.iteri
                        (fun k arg ->
                          if k < Array.length sp then
                            match List.nth gf.Func.f_params k with
                            | _, Ty.Int w ->
                                let av =
                                  meet_ival (value_of ly env arg)
                                    (width_range w)
                                in
                                let nv = join_ival sp.(k) av in
                                if not (equal_ival nv sp.(k)) then begin
                                  sp.(k) <- nv;
                                  changed := true
                                end
                            | _ -> ())
                        args;
                      if !changed then update g { gs with sp_params = sp }
                  | _ -> ());
                  step ly ret_of env i)
                b.Func.insns;
              match b.Func.term with
              | Instr.Ret (Some v) ->
                  let rw =
                    match f.Func.f_ret with
                    | Ty.Int w ->
                        meet_ival (value_of ly env v) (width_range w)
                    | _ -> top
                  in
                  rv := join_ival !rv rw
              | _ -> ()
            end)
          f.Func.f_blocks;
        let cur = get fn in
        let nret = join_ival cur.sp_ret !rv in
        if not (equal_ival nret cur.sp_ret) then
          update fn { cur with sp_ret = nret })
  in
  let sums = Hashtbl.create 64 in
  List.iter
    (fun fn -> Hashtbl.replace sums fn (Dataflow.Summaries.get sums_t fn))
    names;
  let ret_of g =
    match Hashtbl.find_opt sums g with Some s -> s.sp_ret | None -> top
  in
  let cstates = Hashtbl.create 64 in
  List.iter
    (fun fn ->
      let sp = (Hashtbl.find sums fn).sp_params in
      let fi =
        analyze_func ret_of (Hashtbl.find pre fn) sp (Hashtbl.find plain fn)
      in
      Hashtbl.replace cstates fn
        {
          cs_fi = fi;
          cs_rev = [];
          cs_n = 0;
          cs_arr = [||];
          cs_def = Hashtbl.create 64;
          cs_use = Hashtbl.create 64;
        })
    names;
  let res =
    {
      r_m = m;
      r_entries = entries;
      r_eff_entry = eff;
      r_sums = sums;
      r_cstates = cstates;
      r_order = names;
      r_callsites = direct_callsites m;
      r_params_used = Hashtbl.create 16;
      r_rets_used = Hashtbl.create 16;
      r_certified = Hashtbl.create 64;
      r_taken = Hashtbl.create 64;
      r_certs = [];
      r_busy_param = Hashtbl.create 8;
      r_busy_ret = Hashtbl.create 8;
      r_iterations = 0;
    }
  in
  certify_all res;
  Hashtbl.iter
    (fun _ cs -> cs.cs_arr <- Array.of_list (List.rev cs.cs_rev))
    cstates;
  validate res;
  { res with r_iterations = !iters }

(* ------------------------------------------------------------------ *)
(* Queries.                                                            *)
(* ------------------------------------------------------------------ *)

let certifiable res ~fname (i : Instr.t) =
  Hashtbl.mem res.r_certified (fname, i.Instr.id)

(* Idempotently materialize the certificate for an elision the safety
   layer decided to take; returns whether the gep is certified. *)
let elide res ~fname (i : Instr.t) kind =
  match Hashtbl.find_opt res.r_certified (fname, i.Instr.id) with
  | None -> false
  | Some (blk, idxs) ->
      if not (Hashtbl.mem res.r_taken (fname, i.Instr.id, kind)) then begin
        Hashtbl.replace res.r_taken (fname, i.Instr.id, kind) ();
        res.r_certs <-
          {
            ce_func = fname;
            ce_block = blk;
            ce_gep = i.Instr.id;
            ce_kind = kind;
            ce_idx = idxs;
          }
          :: res.r_certs
      end;
      true

(* Every certifiable gep, elided: the bundle a build that took every
   bounds elision would carry. *)
let certify_all res (m : Irmod.t) =
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun _ i ->
          ignore (elide res ~fname:f.Func.f_name i Cbounds)))
    m.Irmod.m_funcs

let bundle res =
  let facts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fn cs ->
      if Array.length cs.cs_arr > 0 then Hashtbl.replace facts fn cs.cs_arr)
    res.r_cstates;
  {
    cb_facts = facts;
    cb_params = res.r_params_used;
    cb_rets = res.r_rets_used;
    cb_certs = List.rev res.r_certs;
  }

let cert_counts res =
  List.fold_left
    (fun (b, l) c ->
      match c.ce_kind with Cbounds -> (b + 1, l) | Cls -> (b, l + 1))
    (0, 0) res.r_certs

let fact_count res =
  Hashtbl.fold (fun _ cs acc -> acc + Array.length cs.cs_arr) res.r_cstates 0

let iterations res = res.r_iterations
let entry_config res = res.r_entries

let plain_facts res ~fname =
  match cstate_of res fname with
  | None -> []
  | Some cs ->
      (* the fixpoint covers the integer parameters and the integer
         results of the reachable blocks, bottom included *)
      let fi = cs.cs_fi in
      let covered reg =
        reg < fi.fi_nparams
        ||
        match Hashtbl.find_opt fi.fi_defs reg with
        | Some (blk, _) -> Cfg.is_reachable fi.fi_cfg blk
        | None -> false
      in
      let facts = ref [] in
      Array.iteri
        (fun s reg ->
          let iv = fi.fi_plain.(s) in
          if covered reg && not (is_top iv) then facts := (reg, iv) :: !facts)
        fi.fi_layout.ly_reg;
      List.sort (fun (a, _) (b, _) -> Int.compare a b) !facts

let func_summary res fn =
  match Hashtbl.find_opt res.r_sums fn with
  | Some s -> Some (Array.copy s.sp_params, s.sp_ret)
  | None -> None

let analyzed_funcs res = res.r_order

let just_to_string = function
  | Jwide -> "wide"
  | Jdef -> "def"
  | Jphi -> "phi"
  | Jguard { jg_src; jg_dst } -> Printf.sprintf "guard(%s->%s)" jg_src jg_dst
  | Jparam k -> Printf.sprintf "param(%d)" k
  | Jret g -> Printf.sprintf "ret(@%s)" g

let cert_kind_to_string = function Cbounds -> "bounds" | Cls -> "lscheck"

(* ------------------------------------------------------------------ *)
(* Self-test of the arithmetic kernel against Constfold.               *)
(* ------------------------------------------------------------------ *)

let selftest () =
  let checks = ref 0 in
  let fail fmt = Printf.ksprintf failwith fmt in
  let points =
    [
      Int64.min_int; Int64.add Int64.min_int 1L; -1000L; -129L; -128L;
      -2L; -1L; 0L; 1L; 2L; 7L; 63L; 127L; 128L; 255L; 1000L;
      Int64.sub Int64.max_int 1L; Int64.max_int;
    ]
  in
  let ivals =
    top :: List.concat_map
             (fun l ->
               [ Iv (Some l, None); Iv (None, Some l); const l;
                 (match norm (Some l) (Some (Int64.add l 9L)) with
                  | b -> b) ])
             [ -128L; -7L; -1L; 0L; 1L; 5L; 63L; 127L ]
  in
  let widths = [ 1; 8; 16; 32; 64 ] in
  let members w iv =
    List.filter
      (fun p -> Constfold.truncate_to_width w p = p && contains iv p)
      points
  in
  let binops : Instr.binop list =
    [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Sdiv; Instr.Udiv; Instr.Srem;
      Instr.Urem; Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Lshr;
      Instr.Ashr ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun op ->
          List.iter
            (fun va ->
              List.iter
                (fun vb ->
                  let abs = eval_binop op w va vb in
                  List.iter
                    (fun a ->
                      List.iter
                        (fun b ->
                          incr checks;
                          match Constfold.eval_binop op w a b with
                          | None -> ()
                          | Some r ->
                              if not (contains abs r) then
                                fail
                                  "interval selftest: binop w=%d \
                                   %Ld,%Ld -> %Ld not in %s (from %s,%s)"
                                  w a b r (ival_to_string abs)
                                  (ival_to_string va) (ival_to_string vb))
                        (members w vb))
                    (members w va))
                ivals)
            ivals)
        binops)
    [ 8; 64 ];
  (* casts: canonical-register semantics replayed via Constfold *)
  List.iter
    (fun sw ->
      List.iter
        (fun dw ->
          List.iter
            (fun v ->
              List.iter
                (fun a ->
                  incr checks;
                  if dw >= sw then begin
                    let zr =
                      Constfold.truncate_to_width dw
                        (Constfold.zext_of_width sw a)
                    in
                    let zabs =
                      eval_cast Instr.Zext ~src:(Ty.Int sw)
                        ~dst:(Ty.Int dw) v
                    in
                    if not (contains zabs zr) then
                      fail "interval selftest: zext %d->%d %Ld" sw dw a;
                    let sabs =
                      eval_cast Instr.Sext ~src:(Ty.Int sw)
                        ~dst:(Ty.Int dw) v
                    in
                    if not (contains sabs a) then
                      fail "interval selftest: sext %d->%d %Ld" sw dw a
                  end
                  else begin
                    let tr = Constfold.truncate_to_width dw a in
                    let tabs =
                      eval_cast Instr.Trunc ~src:(Ty.Int sw)
                        ~dst:(Ty.Int dw) v
                    in
                    if not (contains tabs tr) then
                      fail "interval selftest: trunc %d->%d %Ld" sw dw a
                  end)
                (members sw v))
            ivals)
        widths)
    widths;
  (* branch refinement: a `op` b true implies a in refine(op,Left,B) *)
  let icmps : Instr.icmp list =
    [ Instr.Eq; Instr.Ne; Instr.Slt; Instr.Sle; Instr.Sgt; Instr.Sge;
      Instr.Ult; Instr.Ule; Instr.Ugt; Instr.Uge ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun op ->
          List.iter
            (fun vb ->
              let cl = refine op `Left vb in
              let cr = refine op `Right vb in
              List.iter
                (fun b ->
                  List.iter
                    (fun a ->
                      if Constfold.truncate_to_width w a = a then begin
                        incr checks;
                        if Constfold.eval_icmp op w a b
                           && not (contains cl a) then
                          fail
                            "interval selftest: refine L %d %Ld %Ld vs %s"
                            w a b (ival_to_string vb);
                        incr checks;
                        if Constfold.eval_icmp op w b a
                           && not (contains cr a) then
                          fail
                            "interval selftest: refine R %d %Ld %Ld vs %s"
                            w a b (ival_to_string vb)
                      end)
                    points)
                (members w vb))
            ivals)
        icmps)
    [ 8; 64 ];
  (* lattice sanity on the sample set *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          incr checks;
          if not (subset a (join_ival a b) && subset b (join_ival a b)) then
            fail "interval selftest: join not an upper bound";
          if not (subset (meet_ival a b) a && subset (meet_ival a b) b) then
            fail "interval selftest: meet not a lower bound";
          let wd = widen_ival a b in
          if not (subset a wd && subset b wd) then
            fail "interval selftest: widen not an upper bound")
        ivals)
    ivals;
  !checks

(* Structural key of an operand: registers by id, globals and functions
   by name, constants by type and value (floats by their exact hex
   text, so every NaN is one key and 0.0 and -0.0 are two). *)
type vkey =
  | Kimm of Ty.t * int64
  | Kfloat of string
  | Knull of Ty.t
  | Kundef of Ty.t
  | Kglobal of string
  | Kfn of string
  | Kreg of int

(* Structural key of a pure computation, compared and hashed as a
   value. *)
type key =
  | Kbinop of Instr.binop * vkey * vkey
  | Kicmp of Instr.icmp * vkey * vkey
  | Kgep of vkey list
  | Kcast of Instr.cast * vkey * Ty.t
  | Kselect of vkey * vkey * vkey

let value_key (v : Value.t) =
  match v with
  | Value.Imm (t, n) -> Kimm (t, n)
  | Value.Fimm f -> Kfloat (Printf.sprintf "%h" f)
  | Value.Null t -> Knull t
  | Value.Undef t -> Kundef t
  | Value.Global (n, _) -> Kglobal n
  | Value.Fn (n, _) -> Kfn n
  | Value.Reg (id, _, _) -> Kreg id

let key_of (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Binop (op, a, b) -> Some (Kbinop (op, value_key a, value_key b))
  | Instr.Icmp (op, a, b) -> Some (Kicmp (op, value_key a, value_key b))
  | Instr.Gep (base, idxs) -> Some (Kgep (List.map value_key (base :: idxs)))
  | Instr.Cast (op, x, t) -> Some (Kcast (op, value_key x, t))
  | Instr.Select (c, a, b) ->
      Some (Kselect (value_key c, value_key a, value_key b))
  | _ -> None

let may_write_memory (k : Instr.kind) =
  match k with
  | Instr.Store _ | Instr.Call _ | Instr.Free _ | Instr.Atomic_cas _
  | Instr.Atomic_add _ | Instr.Membar | Instr.Intrinsic _ | Instr.Malloc _
  | Instr.Alloca _ ->
      true
  | _ -> false

let run_func (f : Func.t) =
  let eliminated = ref 0 in
  let replaced : (int, Value.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Func.block) ->
      let available : (key, Value.t) Hashtbl.t = Hashtbl.create 32 in
      (* loads available by pointer; any memory write empties it *)
      let loads : (vkey, Value.t) Hashtbl.t = Hashtbl.create 8 in
      let subst v =
        match v with
        | Value.Reg (id, _, _) -> (
            match Hashtbl.find_opt replaced id with Some v' -> v' | None -> v)
        | _ -> v
      in
      let reuse tbl key (i : Instr.t) =
        match Hashtbl.find_opt tbl key with
        | Some v ->
            Hashtbl.replace replaced i.Instr.id v;
            incr eliminated;
            None
        | None ->
            (match Instr.result i with
            | Some r -> Hashtbl.replace tbl key r
            | None -> ());
            Some i
      in
      b.Func.insns <-
        List.filter_map
          (fun (i : Instr.t) ->
            let i =
              { i with Instr.kind = Instr.map_operands subst i.Instr.kind }
            in
            match i.Instr.kind with
            | Instr.Load p -> reuse loads (value_key p) i
            | k when may_write_memory k ->
                Hashtbl.reset loads;
                Some i
            | _ -> (
                match key_of i with
                | None -> Some i
                | Some key -> reuse available key i))
          b.Func.insns;
      b.Func.term <- Instr.map_term_operands subst b.Func.term)
    f.Func.f_blocks;
  (* Uses in later blocks. *)
  if Hashtbl.length replaced > 0 then begin
    let subst v =
      match v with
      | Value.Reg (id, _, _) -> (
          match Hashtbl.find_opt replaced id with Some v' -> v' | None -> v)
      | _ -> v
    in
    List.iter
      (fun (b : Func.block) ->
        b.Func.insns <-
          List.map
            (fun (i : Instr.t) ->
              { i with Instr.kind = Instr.map_operands subst i.Instr.kind })
            b.Func.insns;
        b.Func.term <- Instr.map_term_operands subst b.Func.term)
      f.Func.f_blocks
  end;
  !eliminated

let run (m : Irmod.t) =
  List.fold_left (fun n f -> n + run_func f) 0 m.Irmod.m_funcs

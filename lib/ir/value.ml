type t =
  | Imm of Ty.t * int64
  | Fimm of float
  | Null of Ty.t
  | Undef of Ty.t
  | Global of string * Ty.t
  | Fn of string * Ty.t
  | Reg of int * Ty.t * string

let ty = function
  | Imm (t, _) -> t
  | Fimm _ -> Ty.Float
  | Null t -> t
  | Undef t -> t
  | Global (_, t) -> Ty.Ptr t
  | Fn (_, t) -> Ty.Ptr t
  | Reg (_, t, _) -> t

let imm ?(width = 32) n = Imm (Ty.Int width, Int64.of_int n)
let imm64 n = Imm (Ty.Int 64, n)
let i1 b = Imm (Ty.Int 1, if b then 1L else 0L)

let equal a b =
  match (a, b) with
  | Imm (t1, n1), Imm (t2, n2) -> Ty.equal t1 t2 && Int64.equal n1 n2
  | Fimm f1, Fimm f2 -> f1 = f2
  | Null t1, Null t2 | Undef t1, Undef t2 -> Ty.equal t1 t2
  | Global (n1, _), Global (n2, _) | Fn (n1, _), Fn (n2, _) -> n1 = n2
  | Reg (i1, _, _), Reg (i2, _, _) -> i1 = i2
  | (Imm _ | Fimm _ | Null _ | Undef _ | Global _ | Fn _ | Reg _), _ -> false

let to_string = function
  | Imm (t, n) -> Printf.sprintf "%s %Ld" (Ty.to_string t) n
  | Fimm f -> Printf.sprintf "double %g" f
  | Null t -> Printf.sprintf "%s null" (Ty.to_string t)
  | Undef t -> Printf.sprintf "%s undef" (Ty.to_string t)
  | Global (n, _) -> "@" ^ n
  | Fn (n, _) -> "@" ^ n
  | Reg (i, _, name) ->
      if name = "" then Printf.sprintf "%%r%d" i
      else Printf.sprintf "%%%s.%d" name i

let pp fmt v = Format.pp_print_string fmt (to_string v)

type t =
  | Void
  | Int of int
  | Float
  | Ptr of t
  | Array of t * int
  | Struct of string
  | Func of t * t list * bool

type struct_def = { s_name : string; s_fields : (string * t) list }

type ctx = (string, struct_def) Hashtbl.t

let create_ctx () : ctx = Hashtbl.create 32

let define_struct ctx name fields =
  (match Hashtbl.find_opt ctx name with
  | Some prev when prev.s_fields <> fields ->
      invalid_arg ("Ty.define_struct: redefinition of %" ^ name)
  | _ -> ());
  let def = { s_name = name; s_fields = fields } in
  Hashtbl.replace ctx name def;
  def

let find_struct ctx name =
  match Hashtbl.find_opt ctx name with
  | Some d -> d
  | None -> raise Not_found

let struct_names ctx =
  Hashtbl.fold (fun k _ acc -> k :: acc) ctx [] |> List.sort compare

let i1 = Int 1
let i8 = Int 8
let i16 = Int 16
let i32 = Int 32
let i64 = Int 64
let ptr_size = 8

let rec alignof ctx = function
  | Void -> invalid_arg "Ty.alignof: void"
  | Int 1 -> 1
  | Int w -> max 1 (w / 8)
  | Float -> 8
  | Ptr _ -> ptr_size
  | Array (e, _) -> alignof ctx e
  | Struct name ->
      let def = find_struct ctx name in
      List.fold_left (fun a (_, fty) -> max a (alignof ctx fty)) 1 def.s_fields
  | Func _ -> invalid_arg "Ty.alignof: function type"

let round_up n a = (n + a - 1) / a * a

(* Natural (C-like) struct layout: each field at the next multiple of its
   alignment; total size rounded to the struct alignment. *)
let rec layout ctx fields =
  let rec go off acc = function
    | [] -> (List.rev acc, off)
    | (fname, fty) :: rest ->
        let off = round_up off (alignof ctx fty) in
        go (off + sizeof ctx fty) ((fname, fty, off) :: acc) rest
  in
  go 0 [] fields

and sizeof ctx = function
  | Void -> invalid_arg "Ty.sizeof: void"
  | Int 1 -> 1
  | Int w -> max 1 (w / 8)
  | Float -> 8
  | Ptr _ -> ptr_size
  | Array (e, n) -> n * sizeof ctx e
  | Struct name ->
      let def = find_struct ctx name in
      let _, sz = layout ctx def.s_fields in
      round_up (max sz 1) (alignof ctx (Struct name))
  | Func _ -> invalid_arg "Ty.sizeof: function type"

let field_offset ctx sname fname =
  let def = find_struct ctx sname in
  let fields, _ = layout ctx def.s_fields in
  let rec find = function
    | [] -> raise Not_found
    | (n, fty, off) :: _ when n = fname -> (off, fty)
    | _ :: rest -> find rest
  in
  find fields

let field_index ctx sname fname =
  let def = find_struct ctx sname in
  let rec find i = function
    | [] -> raise Not_found
    | (n, _) :: _ when n = fname -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 def.s_fields

let field_at ctx sname i =
  let def = find_struct ctx sname in
  let fields, _ = layout ctx def.s_fields in
  match List.nth_opt fields i with
  | Some (_, fty, off) -> (off, fty)
  | None -> raise Not_found

let is_integer = function Int _ -> true | _ -> false
let is_pointer = function Ptr _ -> true | _ -> false
let is_float = function Float -> true | _ -> false

let pointee = function
  | Ptr t -> t
  | _ -> invalid_arg "Ty.pointee: not a pointer"

let rec equal a b =
  match (a, b) with
  | Void, Void | Float, Float -> true
  | Int w1, Int w2 -> w1 = w2
  | Ptr a, Ptr b -> equal a b
  | Array (a, n), Array (b, m) -> n = m && equal a b
  | Struct s1, Struct s2 -> s1 = s2
  | Func (r1, p1, v1), Func (r2, p2, v2) ->
      v1 = v2
      && equal r1 r2
      && List.length p1 = List.length p2
      && List.for_all2 equal p1 p2
  | (Void | Int _ | Float | Ptr _ | Array _ | Struct _ | Func _), _ -> false

let rec to_string = function
  | Void -> "void"
  | Int w -> "i" ^ string_of_int w
  | Float -> "double"
  | Ptr t -> to_string t ^ "*"
  | Array (e, n) -> Printf.sprintf "[%d x %s]" n (to_string e)
  | Struct name -> "%" ^ name
  | Func (r, ps, va) ->
      let ps = List.map to_string ps in
      let ps = if va then ps @ [ "..." ] else ps in
      Printf.sprintf "%s (%s)" (to_string r) (String.concat ", " ps)

let pp fmt t = Format.pp_print_string fmt (to_string t)

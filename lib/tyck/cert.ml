open Sva_ir

type error = { func : string; instr : int; msg : string }

let string_of_error e =
  if e.instr < 0 then Printf.sprintf "@%s: %s" e.func e.msg
  else Printf.sprintf "@%s:%d: %s" e.func e.instr e.msg

type 'b injector = Irmod.t -> 'b -> seed:int -> ('b * string) option

type 'b t = {
  what : string;
  check : Irmod.t -> 'b -> error list;
  bugs : (string * 'b injector) list;
}

exception Rejected of string * error list

let () =
  Printexc.register_printer (function
    | Rejected (what, errs) ->
        Some
          (what ^ " checking failed:\n"
          ^ String.concat "\n" (List.map string_of_error errs))
    | _ -> None)

let gate c m b =
  match c.check m b with [] -> () | errs -> raise (Rejected (c.what, errs))

let experiment c m b ~instances =
  List.concat_map
    (fun (kind, inject) ->
      let rec collect seed found acc =
        if found >= instances || seed > 200 then List.rev acc
        else
          match inject m b ~seed with
          | Some (buggy, desc) ->
              let caught = c.check m buggy <> [] in
              collect (seed + 1) (found + 1) ((kind, desc, caught) :: acc)
          | None -> collect (seed + 1) found acc
      in
      collect 0 0 [])
    c.bugs

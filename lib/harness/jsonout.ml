(* Minimal JSON emitter + parser (see jsonout.mli).  The emitter favours
   stable, diffable output: two spaces per level, object fields in the
   order given, a trailing newline. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emitter ---------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* "%.6g" may yield "5" for 5.0 — still valid JSON (an int); the
       parser classifies by lexical shape, so keep it as-is. *)
    Printf.sprintf "%.6g" f

let emit ?(indent = 2) v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (n * indent) ' ') in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            go (depth + 1) item)
          items;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            go (depth + 1) item)
          fields;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---------- parser ---------- *)

exception Parse_error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub text !pos 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* UTF-8 encode the code point (BMP only, which covers
                 everything the emitter produces). *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then (
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
              else (
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))));
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail ("bad number " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail ("bad number " ^ s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------- accessors ---------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | _ -> raise (Parse_error "expected an integer")

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Parse_error "expected a number")

let to_string = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list = function
  | List l -> l
  | _ -> raise (Parse_error "expected a list")

(* [conv] of the value at a dotted path; the message names the path. *)
let field conv path j =
  let step v k = match member k v with Some v -> v | None -> raise Not_found in
  try conv (List.fold_left step j (String.split_on_char '.' path))
  with Not_found | Parse_error _ ->
    raise (Parse_error ("missing or mistyped field " ^ path))

let int = field to_int
let num = field to_float

type align = L | R

let render ~title ?note aligns header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun w row ->
        match List.nth_opt row c with
        | Some cell -> max w (String.length cell)
        | None -> w)
      0 all
  in
  let widths = List.init ncols width in
  let pad align w s =
    let fill = String.make (max 0 (w - String.length s)) ' ' in
    match align with L -> s ^ fill | R -> fill ^ s
  in
  let line row =
    let cells =
      List.mapi
        (fun c cell ->
          let a = try List.nth aligns c with _ -> L in
          pad a (List.nth widths c) cell)
        row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  (match note with
  | Some n -> Buffer.add_string buf (n ^ "\n")
  | None -> ());
  Buffer.add_string buf (sep ^ "\n" ^ line header ^ "\n" ^ sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line row ^ "\n")) rows;
  Buffer.add_string buf (sep ^ "\n");
  Buffer.contents buf

let pct v = Printf.sprintf "%.1f%%" v

let pct_paper v = Printf.sprintf "(%.1f%%)" v

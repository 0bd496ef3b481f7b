(* Reads a bench --json results file back through the harness JSON parser
   and runs each section's PASS/FAIL check on its payload: the same check
   (Harness.Tables.sections) that ends the section's report.

     json_check FILE [SECTION]...

   A section with no check is an error, and each SECTION argument must be
   present (a run that silently dropped a section must not pass).  Prints
   "FILE: OK [sections]", or every failure and exits 1. *)

module J = Harness.Jsonout
module Tables = Harness.Tables

let check (name, payload) =
  match List.find_opt (fun s -> s.Tables.name = name) Tables.sections with
  | Some { Tables.json = Some { Tables.check; _ }; _ } -> (
      try List.map (fun m -> name ^ ": " ^ m) (check payload)
      with J.Parse_error m -> [ name ^ ": " ^ m ])
  | _ -> [ "no check for section '" ^ name ^ "'" ]

let () =
  let path, required =
    match Array.to_list Sys.argv with
    | _ :: path :: required -> (path, required)
    | _ ->
        prerr_endline "usage: json_check FILE [SECTION]...";
        exit 1
  in
  let doc =
    try J.parse (In_channel.with_open_bin path In_channel.input_all)
    with J.Parse_error m ->
      Printf.eprintf "%s: %s\n" path m;
      exit 1
  in
  let sections =
    match doc with
    | J.Obj fields ->
        List.filter (fun (k, _) -> k <> "bench" && k <> "quick") fields
    | _ -> []
  in
  let failures =
    List.concat
      [
        (if J.parse (J.emit doc) = doc then []
         else [ "emit/parse round-trip drifted" ]);
        List.filter_map
          (fun s ->
            if List.mem_assoc s sections then None
            else Some ("required section '" ^ s ^ "' missing"))
          required;
        (if sections = [] then [ "no sections to check" ] else []);
        List.concat_map check sections;
      ]
  in
  match failures with
  | [] ->
      Printf.printf "%s: OK [%s]\n" path
        (String.concat " " (List.map fst sections))
  | fs ->
      List.iter (fun m -> Printf.eprintf "%s: %s\n" path m) fs;
      exit 1

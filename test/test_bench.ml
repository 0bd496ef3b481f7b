(* The failure path of the bench section checks (Harness.Tables.sections),
   on the JSON file the bench rule writes: each written payload passes
   its section's check, and perturbing one gated field makes the same
   check fail.  json_check, which runs those checks on a file, must exit 1
   on a perturbed file. *)

module J = Harness.Jsonout
module Tables = Harness.Tables

let read file = J.parse (In_channel.with_open_bin file In_channel.input_all)

(* [j] with [f] applied to the value at [path]. *)
let rec edit path f j =
  match (path, j) with
  | [], v -> f v
  | k :: rest, J.Obj fields when List.mem_assoc k fields ->
      J.Obj
        (List.map
           (fun (k', v) -> (k', if k' = k then edit rest f v else v))
           fields)
  | k :: _, _ -> Alcotest.failf "no field %s" k

let plus d = function
  | J.Int n -> J.Int (n + d)
  | J.Float f -> J.Float (f +. float_of_int d)
  | v -> Alcotest.failf "not a number: %s" (J.emit v)

let section_check name =
  match List.find (fun s -> s.Tables.name = name) Tables.sections with
  | { Tables.json = Some j; _ } -> j.Tables.check
  | _ -> Alcotest.failf "section %s has no check" name

(* Section and the perturbations of its payload, each of which must fail
   the section's check. *)
let cases =
  [
    ("fastpath", [ edit [ "checks-per-op"; "cache-on" ] (plus 1) ]);
    ( "table7",
      [
        (function
        | J.List (op :: ops) ->
            J.List (edit [ "native-cycles" ] (fun _ -> J.Int 0) op :: ops)
        | _ -> Alcotest.fail "table7 has no operations");
      ] );
    ( "lint",
      [
        edit [ "findings" ] (function
          | J.Obj ((checker, _) :: rest) -> J.Obj ((checker, J.Int 1) :: rest)
          | _ -> Alcotest.fail "lint has no findings counts");
      ] );
    ("ranges", [ edit [ "bounds-checks"; "cert-elided" ] (plus 1) ]);
    ("race", [ edit [ "injection"; "caught" ] (plus (-1)) ]);
    ( "verifier",
      [ edit [ "kinds"; "incorrect inter-node edge"; "injected" ] (plus (-1)) ]
    );
    ("poolcert", [ edit [ "bit-identity"; "workload-cycles"; "on" ] (plus 1) ]);
    ( "smp",
      [
        edit [ "points" ] (fun points ->
            J.List
              (List.filter
                 (fun p -> J.member "cpus" p <> Some (J.Int 4))
                 (J.to_list points)));
      ] );
    ( "aot",
      [
        edit [ "steps-per-op"; "aot" ] (plus 1);
        edit [ "disk-cache"; "misses-warm" ] (fun _ -> J.Int 1);
      ] );
    ( "trace",
      [
        edit [ "chrome"; "traceEvents" ] (fun events ->
            J.List (List.tl (J.to_list events)));
      ] );
  ]

let written = "../bench/bench-sections.json"

let test_perturbed (name, perturbs) () =
  let check = section_check name in
  let payload = Option.get (J.member name (read written)) in
  Alcotest.(check (list string))
    "the written payload passes" [] (check payload);
  List.iter
    (fun perturb ->
      Alcotest.(check bool) "the perturbed payload fails" true
        (check (perturb payload) <> []))
    perturbs

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_check_exit () =
  let doc = read written in
  let file = Filename.temp_file "perturbed" ".json" in
  let err = Filename.temp_file "json_check" ".err" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (J.emit (edit [ "aot"; "steps-per-op"; "aot" ] (plus 1) doc)));
  let code =
    Sys.command
      (Filename.quote_command "../bench/json_check.exe" ~stdout:Filename.null
         ~stderr:err [ file; "aot" ])
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove file;
  Sys.remove err;
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check bool) "names the failed criterion" true
    (contains msg "steps-per-op")

let () =
  Alcotest.run "sva_bench"
    [
      ( "section-check",
        List.map
          (fun ((name, _) as case) ->
            Alcotest.test_case name `Quick (test_perturbed case))
          cases );
      ( "json_check",
        [
          Alcotest.test_case "perturbed file exits 1" `Quick
            test_json_check_exit;
        ] );
    ]

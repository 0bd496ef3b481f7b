(* The exact-metric baseline: one "seed workload metric value" line, sorted,
   for each metric a perf.exe result file marks exact (modeled or counted,
   so it repeats bit for bit on a seed).

     exact.exe RESULT.json...

   A runtest rule diffs the output against the committed BENCH_exact.txt,
   so a moved modeled number fails by name; `dune promote` accepts it. *)

module J = Harness.Jsonout

let get k o =
  match J.member k o with Some v -> v | None -> failwith ("result without " ^ k)

(* The shortest decimal that reads back as [v]. *)
let repr v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 1

let lines file =
  let doc = J.parse (In_channel.with_open_bin file In_channel.input_all) in
  let seed = J.to_int (get "seed" doc) in
  List.concat_map
    (fun w ->
      let name = J.to_string (get "name" w) in
      List.concat_map
        (fun run ->
          List.filter_map
            (fun (metric, m) ->
              if J.member "exact" m = Some (J.Bool true) then
                Some
                  (Printf.sprintf "%d %s %s %s" seed name metric
                     (repr (J.to_float (get "value" m))))
              else None)
            (match get "metrics" run with
            | J.Obj l -> l
            | _ -> failwith "metrics is not an object"))
        (J.to_list (get "runs" w)))
    (J.to_list (get "workloads" doc))

let () =
  List.tl (Array.to_list Sys.argv)
  |> List.concat_map lines |> List.sort_uniq compare
  |> List.iter print_endline

(* The exact-metric baseline: one "seed workload metric value" line, sorted,
   for each metric a perf.exe result file marks exact (modeled or counted,
   so it repeats bit for bit on a seed), and one "bench section.path value"
   line for each modeled field of a bench --json file.

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

let perf_lines doc =
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

(* Every leaf of a bench --json file's sections, list elements by index,
   except the host wall-clock fields (keys [host*] and [boot-ns]) and the
   Chrome trace export, whose counts the trace payload's [events] holds. *)
let bench_lines doc =
  let rec leaves path = function
    | J.Obj l ->
        List.concat_map
          (fun (k, v) ->
            let p = if path = "" then k else path ^ "." ^ k in
            if String.starts_with ~prefix:"host" k || k = "boot-ns"
               || List.mem p [ "bench"; "quick"; "trace.chrome" ]
            then []
            else leaves p v)
          l
    | J.List l ->
        List.concat
          (List.mapi (fun i v -> leaves (Printf.sprintf "%s.%d" path i) v) l)
    | v -> [ Printf.sprintf "bench %s %s" path (String.trim (J.emit v)) ]
  in
  leaves "" doc

let lines file =
  let doc = J.parse (In_channel.with_open_bin file In_channel.input_all) in
  if J.member "bench" doc = Some (J.Str "sva-eval") then bench_lines doc
  else perf_lines doc

let () =
  List.tl (Array.to_list Sys.argv)
  |> List.concat_map lines |> List.sort_uniq compare
  |> List.iter print_endline

(* The repository benchmark: four seeded workloads, each run in a fresh
   child process, with end-to-end and per-layer metrics, a traced rerun,
   and a comparison of two result files against the bounds in
   BENCHMARK.json.  See README.md in this directory. *)

module J = Harness.Jsonout

let usage =
  "usage: perf [--workload W]... [--seed N] [--seconds S | --scale F] [--runs N]\n\
  \            [--trace 0|1] [--trace-out FILE] [--json FILE] [--benchmark FILE]\n\
  \       perf compare A.json B.json [--benchmark FILE]\n\
  \       perf determinism [--workload W]... [--scale F]\n\
   workloads: syscall-mix bulk-io http-aot build-boot"

let die fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "perf: %s\n%s\n" m usage;
      exit 2)
    fmt

let default_seed = 1
let held_out_seed = 2

(* ---------- BENCHMARK.json ---------- *)

type bound = { b_name : string; b_lower : bool; b_bound : float option }

type manifest = {
  run_seconds : float;
  end_to_end : bound list;
  per_layer : bound list;
}

let read_manifest path =
  let doc =
    try J.parse (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e | J.Parse_error e -> die "cannot read %s: %s" path e
  in
  let field k o = match J.member k o with Some v -> v | None -> die "%s: no %s" path k in
  let metric_list k =
    List.map
      (fun m ->
        { b_name = J.to_string (field "name" m);
          b_lower = J.to_string (field "better" m) = "lower";
          b_bound = Option.map J.to_float (J.member "bound" m) })
      (J.to_list (field k doc))
  in
  let names = List.map (fun w -> J.to_string (field "name" w)) (J.to_list (field "workloads" doc)) in
  if names <> List.map (fun s -> s.Run.w_name) Run.specs then
    die "%s lists workloads %s" path (String.concat " " names);
  { run_seconds = J.to_float (field "run_seconds" doc);
    end_to_end = metric_list "end_to_end"; per_layer = metric_list "per_layer" }

(* ---------- child processes ---------- *)

(* Run one workload in a fresh process and parse the JSON it prints.
   The child's stderr passes through. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: "child" :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  In_channel.close ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (
      try J.parse out
      with J.Parse_error e -> failwith ("unreadable child output: " ^ e))
  | _ -> failwith ("child " ^ String.concat " " args ^ " failed")

let child_args name ~seed ~ops ~seconds ~traced =
  [ "--workload"; name; "--seed"; string_of_int seed ]
  @ (match ops with Some n -> [ "--ops"; string_of_int n ] | None -> [ "--seconds"; Printf.sprintf "%g" seconds ])
  @ if traced then [ "--traced" ] else []

let get k o = match J.member k o with Some v -> v | None -> failwith ("result without " ^ k)
let metrics_of r = match get "metrics" r with J.Obj l -> l | _ -> []
let value m = J.to_float (get "value" m)
let is_exact m = match J.member "exact" m with Some (J.Bool b) -> b | _ -> false

let failures_of r = List.map J.to_string (J.to_list (get "failures" r))

(* ---------- one benchmark invocation ---------- *)

type run = {
  untraced : J.t;
  traced : J.t option;
  metrics : (string * J.t) list;  (** untraced metrics, plus the traced-only ones *)
  failed : int;  (** failed ops and checks *)
  failures : string list;
}

(* Everything the untraced run counts it also reports; the traced run
   adds stage times and profiler attributions.  Tracing must not change
   what the program does, so every exact metric both report, and the op
   sequence, must agree. *)
let merge u t =
  let um = metrics_of u and tm = metrics_of t in
  let drift =
    List.filter_map
      (fun (k, m) ->
        match List.assoc_opt k tm with
        | Some m' when is_exact m && value m <> value m' ->
            Some (Printf.sprintf "tracing changed %s: %g -> %g" k (value m) (value m'))
        | _ -> None)
      um
  in
  let drift =
    if get "sequence" u <> get "sequence" t then "tracing changed the op sequence" :: drift
    else drift
  in
  let rate r = value (List.assoc "ops_per_s" (metrics_of r)) in
  let overhead = 100. *. ((rate u /. rate t) -. 1.) in
  let extra = List.filter (fun (k, _) -> not (List.mem_assoc k um)) tm in
  ( um @ extra
    @ [ ("trace.overhead_pct", J.Obj [ ("value", J.Float overhead); ("unit", J.Str "%"); ("exact", J.Bool false) ]) ],
    drift )

let run_once name ~seed ~ops ~seconds ~trace =
  let u = spawn (child_args name ~seed ~ops ~seconds ~traced:false) in
  let failed r = J.to_int (get "failed" r) in
  if not trace then
    { untraced = u; traced = None; metrics = metrics_of u; failed = failed u;
      failures = failures_of u }
  else
    (* the same seed and op count, with recording on *)
    let n = J.to_int (get "attempted" u) in
    let t = spawn (child_args name ~seed ~ops:(Some n) ~seconds ~traced:true) in
    let metrics, drift = merge u t in
    { untraced = u; traced = Some t; metrics;
      failed = failed u + failed t + List.length drift;
      failures = failures_of u @ failures_of t @ drift }

(* ---------- statistics over runs ---------- *)

let quartiles vs =
  let a = Run.sorted_of_list vs in
  (Run.pct a 25., Run.pct a 50., Run.pct a 75.)

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

(* ---------- reports ---------- *)

let print_metrics name runs =
  Printf.printf "\n== %s (%d run%s) ==\n" name (List.length runs)
    (if List.length runs = 1 then "" else "s");
  Printf.printf "  %-44s %14s %-7s %14s %14s %8s\n" "metric" "median" "unit" "q1" "q3" "n";
  List.iter
    (fun (k, m) ->
      let unit_ = J.to_string (get "unit" m) in
      let vs = List.filter_map (fun r -> Option.map value (List.assoc_opt k r.metrics)) runs in
      let q1, med, q3, n =
        if List.length runs > 1 then
          let q1, med, q3 = quartiles vs in
          (Some q1, med, Some q3, Some (List.length vs))
        else
          let f k' = Option.map J.to_float (J.member k' m) in
          (f "q1", value m, f "q3", Option.map J.to_int (J.member "n" m))
      in
      let opt = function Some v when Float.is_finite v -> fmt_num v | _ -> "-" in
      Printf.printf "  %-44s %14s %-7s %14s %14s %8s%s\n" k (fmt_num med) unit_ (opt q1) (opt q3)
        (match n with Some n -> string_of_int n | None -> "-")
        (if is_exact m then "  exact" else ""))
    (List.hd runs).metrics

(* Self time per span and per layer (the span-name prefix), from the
   traced run. *)
let print_layers r =
  match r.traced with
  | None -> ()
  | Some t ->
      let rows =
        List.map
          (fun a ->
            ( J.to_string (get "name" a), J.to_int (get "count" a),
              J.to_float (get "total_ms" a), J.to_float (get "self_ms" a) ))
          (J.to_list (get "layers" t))
      in
      let layer n = match String.index_opt n '.' with Some i -> String.sub n 0 i | None -> n in
      let total = List.fold_left (fun a (_, _, _, s) -> a +. s) 0. rows in
      Printf.printf "  -- traced run: self time by span --\n";
      Printf.printf "  %-32s %8s %12s %12s\n" "span" "count" "total ms" "self ms";
      List.iter
        (fun (n, c, tot, s) -> Printf.printf "  %-32s %8d %12.2f %12.2f\n" n c tot s)
        rows;
      Printf.printf "  -- self time by layer --\n";
      let layers = List.sort_uniq compare (List.map (fun (n, _, _, _) -> layer n) rows) in
      List.iter
        (fun l ->
          let s =
            List.fold_left (fun a (n, _, _, s) -> if layer n = l then a +. s else a) 0. rows
          in
          Printf.printf "  %-32s %12.2f ms %6.1f%%\n" l s (100. *. s /. total))
        layers

(* The Chrome trace of every traced child, one pid per workload, parsed
   back and checked for balanced B/E events. *)
let chrome_trace traced =
  let events =
    List.concat
      (List.mapi
         (fun i t ->
           List.map
             (function
               | J.Obj l -> J.Obj (List.map (fun (k, v) -> if k = "pid" then (k, J.Int (i + 1)) else (k, v)) l)
               | e -> e)
             (J.to_list (get "trace_events" t)))
         traced)
  in
  let doc = J.emit (J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.Str "ms") ]) in
  let spans = Span.check_balanced (J.parse doc) in
  (doc, spans)

(* ---------- main modes ---------- *)

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable scale : float option;
  mutable runs : int;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable json : string option;
  mutable benchmark : string;
  mutable ops : int option;
  mutable traced_child : bool;
}

let parse_opts ~child args =
  let o =
    { workloads = []; seed = default_seed; seconds = None; scale = None; runs = 1;
      trace = false; trace_out = None; json = None; benchmark = "BENCHMARK.json";
      ops = None; traced_child = false }
  in
  let num conv what v = match conv v with Some x -> x | None -> die "bad %s '%s'" what v in
  let rec go = function
    | [] -> ()
    | "--traced" :: rest when child -> o.traced_child <- true; go rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        (match flag with
        | "--workload" ->
            if not (List.exists (fun s -> s.Run.w_name = v) Run.specs) then die "unknown workload '%s'" v;
            o.workloads <- o.workloads @ [ v ]
        | "--seed" -> o.seed <- num int_of_string_opt "--seed" v
        | "--seconds" ->
            let s = num float_of_string_opt "--seconds" v in
            if s <= 0. then die "--seconds must be positive";
            o.seconds <- Some s
        | "--scale" ->
            let s = num float_of_string_opt "--scale" v in
            if s <= 0. then die "--scale must be positive";
            o.scale <- Some s
        | "--runs" ->
            let n = num int_of_string_opt "--runs" v in
            if n < 1 then die "--runs must be at least 1";
            o.runs <- n
        | "--trace" -> (
            match v with
            | "0" -> o.trace <- false
            | "1" -> o.trace <- true
            | _ -> die "--trace takes 0 or 1")
        | "--trace-out" -> o.trace_out <- Some v
        | "--json" -> o.json <- Some v
        | "--benchmark" -> o.benchmark <- v
        | "--ops" when child -> o.ops <- Some (num int_of_string_opt "--ops" v)
        | _ -> die "unknown flag '%s'" flag);
        go rest
    | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        if List.mem flag [ "--workload"; "--seed"; "--seconds"; "--scale"; "--runs"; "--trace";
                           "--trace-out"; "--json"; "--benchmark"; "--ops" ]
        then die "%s needs a value" flag
        else die "unknown flag '%s'" flag
    | a :: _ -> die "unexpected argument '%s'" a
  in
  go args;
  if o.seconds <> None && o.scale <> None then die "--seconds and --scale exclude each other";
  if o.trace_out <> None && not o.trace then die "--trace-out needs --trace 1";
  o

let spec_of name = List.find (fun s -> s.Run.w_name = name) Run.specs

let ops_of o name =
  Option.map
    (fun f -> max 1 (int_of_float (Float.round (f *. float_of_int (spec_of name).Run.ref_ops))))
    o.scale

let selected o = if o.workloads = [] then List.map (fun s -> s.Run.w_name) Run.specs else o.workloads

let write_json o results path =
  let run_json r =
    J.Obj
      [ ("attempted", get "attempted" r.untraced); ("failed", J.Int r.failed);
        ("failures", J.List (List.map (fun s -> J.Str s) r.failures));
        ("sequence", get "sequence" r.untraced); ("metrics", J.Obj r.metrics) ]
  in
  let doc =
    J.Obj
      [ ("bench", J.Str "sva-perf"); ("seed", J.Int o.seed);
        ("workloads",
          J.List
            (List.map
               (fun (name, runs) ->
                 J.Obj [ ("name", J.Str name); ("runs", J.List (List.map run_json runs)) ])
               results)) ]
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Run.to_line doc ^ "\n"));
  Printf.printf "json: wrote %s\n" path

(* The last line of output: every end-to-end metric, or with --trace 1
   every per-layer one, as the median over runs, prefixed with the
   workload when more than one ran. *)
let result_line results wanted ~attempted ~failed =
  let metrics =
    List.concat_map
      (fun (name, runs) ->
        List.map
          (fun b ->
            match List.filter_map (fun r -> List.assoc_opt b.b_name r.metrics) runs with
            | [] ->
                Printf.eprintf "perf: %s reports no %s\n" name b.b_name;
                exit 1
            | found ->
                let _, med, _ = quartiles (List.map value found) in
                let key = if List.length results > 1 then name ^ "/" ^ b.b_name else b.b_name in
                (key, J.Obj [ ("value", J.Float med); ("unit", get "unit" (List.hd found)) ]))
          wanted)
      results
  in
  J.Obj
    [ ("correct", J.Bool (failed = 0)); ("attempted", J.Int (max 1 attempted));
      ("failed", J.Int failed); ("metrics", J.Obj metrics) ]

let main_bench o =
  let m = read_manifest o.benchmark in
  let seconds = Option.value o.seconds ~default:m.run_seconds in
  let results =
    List.map
      (fun name ->
        let runs =
          List.init o.runs (fun _ ->
              run_once name ~seed:o.seed ~ops:(ops_of o name) ~seconds ~trace:o.trace)
        in
        print_metrics name runs;
        print_layers (List.hd runs);
        List.iter (fun r -> List.iter (Printf.printf "  !! %s\n") r.failures) runs;
        flush stdout;
        (name, runs))
      (selected o)
  in
  let all_runs = List.concat_map snd results in
  let trace_failed =
    if not o.trace then 0
    else
      match chrome_trace (List.filter_map (fun r -> r.traced) all_runs) with
      | doc, spans ->
          Printf.printf "\ntrace: %d spans exported, B/E events balanced\n" spans;
          Option.iter
            (fun path ->
              Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc);
              Printf.printf "trace: wrote %s\n" path)
            o.trace_out;
          0
      | exception (Failure e | J.Parse_error e) ->
          Printf.printf "  !! exported trace: %s\n" e;
          1
  in
  Option.iter (write_json o results) o.json;
  let wanted = if o.trace then m.per_layer else m.end_to_end in
  let attempted = List.fold_left (fun a r -> a + J.to_int (get "attempted" r.untraced)) 0 all_runs in
  let failed = List.fold_left (fun a r -> a + r.failed) trace_failed all_runs in
  print_endline (Run.to_line (result_line results wanted ~attempted ~failed));
  if failed > 0 then exit 1

(* ---------- compare ---------- *)

let load_results path =
  let doc =
    try J.parse (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e | J.Parse_error e -> die "cannot read %s: %s" path e
  in
  ( J.to_int (get "seed" doc),
    List.map
      (fun w ->
        ( J.to_string (get "name" w),
          List.map
            (fun r -> (J.to_int (get "failed" r), metrics_of r))
            (J.to_list (get "runs" w)) ))
      (J.to_list (get "workloads" doc)) )

(* Exact metrics must be equal in every run on both sides.  A host
   metric with a bound in BENCHMARK.json may be worse in B than in A by
   at most that share of A's median; where either side's quartile spread
   is wider than the bound the comparison is unresolved, unless every run
   of B beats every run of A. *)
let main_compare a_path b_path benchmark =
  let m = read_manifest benchmark in
  let seed_a, wa = load_results a_path and seed_b, wb = load_results b_path in
  if seed_a <> seed_b then die "%s and %s were run on different seeds" a_path b_path;
  let bad = ref 0 in
  Printf.printf "%-12s %-40s %26s %26s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun (name, ra) ->
      match List.assoc_opt name wb with
      | None -> Printf.printf "%-12s (absent from %s)\n" name b_path
      | Some rb ->
          let failed = List.fold_left (fun a (f, _) -> a + f) 0 (ra @ rb) in
          if failed > 0 then begin
            incr bad;
            Printf.printf "%-12s %d failed ops or checks\n" name failed
          end;
          List.iter
            (fun (k, m0) ->
              let vals side = List.filter_map (fun (_, ms) -> Option.map value (List.assoc_opt k ms)) side in
              let va = vals ra and vb = vals rb in
              if vb <> [] then begin
                let q1a, ma, q3a = quartiles va and q1b, mb, q3b = quartiles vb in
                let verdict =
                  if is_exact m0 then
                    if List.for_all (( = ) (List.hd va)) (va @ vb) then "same"
                    else (incr bad; "DIFFERS")
                  else
                    match List.find_opt (fun b -> b.b_name = k) m.end_to_end with
                    | Some { b_bound = Some bound; b_lower; _ } ->
                        let worse = (if b_lower then mb -. ma else ma -. mb) /. ma in
                        let spread q1 q3 med = (q3 -. q1) /. med in
                        let all_better =
                          if b_lower then List.fold_left max neg_infinity vb < List.fold_left min infinity va
                          else List.fold_left min infinity vb > List.fold_left max neg_infinity va
                        in
                        if spread q1a q3a ma > bound || spread q1b q3b mb > bound then
                          if all_better then "better" else "unresolved"
                        else if worse > bound then (incr bad; "REGRESSED")
                        else "ok"
                    | _ -> "-"
                in
                let side q1 med q3 = Printf.sprintf "%s [%s, %s]" (fmt_num med) (fmt_num q1) (fmt_num q3) in
                Printf.printf "%-12s %-40s %26s %26s %+7.1f%%  %s\n" name k (side q1a ma q3a)
                  (side q1b mb q3b)
                  (if ma = 0. then 0. else 100. *. (mb -. ma) /. ma)
                  verdict
              end)
            (match ra with (_, ms) :: _ -> ms | [] -> []))
    wa;
  if !bad > 0 then begin
    Printf.printf "compare: %d metric(s) regressed, differ or failed\n" !bad;
    exit 1
  end

(* ---------- determinism ---------- *)

(* The same seed must draw the same op sequence and give identical exact
   metrics; the held-out seed must draw a different sequence (build-boot
   draws nothing, so it only has the first check). *)
let main_determinism o =
  let bad = ref 0 in
  let scale = Option.value o.scale ~default:0.01 in
  List.iter
    (fun name ->
      let ops = ops_of { o with scale = Some scale } name in
      let run seed = spawn (child_args name ~seed ~ops ~seconds:0. ~traced:false) in
      let a = run default_seed and b = run default_seed and c = run held_out_seed in
      let problems =
        List.filter_map Fun.id
          [ (if get "sequence" a <> get "sequence" b then Some "same seed, different op sequence" else None);
            (if get "seeded" a = J.Bool true && get "sequence" a = get "sequence" c then
               Some "held-out seed drew the same op sequence" else None);
            (match
               List.filter
                 (fun (k, m) ->
                   is_exact m
                   && match List.assoc_opt k (metrics_of b) with Some m' -> value m <> value m' | None -> true)
                 (metrics_of a)
             with
            | [] -> None
            | l -> Some ("exact metrics differ: " ^ String.concat " " (List.map fst l)));
            (if List.exists (fun r -> J.to_int (get "failed" r) > 0) [ a; b; c ] then Some "failed ops or checks"
             else None) ]
      in
      Printf.printf "determinism %-12s %s\n" name
        (if problems = [] then "ok" else String.concat "; " problems);
      if problems <> [] then incr bad)
    (selected o);
  if !bad > 0 then exit 1

(* ---------- entry ---------- *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: args ->
      let o = parse_opts ~child:true args in
      let spec =
        match o.workloads with [ w ] -> spec_of w | _ -> die "a child runs exactly one workload"
      in
      let limit =
        match (o.ops, o.seconds) with
        | Some n, _ -> Run.Ops n
        | None, Some s -> Run.Seconds s
        | None, None -> die "a child needs --ops or --seconds"
      in
      Run.traced := o.traced_child;
      Run.main spec ~seed:o.seed ~limit
  | "compare" :: args -> (
      match args with
      | [ a; b ] -> main_compare a b "BENCHMARK.json"
      | [ a; b; "--benchmark"; m ] -> main_compare a b m
      | _ -> die "compare takes two result files")
  | "determinism" :: args -> main_determinism (parse_opts ~child:false args)
  | args -> (
      try main_bench (parse_opts ~child:false args)
      with Failure e ->
        Printf.eprintf "perf: %s\n" e;
        exit 1)

(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 7) against the MiniC kernel running on the
   SVM, and cross-checks the deterministic cycle model against wall-clock
   measurements taken with Bechamel.

   Usage:
     dune exec bench/main.exe            -- everything (a few minutes)
     dune exec bench/main.exe -- --quick -- reduced repetition counts
     dune exec bench/main.exe -- table7  -- a single experiment by name
     dune exec bench/main.exe -- --json out.json
                                         -- also write machine-readable
                                            numbers for every selected
                                            section that has them

   The section list (and which sections carry JSON) is Harness.Tables.
   sections plus the bechamel cross-check defined here; the usage message
   prints it.  Unknown flags and unknown section names are errors (exit
   2): a typo must not silently select nothing and report success.  A
   section whose check fails ends its report with a FAIL verdict; only
   under --strict does that stop the run with exit 1.  Without --strict
   only a section that raises makes the run exit nonzero. *)

module Tables = Harness.Tables
module Pipeline = Sva_pipeline.Pipeline
module Boot = Ukern.Boot

(* ---------- Bechamel wall-clock cross-check ----------

   One Bechamel test per performance table: the representative operation
   of that table, on the native and fully-checked kernels.  The cycle
   model drives the tables; this verifies real elapsed time moves in the
   same direction. *)

let bechamel_crosscheck ~quick ~strict:_ =
  let open Bechamel in
  let mk_kernel conf =
    let b = Ukern.Kbuild.build ~conf Ukern.Kbuild.as_tested in
    let t = Boot.boot_built b ~variant:Ukern.Kbuild.as_tested in
    let ctx = Harness.Workloads.prepare t in
    Harness.Workloads.http_setup ctx;
    ctx
  in
  let native = mk_kernel Pipeline.Native in
  let safe = mk_kernel Pipeline.Sva_safe in
  let tests =
    [
      (* Table 7 representative: the open/close latency pair. *)
      Test.make ~name:"table7/open-close/native"
        (Staged.stage (fun () -> Harness.Workloads.op_open_close native));
      Test.make ~name:"table7/open-close/sva-safe"
        (Staged.stage (fun () -> Harness.Workloads.op_open_close safe));
      (* Table 8 representative: 32k pipe streaming. *)
      Test.make ~name:"table8/pipe-32k/native"
        (Staged.stage (fun () -> Harness.Workloads.op_pipe_stream native 32768));
      Test.make ~name:"table8/pipe-32k/sva-safe"
        (Staged.stage (fun () -> Harness.Workloads.op_pipe_stream safe 32768));
      (* Tables 5/6 representative: one small-file HTTP request. *)
      Test.make ~name:"table5-6/thttpd-311B/native"
        (Staged.stage (fun () ->
             ignore
               (Harness.Workloads.serve_http_request native ~file:"www.311"
                  ~cgi:false)));
      Test.make ~name:"table5-6/thttpd-311B/sva-safe"
        (Staged.stage (fun () ->
             ignore
               (Harness.Workloads.serve_http_request safe ~file:"www.311"
                  ~cgi:false)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if quick then 0.25 else 0.75))
      ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let analyze = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "== Wall-clock cross-check (Bechamel, monotonic clock) ==\n\
     The tables above use the deterministic cycle model; these are real\n\
     elapsed-time estimates for one representative operation per table.\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols = Analyze.all analyze Toolkit.Instance.monotonic_clock results in
      (* Hashtbl iteration order is unspecified — sort by test name so
         the report (and any diff against it) is deterministic. *)
      let rows =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ols [])
      in
      List.iter
        (fun (name, o) ->
          match Analyze.OLS.estimates o with
          | Some (est :: _) ->
              Buffer.add_string buf
                (Printf.sprintf "  %-32s %12.0f ns/op (OLS)\n" name est)
          | _ ->
              Buffer.add_string buf
                (Printf.sprintf "  %-32s (no estimate)\n" name))
        rows)
    tests;
  (* independent median-of-batches measurement of the same headline pair *)
  let med name f =
    let s = Harness.Timing.measure ~batches:5 ~reps:(if quick then 20 else 60) f in
    Buffer.add_string buf
      (Printf.sprintf "  %-32s %12.0f ns/op (median)\n" name
         s.Harness.Timing.s_per_op_ns)
  in
  med "open-close/native" (fun () -> Harness.Workloads.op_open_close native);
  med "open-close/sva-safe" (fun () -> Harness.Workloads.op_open_close safe);
  (* Fast-path A/B: the same checked kernel with the object-lookup cache
     off and on.  The cycle-model fastpath table covers both fast-path
     layers; this isolates the cache's real elapsed-time effect (the
     pre-decoded dispatch is always on). *)
  let with_cache on f =
    (* Caching is per-pool state (no process-global switch): flip the
       checked kernel's own pools and restore them afterwards. *)
    let pools =
      Sva_interp.Interp.metapools (Harness.Workloads.kernel safe).Boot.vm
    in
    let set b =
      List.iter (fun (_, mp) -> Sva_rt.Metapool_rt.set_cached mp b) pools
    in
    set on;
    Fun.protect ~finally:(fun () -> set true) f
  in
  med "open-close/sva-safe/cache-off" (fun () ->
      with_cache false (fun () -> Harness.Workloads.op_open_close safe));
  med "open-close/sva-safe/cache-on" (fun () ->
      with_cache true (fun () -> Harness.Workloads.op_open_close safe));
  Buffer.contents buf

let sections =
  Tables.sections
  @ [ { Tables.name = "bechamel"; render = bechamel_crosscheck; json = None } ]

let quick = ref false
let strict = ref false
let json_out : string option ref = ref None
let only : string list ref = ref []

let usage () =
  Printf.eprintf
    "usage: bench [SECTION]... [--quick] [--strict] [--json FILE]\n\
     sections: %s\n"
    (String.concat " " (List.map (fun s -> s.Tables.name) sections))

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench: %s\n" msg;
      usage ();
      exit 2)
    fmt

let () =
  let argc = Array.length Sys.argv in
  let i = ref 1 in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--quick" -> quick := true
    | "--strict" -> strict := true
    | "--json" ->
        (* the next token is the file, unless it is missing or a flag *)
        let file = if !i + 1 < argc then Sys.argv.(!i + 1) else "" in
        if file = "" || file.[0] = '-' then
          die "--json requires a file argument";
        incr i;
        json_out := Some file
    | s when String.length s > 0 && s.[0] = '-' -> die "unknown flag '%s'" s
    | s when List.exists (fun sec -> sec.Tables.name = s) sections ->
        only := s :: !only
    | s -> die "unknown section '%s'" s);
    incr i
  done

let selected =
  List.filter (fun s -> !only = [] || List.mem s.Tables.name !only) sections

(* Sections that raised; a nonempty list means a nonzero exit even
   without --strict (which instead stops at the first failure). *)
let failed_sections : string list ref = ref []

(* [f ()], or [None] after reporting its exception as [shown] on
   stderr, which a run with its report discarded still shows, and
   recording the failure as [name]. *)
let guarded ~shown name f =
  match f () with
  | v -> Some v
  | exception e ->
      flush stdout;
      Printf.eprintf "!! %s failed: %s\n%!" shown (Printexc.to_string e);
      failed_sections := name :: !failed_sections;
      if !strict then exit 1;
      None

let () =
  Printf.printf
    "Secure Virtual Architecture (SOSP 2007) - evaluation reproduction\n";
  Printf.printf "================================================================\n";
  Printf.printf "Four kernels: %s.\n%s\n"
    (String.concat ", " (List.map Pipeline.conf_name Pipeline.all_confs))
    (if !quick then "(quick mode: reduced repetitions)" else "");
  List.iter
    (fun (s : Tables.section) ->
      Printf.printf "\n";
      (* Measurement boundary: the AOT translation cache and the tier
         counters are process globals, so a section that translated
         functions must not hand the next section cached translations or
         inflated counters. *)
      Sva_interp.Closcomp.clear_cache ();
      Sva_rt.Stats.reset_tier ();
      Option.iter print_string
        (guarded ~shown:s.name s.name (fun () ->
             s.render ~quick:!quick ~strict:!strict));
      flush stdout)
    selected;
  (match !json_out with
  | None -> ()
  | Some path ->
      let module J = Harness.Jsonout in
      (* The measurements behind these payloads are memoized in Tables,
         so a section that already printed is not re-measured here. *)
      let parts =
        List.filter_map
          (fun (s : Tables.section) ->
            Option.bind s.json (fun json ->
                guarded ~shown:("json " ^ s.name) ("json:" ^ s.name)
                  (fun () -> (s.name, json.Tables.payload ~quick:!quick))))
          selected
      in
      let doc =
        J.Obj
          (("bench", J.Str "sva-eval")
          :: ("quick", J.Bool !quick)
          :: parts)
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (J.emit doc));
      Printf.printf "\njson: wrote %s (%d sections)\n" path (List.length parts));
  match List.rev !failed_sections with
  | [] -> Printf.printf "\nDone.\n"
  | fs ->
      Printf.printf "\nDone with FAILURES: %s\n" (String.concat ", " fs);
      exit 1

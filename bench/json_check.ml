(* Consumes the bench --json output back through the harness JSON parser
   and checks each section's shape — the regression gate that keeps the
   machine-readable results file well-formed.

     json_check FILE [SECTION]...

   Every section present in FILE is validated, and a section with no
   validator is an error; the SECTION arguments additionally require
   those sections to be present (a json run that silently dropped a
   section must not pass the gate). *)

module J = Harness.Jsonout

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let get name = function
  | Some v -> v
  | None -> fail "missing field %s" name

(* one summary fragment per validated section, printed at the end *)
let summaries : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> summaries := s :: !summaries) fmt

let check_lint path lint =
  let findings = get "lint.findings" (J.member "findings" lint) in
  (match findings with
  | J.Obj fields ->
      List.iter
        (fun (checker, v) ->
          if J.to_int v <> 0 then
            fail "%s: clean kernel has %d %s findings" path (J.to_int v) checker)
        fields
  | _ -> fail "%s: lint.findings is not an object" path);
  let proofs = J.to_int (get "lint.accesses-proved-safe" (J.member "accesses-proved-safe" lint)) in
  if proofs <= 0 then fail "%s: prover found no safe accesses" path;
  let ls = get "lint.ls-checks" (J.member "ls-checks" lint) in
  let field k = J.to_int (get ("lint.ls-checks." ^ k) (J.member k ls)) in
  let off = field "lint-off" and on = field "lint-on" and proved = field "proved-static" in
  if off - on <> proved then
    fail "%s: check reduction %d-%d does not match proved-static %d" path off on proved;
  note "%d accesses proved, %d checks elided" proofs proved

(* the lookup cache must be semantically invisible (same checks per op),
   cut splay comparisons at least in half and never cost model cycles *)
let check_fastpath path fp =
  let pair section =
    let o = get ("fastpath." ^ section) (J.member section fp) in
    ( get (section ^ ".cache-off") (J.member "cache-off" o),
      get (section ^ ".cache-on") (J.member "cache-on" o) )
  in
  let koff, kon = pair "checks-per-op" in
  if J.to_int koff <> J.to_int kon then
    fail "%s: lookup cache changed check counts (%d vs %d)" path
      (J.to_int koff) (J.to_int kon);
  let reduction =
    J.to_float
      (get "fastpath.comparison-reduction" (J.member "comparison-reduction" fp))
  in
  if not (reduction >= 2.0) then
    fail "%s: splay comparison reduction %.2fx below the 2x floor" path
      reduction;
  let coff, con = pair "cycles-per-op" in
  if J.to_float con > J.to_float coff then
    fail "%s: cached run costs more model cycles (%f vs %f)" path
      (J.to_float con) (J.to_float coff);
  note "fastpath %.1fx fewer comparisons" reduction

(* every Table 7 operation has a positive native cost and finite measured
   and paper overheads for each of the three SVA configurations *)
let check_table7 path t7 =
  let ops = J.to_list t7 in
  if ops = [] then fail "%s: table7 has no operations" path;
  List.iter
    (fun op ->
      let name = J.to_string (get "table7[].operation" (J.member "operation" op)) in
      let native =
        J.to_float (get "table7[].native-cycles" (J.member "native-cycles" op))
      in
      if not (native > 0.0) then
        fail "%s: table7 %s has non-positive native cycles" path name;
      match get "table7[].overheads-pct" (J.member "overheads-pct" op) with
      | J.Obj confs when List.length confs = 3 ->
          List.iter
            (fun (conf, o) ->
              List.iter
                (fun k ->
                  match J.member k o with
                  | Some ((J.Int _ | J.Float _) as v)
                    when Float.is_finite (J.to_float v) -> ()
                  | _ ->
                      fail "%s: table7 %s %s has no finite %s overhead" path
                        name conf k)
                [ "measured"; "paper" ])
            confs
      | _ ->
          fail "%s: table7 %s lacks the three SVA configurations" path name)
    ops;
  note "table7 %d operations" (List.length ops)

(* the second tier must be semantically invisible (the modeled numbers
   agree bit-for-bit across engines) and faster *)
let check_tiered path tiered =
  let pair section =
    let o = get ("tiered." ^ section) (J.member section tiered) in
    ( get (section ^ ".interp") (J.member "interp" o),
      get (section ^ ".tiered") (J.member "tiered" o) )
  in
  let ci, ct = pair "cycles-per-op" in
  if J.to_float ci <> J.to_float ct then
    fail "%s: tiered engine changed modeled cycles (%f vs %f)" path
      (J.to_float ci) (J.to_float ct);
  let ki, kt = pair "checks-per-op" in
  if J.to_int ki <> J.to_int kt then
    fail "%s: tiered engine changed check counts (%d vs %d)" path
      (J.to_int ki) (J.to_int kt);
  let speedup = J.to_float (get "tiered.host-speedup" (J.member "host-speedup" tiered)) in
  if speedup <= 0.0 then fail "%s: tiered host-speedup %f not positive" path speedup;
  let promos = J.to_int (get "tiered.promotions" (J.member "promotions" tiered)) in
  if promos <= 0 then fail "%s: tiered engine promoted no functions" path;
  note "tiered %.2fx" speedup

(* whole-kernel AOT against a warm persistent store: bit-identical to
   the interpreter, every translation reused from disk, none redone *)
let check_aot path aot =
  let triple section =
    let o = get ("aot." ^ section) (J.member section aot) in
    ( get (section ^ ".interp") (J.member "interp" o),
      get (section ^ ".aot") (J.member "aot" o) )
  in
  let ci, ca = triple "cycles-per-op" in
  if J.to_float ci <> J.to_float ca then
    fail "%s: aot engine changed modeled cycles (%f vs %f)" path
      (J.to_float ci) (J.to_float ca);
  let si, sa = triple "steps-per-op" in
  if J.to_float si <> J.to_float sa then
    fail "%s: aot engine changed step counts (%f vs %f)" path
      (J.to_float si) (J.to_float sa);
  let ki, ka = triple "checks-per-op" in
  if J.to_int ki <> J.to_int ka then
    fail "%s: aot engine changed check counts (%d vs %d)" path
      (J.to_int ki) (J.to_int ka);
  let speedup = J.to_float (get "aot.host-speedup" (J.member "host-speedup" aot)) in
  if speedup <= 0.0 then fail "%s: aot host-speedup %f not positive" path speedup;
  let compiled =
    J.to_int (get "aot.functions-compiled" (J.member "functions-compiled" aot))
  in
  if compiled <= 0 then fail "%s: aot engine compiled no functions" path;
  let disk = get "aot.disk-cache" (J.member "disk-cache" aot) in
  let dint k = J.to_int (get ("aot.disk-cache." ^ k) (J.member k disk)) in
  if dint "writes-cold" <= 0 then
    fail "%s: cold aot boot persisted no translations" path;
  let hits = dint "hits-warm" in
  if hits < 1 then fail "%s: warm aot boot reused no translations" path;
  let misses = dint "misses-warm" in
  if misses <> 0 then
    fail "%s: warm aot boot re-translated %d functions" path misses;
  let supers = J.to_int (get "aot.superblocks" (J.member "superblocks" aot)) in
  if supers <= 0 then fail "%s: aot translator formed no superblocks" path;
  note "aot %.2fx (%d fns, %d disk hits, %d superblocks)" speedup compiled
    hits supers

(* the SMP schedule must be deterministic and semantically invisible:
   1 CPU bit-identical to the sequential run, aggregate check counts
   identical at every CPU count, the same-seed rerun reproduced, and
   the 4-CPU makespan clearing the scaling floor *)
let check_smp path smp =
  let seq = get "smp.sequential" (J.member "sequential" smp) in
  let seq_checks =
    J.to_int (get "smp.sequential.checks" (J.member "checks" seq))
  in
  let points = J.to_list (get "smp.points" (J.member "points" smp)) in
  if points = [] then fail "%s: smp.points is empty" path;
  let speedup4 = ref 0.0 in
  List.iter
    (fun p ->
      let pint k = J.to_int (get ("smp.points[]." ^ k) (J.member k p)) in
      let cpus = pint "cpus" in
      if pint "checks" <> seq_checks then
        fail "%s: check count diverged at %d CPUs (%d vs %d)" path cpus
          (pint "checks") seq_checks;
      if pint "makespan-cycles" <= 0 then
        fail "%s: non-positive makespan at %d CPUs" path cpus;
      let sp =
        J.to_float (get "smp.points[].speedup" (J.member "speedup" p))
      in
      if cpus = 4 then speedup4 := sp)
    points;
  if !speedup4 < 3.0 then
    fail "%s: 4-CPU speedup %.2fx below the 3x floor" path !speedup4;
  let gate name =
    match get ("smp." ^ name) (J.member name smp) with
    | J.Bool true -> ()
    | J.Bool false -> fail "%s: smp gate %s failed" path name
    | _ -> fail "%s: smp.%s is not a bool" path name
  in
  gate "single-cpu-identical";
  gate "rerun-identical";
  note "smp %.2fx @ 4 cpus" !speedup4

(* certified elision must only ever remove checks, the bounds drop must
   equal the certified-gep count, and the build-time certificate gate
   must have re-verified the bundle *)
let check_ranges path ranges =
  let rint sec k =
    let o = get ("ranges." ^ sec) (J.member sec ranges) in
    J.to_int (get ("ranges." ^ sec ^ "." ^ k) (J.member k o))
  in
  let ls_off = rint "ls-checks" "ranges-off"
  and ls_on = rint "ls-checks" "ranges-on" in
  if ls_on >= ls_off then
    fail "%s: range elision did not reduce ls checks (%d -> %d)" path ls_off
      ls_on;
  let b_off = rint "bounds-checks" "ranges-off"
  and b_on = rint "bounds-checks" "ranges-on"
  and b_cert = rint "bounds-checks" "cert-elided" in
  if b_off - b_on <> b_cert then
    fail "%s: bounds reduction %d-%d does not match certified geps %d" path
      b_off b_on b_cert;
  let certs = get "ranges.certificates" (J.member "certificates" ranges) in
  (match J.member "verified" certs with
  | Some (J.Bool true) -> ()
  | _ -> fail "%s: range certificates not marked verified" path);
  if rint "certificates" "bounds" + rint "certificates" "lscheck" <= 0 then
    fail "%s: range analysis emitted no certificates" path;
  note "range ls %d->%d bounds %d->%d" ls_off ls_on b_off b_on

(* the shipped kernel must audit clean, every atomicity certificate must
   have re-verified, the seeded-bug fixture must match its ground truth
   exactly, the certificate-injection experiment must catch every
   corruption, and the workload must have exercised the spinlock ops
   (balanced with their releases) *)
let check_race path race =
  (match get "race.findings" (J.member "findings" race) with
  | J.Obj fields ->
      List.iter
        (fun (checker, v) ->
          if J.to_int v <> 0 then
            fail "%s: clean kernel has %d %s findings" path (J.to_int v)
              checker)
        fields
  | _ -> fail "%s: race.findings is not an object" path);
  let acerts = get "race.certificates" (J.member "certificates" race) in
  (match J.member "verified" acerts with
  | Some (J.Bool true) -> ()
  | _ -> fail "%s: atomicity certificates not marked verified" path);
  let n_acerts =
    J.to_int (get "race.certificates.access" (J.member "access" acerts))
  in
  if n_acerts <= 0 then
    fail "%s: concurrency pass certified no accesses" path;
  let fixture = get "race.fixture" (J.member "fixture" race) in
  (match J.member "exact-match" fixture with
  | Some (J.Bool true) -> ()
  | _ -> fail "%s: race fixture diverged from its seeded ground truth" path);
  let inj = get "race.injection" (J.member "injection" race) in
  let injected =
    J.to_int (get "race.injection.injected" (J.member "injected" inj))
  and inj_caught =
    J.to_int (get "race.injection.caught" (J.member "caught" inj))
  in
  if injected <= 0 || inj_caught <> injected then
    fail "%s: atomicity-certificate injection caught %d/%d bugs" path
      inj_caught injected;
  let conc = get "race.conc" (J.member "conc" race) in
  let cint k = J.to_int (get ("race.conc." ^ k) (J.member k conc)) in
  let acq = cint "lock-acquires" in
  if acq <= 0 then fail "%s: workload executed no sva_lock_acquire" path;
  if acq <> cint "lock-releases" || cint "cli" <> cint "sti" then
    fail "%s: workload conc ops are unbalanced" path;
  note "race %d certs %d/%d injections" n_acerts inj_caught injected

(* pool-safety certification must be pure observation (summary, cycles
   and check counters bit-identical with certification on), the trusted
   checker must have verified the clean-kernel bundle, at least one TH
   certificate and one elision must exist, and the certificate-injection
   experiment must catch every corruption *)
let check_poolcert path pc =
  let certs = get "poolcert.certificates" (J.member "certificates" pc) in
  (match J.member "verified" certs with
  | Some (J.Bool true) -> ()
  | _ -> fail "%s: pool-safety certificates not marked verified" path);
  let cint k = J.to_int (get ("poolcert.certificates." ^ k) (J.member k certs)) in
  if cint "errors" <> 0 then
    fail "%s: trusted checker rejected %d-error pool bundle" path
      (cint "errors");
  if cint "th" <= 0 then fail "%s: no pool was certified TH" path;
  let el = get "poolcert.elisions" (J.member "elisions" pc) in
  let eint k = J.to_int (get ("poolcert.elisions." ^ k) (J.member k el)) in
  let elided = eint "th" + eint "reduced" + eint "funccheck" in
  if elided <= 0 then fail "%s: no check elision was recorded" path;
  let bi = get "poolcert.bit-identity" (J.member "bit-identity" pc) in
  (match J.member "summary-match" bi with
  | Some (J.Bool true) -> ()
  | _ -> fail "%s: instrumentation summary diverges under certification" path);
  (match J.member "checks-match" bi with
  | Some (J.Bool true) -> ()
  | _ -> fail "%s: check counters diverge under certification" path);
  let pair k =
    let o = get ("poolcert.bit-identity." ^ k) (J.member k bi) in
    ( J.to_int (get (k ^ ".off") (J.member "off" o)),
      J.to_int (get (k ^ ".on") (J.member "on" o)) )
  in
  let b_off, b_on = pair "boot-cycles" in
  if b_off <> b_on then
    fail "%s: certification changed boot cycles (%d vs %d)" path b_off b_on;
  let w_off, w_on = pair "workload-cycles" in
  if w_off <> w_on then
    fail "%s: certification changed workload cycles (%d vs %d)" path w_off
      w_on;
  let inj = get "poolcert.injection" (J.member "injection" pc) in
  let injected =
    J.to_int (get "poolcert.injection.injected" (J.member "injected" inj))
  and inj_caught =
    J.to_int (get "poolcert.injection.caught" (J.member "caught" inj))
  in
  if injected <= 0 || inj_caught <> injected then
    fail "%s: pool-certificate injection caught %d/%d bugs" path inj_caught
      injected;
  note "poolcert %d TH certs %d elisions %d/%d injections" (cint "th") elided
    inj_caught injected

(* the observability layer must be semantically invisible (obs-on and
   obs-off agree bit-for-bit), must actually record events, must
   attribute >= 95% of modeled cycles to syscall scopes, and its Chrome
   export must be well-formed trace-event JSON *)
let check_trace path trace =
  let inv = get "trace.invariance" (J.member "invariance" trace) in
  let inv_pair k =
    let o = get ("trace.invariance." ^ k) (J.member k inv) in
    ( J.to_int (get (k ^ ".obs-off") (J.member "obs-off" o)),
      J.to_int (get (k ^ ".obs-on") (J.member "obs-on" o)) )
  in
  let cyc_off, cyc_on = inv_pair "cycles" in
  if cyc_off <> cyc_on then
    fail "%s: tracing changed modeled cycles (%d vs %d)" path cyc_off cyc_on;
  let chk_off, chk_on = inv_pair "checks" in
  if chk_off <> chk_on then
    fail "%s: tracing changed check counts (%d vs %d)" path chk_off chk_on;
  let tevents = get "trace.events" (J.member "events" trace) in
  let emitted =
    J.to_int (get "trace.events.emitted" (J.member "emitted" tevents))
  in
  let retained =
    J.to_int (get "trace.events.retained" (J.member "retained" tevents))
  in
  let dropped =
    J.to_int (get "trace.events.dropped" (J.member "dropped" tevents))
  in
  if emitted <= 0 then fail "%s: trace recorded no events" path;
  if retained + dropped <> emitted then
    fail "%s: trace accounting drift (%d retained + %d dropped <> %d emitted)"
      path retained dropped emitted;
  let attr =
    J.to_float (get "trace.attribution-pct" (J.member "attribution-pct" trace))
  in
  if attr < 95.0 then
    fail "%s: profiler attributed only %.1f%% of cycles to syscalls" path attr;
  let chrome = get "trace.chrome" (J.member "chrome" trace) in
  let tev =
    J.to_list (get "trace.chrome.traceEvents" (J.member "traceEvents" chrome))
  in
  if List.length tev <> retained then
    fail "%s: chrome export has %d events, trace retained %d" path
      (List.length tev) retained;
  let balance = ref 0 in
  List.iter
    (fun ev ->
      let s k = J.to_string (get ("traceEvents[]." ^ k) (J.member k ev)) in
      ignore (J.to_int (get "traceEvents[].ts" (J.member "ts" ev)));
      ignore (s "name");
      (match s "ph" with
      | "B" -> incr balance
      | "E" -> decr balance
      | "i" -> ()
      | ph -> fail "%s: unexpected trace-event phase %S" path ph);
      if !balance < 0 then
        fail "%s: trace-event E without matching B" path)
    tev;
  (* The ring may truncate the oldest events, so an unmatched trailing B
     is possible only under drop; with no drops the spans must pair. *)
  if dropped = 0 && !balance <> 0 then
    fail "%s: %d unmatched B trace-events" path !balance;
  note "trace %d events %.1f%% attributed" emitted attr

let checkers =
  [
    ("fastpath", check_fastpath);
    ("table7", check_table7);
    ("lint", check_lint);
    ("smp", check_smp);
    ("tiered", check_tiered);
    ("aot", check_aot);
    ("ranges", check_ranges);
    ("race", check_race);
    ("poolcert", check_poolcert);
    ("trace", check_trace);
  ]

let () =
  if Array.length Sys.argv < 2 then fail "usage: json_check FILE [SECTION]...";
  let path = Sys.argv.(1) in
  let required =
    Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
  in
  List.iter
    (fun s ->
      if not (List.mem_assoc s checkers) then
        fail "json_check: no validator for section '%s' (known: %s)" s
          (String.concat " " (List.map fst checkers)))
    required;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc = try J.parse text with J.Parse_error m -> fail "%s: %s" path m in
  (* round-trip: emitting and re-parsing must reproduce the document *)
  if J.parse (J.emit doc) <> doc then fail "%s: emit/parse round-trip drifted" path;
  List.iter
    (fun s ->
      match J.member s doc with
      | Some _ -> ()
      | None -> fail "%s: required section '%s' missing" path s)
    required;
  let sections =
    match doc with
    | J.Obj fields ->
        List.filter (fun (k, _) -> k <> "bench" && k <> "quick") fields
    | _ -> fail "%s: document is not an object" path
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name checkers) then
        fail "%s: no validator for section '%s'" path name)
    sections;
  let checked =
    List.filter_map
      (fun (name, check) ->
        match List.assoc_opt name sections with
        | Some section ->
            check path section;
            Some name
        | None -> None)
      checkers
  in
  if checked = [] then fail "%s: no recognized sections to validate" path;
  Printf.printf "%s: OK [%s] (%s)\n" path
    (String.concat " " checked)
    (String.concat ", " (List.rev !summaries))

module Trace = Sva_rt.Trace
module Metapool_rt = Sva_rt.Metapool_rt
module J = Jsonout

(* ---------- Chrome trace-event export ----------

   One JSON object {"traceEvents": [...]} in the Trace Event Format:
   syscall enter/exit become "B"/"E" duration pairs, everything else an
   instant ("i") event.  Timestamps are modeled cycles — Chrome displays
   them as microseconds, which is fine: the scale is what matters. *)

let event_name (e : Trace.event) =
  match e.Trace.ev_kind with
  | Trace.Ev_check -> "check:" ^ e.Trace.ev_name
  | Trace.Ev_violation -> "violation:" ^ e.Trace.ev_name
  | Trace.Ev_register -> "reg.obj"
  | Trace.Ev_drop -> "drop.obj"
  | Trace.Ev_syscall_enter | Trace.Ev_syscall_exit ->
      Printf.sprintf "syscall %d" e.Trace.ev_a
  | Trace.Ev_svaos -> e.Trace.ev_name
  | Trace.Ev_tier_promote -> "promote:" ^ e.Trace.ev_name
  | Trace.Ev_tcache_hit -> "tcache-hit:" ^ e.Trace.ev_name
  | Trace.Ev_tcache_miss -> "tcache-miss:" ^ e.Trace.ev_name
  | Trace.Ev_tcache_disk_hit -> "tcache-disk-hit:" ^ e.Trace.ev_name
  | Trace.Ev_tcache_disk_stale -> "tcache-disk-stale:" ^ e.Trace.ev_name
  | Trace.Ev_tcache_disk_write -> "tcache-disk-write:" ^ e.Trace.ev_name
  | Trace.Ev_range_elide -> "range-elide:" ^ e.Trace.ev_name

let event_phase (e : Trace.event) =
  match e.Trace.ev_kind with
  | Trace.Ev_syscall_enter -> "B"
  | Trace.Ev_syscall_exit -> "E"
  | _ -> "i"

let event_json (e : Trace.event) =
  let base =
    [
      ("name", J.Str (event_name e));
      ("cat", J.Str (Trace.ekind_name e.Trace.ev_kind));
      ("ph", J.Str (event_phase e));
      ("ts", J.Int e.Trace.ev_ts);
      ("pid", J.Int 1);
      (* One Chrome "thread" lane per modeled CPU (1-based for display) *)
      ("tid", J.Int (e.Trace.ev_cpu + 1));
    ]
  in
  let scope =
    match event_phase e with "i" -> [ ("s", J.Str "t") ] | _ -> []
  in
  let args =
    [
      ("seq", J.Int e.Trace.ev_seq);
      ("pool", J.Str e.Trace.ev_pool);
      ("a", J.Int e.Trace.ev_a);
      ("b", J.Int e.Trace.ev_b);
    ]
  in
  J.Obj (base @ scope @ [ ("args", J.Obj args) ])

let chrome_json () =
  J.Obj
    [
      ("traceEvents", J.List (List.map event_json (Trace.events ())));
      ("displayTimeUnit", J.Str "ns");
      ( "otherData",
        J.Obj
          [
            ("clock", J.Str "modeled-cycles");
            ("emitted", J.Int (Trace.emitted ()));
            ("dropped", J.Int (Trace.dropped ()));
            ("capacity", J.Int (Trace.capacity ()));
          ] );
    ]

let write_chrome path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (J.emit (chrome_json ())))

(* ---------- text reports ---------- *)

let all_kinds =
  [
    Trace.Ev_check;
    Trace.Ev_violation;
    Trace.Ev_register;
    Trace.Ev_drop;
    Trace.Ev_syscall_enter;
    Trace.Ev_syscall_exit;
    Trace.Ev_svaos;
    Trace.Ev_tier_promote;
    Trace.Ev_tcache_hit;
    Trace.Ev_tcache_miss;
    Trace.Ev_tcache_disk_hit;
    Trace.Ev_tcache_disk_stale;
    Trace.Ev_tcache_disk_write;
    Trace.Ev_range_elide;
  ]

let summary_table () =
  let kinds = all_kinds in
  let rows =
    List.filter_map
      (fun k ->
        let n = Trace.count k in
        if n = 0 then None
        else Some [ Trace.ekind_name k; string_of_int n ])
      kinds
  in
  let note =
    Printf.sprintf "%d emitted, %d retained, %d dropped (ring capacity %d)"
      (Trace.emitted ())
      (List.length (Trace.events ()))
      (Trace.dropped ()) (Trace.capacity ())
  in
  Tablefmt.render ~title:"Event trace summary" ~note [ Tablefmt.L; Tablefmt.R ]
    [ "event kind"; "retained" ] rows

let profile_rows ~top rows =
  let total =
    List.fold_left (fun acc r -> acc + r.Trace.p_self_cycles) 0 rows
  in
  let take n l =
    List.filteri (fun i _ -> i < n) l
  in
  List.map
    (fun r ->
      [
        r.Trace.p_name;
        string_of_int r.Trace.p_calls;
        string_of_int r.Trace.p_self_cycles;
        string_of_int r.Trace.p_total_cycles;
        string_of_int r.Trace.p_self_checks;
        (if total = 0 then "-"
         else
           Tablefmt.pct
             (100.0 *. float_of_int r.Trace.p_self_cycles /. float_of_int total));
      ])
    (take top rows)

let profile_table ?(top = 10) () =
  let aligns =
    Tablefmt.[ L; R; R; R; R; R ]
  in
  let header = [ "scope"; "calls"; "self cyc"; "total cyc"; "checks"; "self%" ] in
  let fn =
    Tablefmt.render ~title:(Printf.sprintf "Hot functions (top %d)" top)
      ~note:
        (Printf.sprintf "self cycles sum: %d" (Trace.fn_self_cycles ()))
      aligns header
      (profile_rows ~top (Trace.fn_report ()))
  in
  let sys =
    Tablefmt.render ~title:(Printf.sprintf "Hot syscalls (top %d)" top)
      ~note:
        (Printf.sprintf "self cycles sum: %d" (Trace.sys_self_cycles ()))
      aligns header
      (profile_rows ~top (Trace.sys_report ()))
  in
  fn ^ sys

let pool_metrics vm =
  J.List
    (List.filter_map
       (fun (_, mp) ->
         let m = Metapool_rt.metrics mp in
         if m.Metapool_rt.m_regs = 0 && m.Metapool_rt.m_lookups = 0 then None
         else
           Some
             (J.Obj
                [
                  ("name", J.Str m.Metapool_rt.m_name);
                  ("live", J.Int m.Metapool_rt.m_live);
                  ("peak", J.Int m.Metapool_rt.m_peak);
                  ("regs", J.Int m.Metapool_rt.m_regs);
                  ("drops", J.Int m.Metapool_rt.m_drops);
                  ("depth", J.Int m.Metapool_rt.m_depth);
                  ("lookups", J.Int m.Metapool_rt.m_lookups);
                  ("cache-hits", J.Int m.Metapool_rt.m_cache_hits);
                ]))
       (Sva_interp.Interp.metapools vm))

let pool_metrics_table pools =
  let rows =
    List.map
      (fun p ->
        let count k = string_of_int (J.int k p) in
        let lookups = J.int "lookups" p in
        [
          J.field J.to_string "name" p;
          count "live";
          count "peak";
          count "regs";
          count "drops";
          count "depth";
          count "lookups";
          Tablefmt.pct
            (if lookups = 0 then 0.0
             else
               float_of_int (J.int "cache-hits" p)
               /. float_of_int lookups *. 100.0);
        ])
      (J.to_list pools)
  in
  Tablefmt.render ~title:"Per-metapool metrics"
    ~note:"hit% is this pool's object-lookup cache"
    Tablefmt.[ L; R; R; R; R; R; R; R ]
    [ "metapool"; "live"; "peak"; "regs"; "drops"; "depth"; "lookups"; "hit%" ]
    rows

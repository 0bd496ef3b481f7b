(* Tests for the SVA runtime: splay trees (with QCheck model-based
   properties) and metapool run-time checks. *)

open Sva_rt

(* ---------- Splay unit tests ---------- *)

let test_splay_basic () =
  let t = Splay.create () in
  Splay.insert t ~start:100 ~len:10 "a";
  Splay.insert t ~start:200 ~len:20 "b";
  Splay.insert t ~start:50 ~len:4 "c";
  Alcotest.(check int) "size" 3 (Splay.size t);
  (match Splay.find_containing t 105 with
  | Some n -> Alcotest.(check string) "contains 105" "a" n.Splay.n_data
  | None -> Alcotest.fail "105 not found");
  Alcotest.(check bool) "110 outside" true (Splay.find_containing t 110 = None);
  (match Splay.find_containing t 219 with
  | Some n -> Alcotest.(check string) "contains 219" "b" n.Splay.n_data
  | None -> Alcotest.fail "219 not found");
  Alcotest.(check bool) "49 outside" true (Splay.find_containing t 49 = None)

let test_splay_remove () =
  let t = Splay.create () in
  Splay.insert t ~start:10 ~len:5 ();
  Splay.insert t ~start:20 ~len:5 ();
  Alcotest.(check bool) "remove 10" true (Splay.remove t ~start:10 <> None);
  Alcotest.(check bool) "remove 10 again" true (Splay.remove t ~start:10 = None);
  Alcotest.(check bool) "remove middle of object" true (Splay.remove t ~start:22 = None);
  Alcotest.(check int) "size" 1 (Splay.size t)

let test_splay_overlap_rejected () =
  let t = Splay.create () in
  Splay.insert t ~start:100 ~len:10 ();
  List.iter
    (fun (s, l) ->
      match Splay.insert t ~start:s ~len:l () with
      | () -> Alcotest.failf "insert [%d,+%d) should overlap" s l
      | exception Invalid_argument _ -> ())
    [ (100, 10); (95, 6); (109, 1); (99, 100); (105, 2) ];
  Splay.insert t ~start:110 ~len:5 ();
  Splay.insert t ~start:90 ~len:10 ();
  Alcotest.(check int) "size" 3 (Splay.size t)

let test_splay_ordering () =
  let t = Splay.create () in
  List.iter (fun s -> Splay.insert t ~start:s ~len:1 s) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "in order" [ 1; 3; 5; 7; 9 ]
    (List.map (fun n -> n.Splay.n_data) (Splay.to_list t))

(* Model-based property: a splay tree over random disjoint ranges agrees
   with a naive list model on every query. *)
let prop_splay_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (pair (int_range 0 500) (int_range 1 8)))
  in
  QCheck2.Test.make ~name:"splay agrees with list model" ~count:300 gen
    (fun ops ->
      let t = Splay.create () in
      let model = ref [] in
      List.iter
        (fun (start, len) ->
          let disjoint =
            List.for_all
              (fun (s, l) -> start + len <= s || s + l <= start)
              !model
          in
          match Splay.insert t ~start ~len () with
          | () ->
              if not disjoint then
                QCheck2.Test.fail_report "accepted an overlapping insert";
              model := (start, len) :: !model
          | exception Invalid_argument _ ->
              if disjoint then
                QCheck2.Test.fail_report "rejected a disjoint insert")
        ops;
      (* Every address 0..520: find_containing agrees with the model. *)
      let ok = ref true in
      for addr = 0 to 520 do
        let expected = List.find_opt (fun (s, l) -> addr >= s && addr < s + l) !model in
        let got = Splay.find_containing t addr in
        (match (expected, got) with
        | Some (s, l), Some n when n.Splay.n_start = s && n.Splay.n_len = l -> ()
        | None, None -> ()
        | _ -> ok := false)
      done;
      !ok && Splay.size t = List.length !model)

let prop_splay_insert_remove =
  let gen = QCheck2.Gen.(list_size (int_range 0 80) (int_range 0 100)) in
  QCheck2.Test.make ~name:"insert+remove returns to empty" ~count:300 gen
    (fun starts ->
      let t = Splay.create () in
      let starts = List.sort_uniq compare starts in
      List.iter (fun s -> Splay.insert t ~start:(s * 16) ~len:16 s) starts;
      List.iter
        (fun s ->
          match Splay.remove t ~start:(s * 16) with
          | Some n -> assert (n.Splay.n_data = s)
          | None -> QCheck2.Test.fail_report "lost an inserted range")
        starts;
      Splay.size t = 0)

(* ---------- Metapool checks ---------- *)

let mk ?(complete = true) ?(th = false) name =
  Metapool_rt.create ~type_homog:th ~complete name

let test_reg_drop_cycle () =
  let mp = mk "MP1" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x1000 ~len:96;
  Alcotest.(check int) "live" 1 (Metapool_rt.live_objects mp);
  Metapool_rt.drop mp ~start:0x1000;
  Alcotest.(check int) "dropped" 0 (Metapool_rt.live_objects mp)

let expect_violation kind f =
  match f () with
  | _ -> Alcotest.fail "expected a safety violation"
  | exception Violation.Safety_violation v ->
      Alcotest.(check string) "violation kind"
        (Violation.kind_to_string kind)
        (Violation.kind_to_string v.Violation.v_kind)

let test_double_free_detected () =
  let mp = mk "MP1" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x1000 ~len:96;
  Metapool_rt.drop mp ~start:0x1000;
  expect_violation Violation.Double_free (fun () ->
      Metapool_rt.drop mp ~start:0x1000)

let test_illegal_free_detected () =
  let mp = mk "MP1" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x1000 ~len:96;
  expect_violation Violation.Illegal_free (fun () ->
      Metapool_rt.drop mp ~start:0x1010)

let test_boundscheck_pass_and_fail () =
  let mp = mk "MP2" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x2000 ~len:96;
  (* In-bounds gep. *)
  Metapool_rt.boundscheck mp ~src:0x2000 ~dst:0x2050 ~access_len:4;
  (* The integer-overflow pattern: index far past the object. *)
  expect_violation Violation.Bounds (fun () ->
      Metapool_rt.boundscheck mp ~src:0x2000 ~dst:0x2000 ~access_len:1024)

let test_boundscheck_straddle () =
  let mp = mk "MP2" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x2000 ~len:96;
  expect_violation Violation.Bounds (fun () ->
      (* Last byte in range, access extends out. *)
      Metapool_rt.boundscheck mp ~src:0x2000 ~dst:0x205c ~access_len:8)

let test_boundscheck_incomplete_reduced () =
  let mp = mk ~complete:false "MPI" in
  (* Source points to an unregistered (external) object: reduced check. *)
  let before = Stats.read () in
  Metapool_rt.boundscheck mp ~src:0x9000 ~dst:0x9004 ~access_len:4;
  let after = Stats.read () in
  Alcotest.(check bool) "counted as reduced" true
    (Stats.(after.reduced_checks > before.reduced_checks))

let test_boundscheck_complete_rejects_unregistered () =
  let mp = mk "MPC" in
  expect_violation Violation.Bounds (fun () ->
      Metapool_rt.boundscheck mp ~src:0x9000 ~dst:0x9004 ~access_len:4)

let test_lscheck () =
  let mp = mk "MP3" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x3000 ~len:64;
  Metapool_rt.lscheck mp ~addr:0x3010 ~access_len:8;
  expect_violation Violation.Load_store (fun () ->
      Metapool_rt.lscheck mp ~addr:0x4000 ~access_len:4);
  expect_violation Violation.Uninit_pointer (fun () ->
      Metapool_rt.lscheck mp ~addr:0 ~access_len:4)

let test_lscheck_incomplete_elided () =
  let mp = mk ~complete:false "MP4" in
  (* Must not raise even for a wild address (Section 4.5, reduced checks:
     the sole source of false negatives). *)
  Metapool_rt.lscheck mp ~addr:0xdeadbeef ~access_len:4;
  Alcotest.(check pass) "no violation" () ()

let test_funccheck () =
  let allowed = Hashtbl.create 2 in
  Hashtbl.replace allowed 0x100 "sys_read";
  Hashtbl.replace allowed 0x200 "sys_write";
  Metapool_rt.funccheck_hashed ~allowed ~target:0x100;
  expect_violation Violation.Indirect_call (fun () ->
      Metapool_rt.funccheck_hashed ~allowed ~target:0x300)

let test_userspace_object () =
  (* Section 4.6: all of userspace is one object; a buffer that starts in
     userspace but ends in kernel space must be caught as a bounds
     violation. *)
  let mp = mk "MPsys" in
  let user_base = 0x100000 and user_len = 0x10000 in
  Metapool_rt.register mp ~cls:Metapool_rt.Userspace ~start:user_base ~len:user_len;
  (* A valid userspace access passes. *)
  Metapool_rt.boundscheck mp ~src:(user_base + 16) ~dst:(user_base + 4096) ~access_len:64;
  (* Crossing out of userspace fails. *)
  expect_violation Violation.Bounds (fun () ->
      Metapool_rt.boundscheck mp ~src:(user_base + user_len - 8)
        ~dst:(user_base + user_len - 8) ~access_len:64)

let test_getbounds () =
  let mp = mk "MP5" in
  Metapool_rt.register mp ~cls:Metapool_rt.Global ~start:0x5000 ~len:128;
  Alcotest.(check (option (pair int int))) "found" (Some (0x5000, 128))
    (Metapool_rt.getbounds mp 0x5042);
  Alcotest.(check (option (pair int int))) "missing" None
    (Metapool_rt.getbounds mp 0x6000)

let test_boundscheck_known_fast_path () =
  Metapool_rt.boundscheck_known ~start:0x100 ~len:96 ~dst:0x100 ~access_len:96
    ~pool:"MP";
  expect_violation Violation.Bounds (fun () ->
      Metapool_rt.boundscheck_known ~start:0x100 ~len:96 ~dst:0x100
        ~access_len:97 ~pool:"MP")

let test_stats_counting () =
  Stats.reset ();
  let mp = mk "MPS" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x100 ~len:32;
  Metapool_rt.lscheck mp ~addr:0x108 ~access_len:4;
  Metapool_rt.boundscheck mp ~src:0x100 ~dst:0x110 ~access_len:4;
  ignore (Metapool_rt.getbounds mp 0x100);
  Metapool_rt.drop mp ~start:0x100;
  expect_violation Violation.Indirect_call (fun () ->
      Metapool_rt.funccheck_hashed ~allowed:(Hashtbl.create 1) ~target:0x300);
  let s = Stats.read () in
  Alcotest.(check int) "regs" 1 s.Stats.registrations;
  Alcotest.(check int) "drops" 1 s.Stats.drops;
  Alcotest.(check int) "ls" 1 s.Stats.ls_checks;
  Alcotest.(check int) "bounds" 1 s.Stats.bounds_checks;
  Alcotest.(check int) "getbounds" 1 s.Stats.getbounds;
  Alcotest.(check int) "violations" 1 s.Stats.violations

(* The counter store: each family is its own slice of one array, so a
   shared slot or an off-by-one reset range shows up as a field of the
   wrong view reading 0 or 2. *)
let stat_views () =
  let s = Stats.read () and t = Stats.read_tier () and c = Stats.read_conc () in
  Stats.
    [
      ( "check",
        [ s.bounds_checks; s.getbounds; s.ls_checks; s.funcchecks;
          s.registrations; s.drops; s.reduced_checks; s.violations;
          s.cache_hits; s.cache_misses ] );
      ( "tier",
        [ t.promotions; t.tcache_hits; t.tcache_misses; t.sig_verifications;
          t.tcache_disk_hits; t.tcache_disk_stale; t.tcache_disk_writes ] );
      ( "conc",
        [ c.cli_count; c.sti_count; c.lock_acquires; c.lock_releases;
          c.ipis_sent; c.ipis_delivered ] );
    ]

let bump_every_counter () =
  Stats.(
    List.iter
      (fun bump -> bump ())
      [ bump_bounds; bump_getbounds; bump_ls; bump_funccheck; bump_reg;
        bump_drop; bump_reduced; bump_violation; bump_cache_hit;
        bump_cache_miss; bump_promotion; bump_tcache_hit; bump_tcache_miss;
        bump_sig_verification; bump_tcache_disk_hit; bump_tcache_disk_stale;
        bump_tcache_disk_write; bump_cli; bump_sti; bump_lock_acquire;
        bump_lock_release; bump_ipi_sent; bump_ipi_delivered ])

(* Every field of the families in [ones] reads 1, every other field 0. *)
let expect_views what ones =
  List.iter
    (fun (family, fields) ->
      let want = if List.mem family ones then 1 else 0 in
      List.iteri
        (fun i v ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s field %d" what family i)
            want v)
        fields)
    (stat_views ())

let test_stats_families () =
  let families = [ "check"; "tier"; "conc" ] in
  Stats.reset_all ();
  bump_every_counter ();
  expect_views "one bump each" families;
  List.iter
    (fun (family, reset) ->
      Stats.reset_all ();
      bump_every_counter ();
      reset ();
      expect_views (family ^ " reset") (List.filter (( <> ) family) families))
    [ ("check", Stats.reset); ("tier", Stats.reset_tier);
      ("conc", Stats.reset_conc) ];
  Stats.reset_all ();
  bump_every_counter ();
  Stats.reset_all ();
  expect_views "reset_all" []

(* ---------- object-lookup cache ---------- *)

(* The cache is pure memoization of the splay lookup: every observable —
   verdicts, violation kinds, bounds — must be byte-identical with the
   cache disabled.  Run the same random op sequence against a cached and
   an uncached pool and compare outcome transcripts. *)
let prop_cache_transparent =
  let op_gen =
    QCheck2.Gen.(
      let addr = int_range 0 1024 in
      let start = map (fun s -> s * 16) (int_range 1 40) in
      let len = int_range 1 48 in
      frequency
        [
          (3, map2 (fun s l -> `Reg (s, l)) start len);
          (2, map (fun s -> `Drop s) start);
          (3, map (fun a -> `Ls a) addr);
          (2, map3 (fun s d l -> `Bounds (s, d, l)) addr addr len);
          (2, map (fun a -> `Getbounds a) addr);
        ])
  in
  let gen =
    QCheck2.Gen.(pair bool (list_size (int_range 0 120) op_gen))
  in
  QCheck2.Test.make ~name:"cache is semantically invisible" ~count:300 gen
    (fun (complete, ops) ->
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Violation.Safety_violation v ->
            Error (Violation.kind_to_string v.Violation.v_kind)
        | exception Invalid_argument _ -> Error "invalid-arg"
      in
      let run cached =
        let mp = Metapool_rt.create ~complete ~cached "MPX" in
        List.map
          (fun op ->
            outcome (fun () ->
                match op with
                | `Reg (s, l) ->
                    Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:s
                      ~len:l;
                    None
                | `Drop s ->
                    Metapool_rt.drop mp ~start:s;
                    None
                | `Ls a ->
                    Metapool_rt.lscheck mp ~addr:a ~access_len:4;
                    None
                | `Bounds (s, d, l) ->
                    Metapool_rt.boundscheck mp ~src:s ~dst:d ~access_len:l;
                    None
                | `Getbounds a -> Metapool_rt.getbounds mp a))
          ops
      in
      run true = run false)

(* Coherence oracle at the Objcache/Splay layer itself: drive a cached
   tree and a splay-only twin through the same interleaved
   insert/remove/lookup sequence.  Every lookup must return the same
   containing range; a stale cache slot surviving a removal (the one
   hazard the direct-mapped table has) would show up as a divergence. *)
let prop_cache_coheres_with_splay_oracle =
  let op_gen =
    QCheck2.Gen.(
      let start = map (fun s -> s * 16) (int_range 0 48) in
      let len = int_range 1 32 in
      frequency
        [
          (3, map2 (fun s l -> `Ins (s, l)) start len);
          (2, map (fun s -> `Rem s) start);
          (4, map (fun a -> `Find a) (int_range 0 800));
        ])
  in
  let gen = QCheck2.Gen.(list_size (int_range 0 150) op_gen) in
  QCheck2.Test.make
    ~name:"object cache coheres with a splay-only oracle" ~count:300 gen
    (fun ops ->
      let cached_tree = Splay.create ()
      and cache = Objcache.create ()
      and oracle = Splay.create () in
      let range = function
        | Some n -> Some (n.Splay.n_start, n.Splay.n_len)
        | None -> None
      in
      List.for_all
        (fun op ->
          match op with
          | `Ins (s, l) ->
              let a =
                match Splay.insert cached_tree ~start:s ~len:l () with
                | () -> true
                | exception _ -> false
              and b =
                match Splay.insert oracle ~start:s ~len:l () with
                | () -> true
                | exception _ -> false
              in
              a = b
          | `Rem s ->
              let a = range (Splay.remove cached_tree ~start:s) in
              Objcache.invalidate_start cache s;
              let b = range (Splay.remove oracle ~start:s) in
              a = b
          | `Find a ->
              range (Objcache.find cache cached_tree a)
              = range (Splay.find_containing oracle a))
        ops)

let test_cache_invalidated_on_drop () =
  Stats.reset ();
  let mp = mk "MPC1" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x1000 ~len:64;
  (* Warm the cache, then confirm the second probe of the same bucket is a
     hit. *)
  Metapool_rt.lscheck mp ~addr:0x1008 ~access_len:4;
  let h0 = Stats.cache_hits () in
  Metapool_rt.lscheck mp ~addr:0x1008 ~access_len:4;
  Alcotest.(check bool) "second lookup hits the cache" true
    (Stats.cache_hits () > h0);
  (* Dropping the object must evict it: a stale hit here would wrongly
     pass the check. *)
  Metapool_rt.drop mp ~start:0x1000;
  expect_violation Violation.Load_store (fun () ->
      Metapool_rt.lscheck mp ~addr:0x1008 ~access_len:4);
  Alcotest.(check (option (pair int int))) "getbounds after drop" None
    (Metapool_rt.getbounds mp 0x1008)

let test_cache_invalidated_on_reset () =
  let mp = mk "MPC2" in
  Metapool_rt.register mp ~cls:Metapool_rt.Heap ~start:0x2000 ~len:64;
  (* Warm the cache through getbounds... *)
  Alcotest.(check bool) "warm lookup" true
    (Metapool_rt.getbounds mp 0x2010 <> None);
  ignore (Metapool_rt.getbounds mp 0x2010);
  Metapool_rt.reset mp;
  (* ...then a reset pool must not serve the evicted object. *)
  Alcotest.(check (option (pair int int))) "getbounds after reset" None
    (Metapool_rt.getbounds mp 0x2010);
  expect_violation Violation.Load_store (fun () ->
      Metapool_rt.lscheck mp ~addr:0x2010 ~access_len:4)

let () =
  Alcotest.run "sva_rt"
    [
      ( "splay",
        [
          Alcotest.test_case "basic" `Quick test_splay_basic;
          Alcotest.test_case "remove" `Quick test_splay_remove;
          Alcotest.test_case "overlap rejected" `Quick test_splay_overlap_rejected;
          Alcotest.test_case "ordering" `Quick test_splay_ordering;
          QCheck_alcotest.to_alcotest prop_splay_model;
          QCheck_alcotest.to_alcotest prop_splay_insert_remove;
        ] );
      ( "metapool",
        [
          Alcotest.test_case "register/drop" `Quick test_reg_drop_cycle;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "illegal free" `Quick test_illegal_free_detected;
          Alcotest.test_case "boundscheck" `Quick test_boundscheck_pass_and_fail;
          Alcotest.test_case "boundscheck straddle" `Quick test_boundscheck_straddle;
          Alcotest.test_case "reduced checks (incomplete)" `Quick
            test_boundscheck_incomplete_reduced;
          Alcotest.test_case "complete rejects unregistered" `Quick
            test_boundscheck_complete_rejects_unregistered;
          Alcotest.test_case "lscheck" `Quick test_lscheck;
          Alcotest.test_case "lscheck elided when incomplete" `Quick
            test_lscheck_incomplete_elided;
          Alcotest.test_case "funccheck" `Quick test_funccheck;
          Alcotest.test_case "userspace single object" `Quick test_userspace_object;
          Alcotest.test_case "getbounds" `Quick test_getbounds;
          Alcotest.test_case "known-bounds fast path" `Quick
            test_boundscheck_known_fast_path;
          Alcotest.test_case "stats counting" `Quick test_stats_counting;
          Alcotest.test_case "stats families reset apart" `Quick
            test_stats_families;
        ] );
      ( "objcache",
        [
          QCheck_alcotest.to_alcotest prop_cache_transparent;
          QCheck_alcotest.to_alcotest prop_cache_coheres_with_splay_oracle;
          Alcotest.test_case "invalidated on drop" `Quick
            test_cache_invalidated_on_drop;
          Alcotest.test_case "invalidated on reset" `Quick
            test_cache_invalidated_on_reset;
        ] );
    ]

type snapshot = {
  bounds_checks : int;
  getbounds : int;
  ls_checks : int;
  funcchecks : int;
  registrations : int;
  drops : int;
  reduced_checks : int;
  violations : int;
  cache_hits : int;
  cache_misses : int;
}

type tier_snapshot = {
  promotions : int;
  tcache_hits : int;
  tcache_misses : int;
  sig_verifications : int;
  tcache_disk_hits : int;
  tcache_disk_stale : int;
  tcache_disk_writes : int;
  superblocks : int;
}

type conc_snapshot = {
  cli_count : int;
  sti_count : int;
  lock_acquires : int;
  lock_releases : int;
  ipis_sent : int;
  ipis_delivered : int;
}

(* Every counter is one slot of [c].  Each family owns a fixed index
   range — check [0, 10), tier [10, 18), concurrency [18, 24) — so a
   bump is one array increment, a read builds the family's record from
   its slots, and a family reset is one fill over its range.  The
   families stay separate because the differential tests compare
   [read ()] across engines and configurations, while tier and
   concurrency counts differ between them by design. *)
let c = Array.make 24 0
let[@inline] bump i = c.(i) <- c.(i) + 1

(* ---------- check family: [0, 10) ---------- *)

let bump_bounds () = bump 0
let bump_getbounds () = bump 1
let bump_ls () = bump 2
let bump_funccheck () = bump 3
let bump_reg () = bump 4
let bump_drop () = bump 5
let bump_reduced () = bump 6
let bump_violation () = bump 7
let bump_cache_hit () = bump 8
let bump_cache_miss () = bump 9
let cache_hits () = c.(8)
let checks_now () = c.(0) + c.(2) + c.(3)

let read () =
  {
    bounds_checks = c.(0);
    getbounds = c.(1);
    ls_checks = c.(2);
    funcchecks = c.(3);
    registrations = c.(4);
    drops = c.(5);
    reduced_checks = c.(6);
    violations = c.(7);
    cache_hits = c.(8);
    cache_misses = c.(9);
  }

let reset () = Array.fill c 0 10 0

let diff a b =
  {
    bounds_checks = a.bounds_checks - b.bounds_checks;
    getbounds = a.getbounds - b.getbounds;
    ls_checks = a.ls_checks - b.ls_checks;
    funcchecks = a.funcchecks - b.funcchecks;
    registrations = a.registrations - b.registrations;
    drops = a.drops - b.drops;
    reduced_checks = a.reduced_checks - b.reduced_checks;
    violations = a.violations - b.violations;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
  }

let total_checks s = s.bounds_checks + s.ls_checks + s.funcchecks

let hit_rate s =
  let probes = s.cache_hits + s.cache_misses in
  if probes = 0 then 0.0
  else float_of_int s.cache_hits /. float_of_int probes *. 100.0

let to_string s =
  Printf.sprintf
    "bounds=%d getbounds=%d ls=%d funccheck=%d reg=%d drop=%d reduced=%d \
     violations=%d cache=%d/%d"
    s.bounds_checks s.getbounds s.ls_checks s.funcchecks s.registrations
    s.drops s.reduced_checks s.violations s.cache_hits
    (s.cache_hits + s.cache_misses)

(* ---------- execution-tier family: [10, 18) ---------- *)

let tier_zero =
  {
    promotions = 0;
    tcache_hits = 0;
    tcache_misses = 0;
    sig_verifications = 0;
    tcache_disk_hits = 0;
    tcache_disk_stale = 0;
    tcache_disk_writes = 0;
    superblocks = 0;
  }

let bump_promotion () = bump 10
let bump_tcache_hit () = bump 11
let bump_tcache_miss () = bump 12
let bump_sig_verification () = bump 13
let bump_tcache_disk_hit () = bump 14
let bump_tcache_disk_stale () = bump 15
let bump_tcache_disk_write () = bump 16
let add_superblocks n = c.(17) <- c.(17) + n

let read_tier () =
  {
    promotions = c.(10);
    tcache_hits = c.(11);
    tcache_misses = c.(12);
    sig_verifications = c.(13);
    tcache_disk_hits = c.(14);
    tcache_disk_stale = c.(15);
    tcache_disk_writes = c.(16);
    superblocks = c.(17);
  }

let reset_tier () = Array.fill c 10 8 0

let tier_to_string s =
  Printf.sprintf
    "promotions=%d tcache=%d/%d disk=%d/%d/%d sigverify=%d superblocks=%d"
    s.promotions s.tcache_hits
    (s.tcache_hits + s.tcache_misses)
    s.tcache_disk_hits s.tcache_disk_stale s.tcache_disk_writes
    s.sig_verifications s.superblocks

(* ---------- concurrency family: [18, 24) ---------- *)

let bump_cli () = bump 18
let bump_sti () = bump 19
let bump_lock_acquire () = bump 20
let bump_lock_release () = bump 21
let bump_ipi_sent () = bump 22
let bump_ipi_delivered () = bump 23

let read_conc () =
  {
    cli_count = c.(18);
    sti_count = c.(19);
    lock_acquires = c.(20);
    lock_releases = c.(21);
    ipis_sent = c.(22);
    ipis_delivered = c.(23);
  }

let reset_conc () = Array.fill c 18 6 0

let diff_conc a b =
  {
    cli_count = a.cli_count - b.cli_count;
    sti_count = a.sti_count - b.sti_count;
    lock_acquires = a.lock_acquires - b.lock_acquires;
    lock_releases = a.lock_releases - b.lock_releases;
    ipis_sent = a.ipis_sent - b.ipis_sent;
    ipis_delivered = a.ipis_delivered - b.ipis_delivered;
  }

let conc_to_string s =
  Printf.sprintf "cli=%d sti=%d lock-acquire=%d lock-release=%d ipi=%d/%d"
    s.cli_count s.sti_count s.lock_acquires s.lock_releases s.ipis_delivered
    s.ipis_sent

(* The single-family resets stay for measurements that reset one family
   on purpose (the tiered bench resets check counters per run but
   accumulates tier counters across warm-up and measurement). *)
let reset_all () = Array.fill c 0 (Array.length c) 0

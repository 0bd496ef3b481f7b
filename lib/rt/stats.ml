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

let zero =
  {
    bounds_checks = 0;
    getbounds = 0;
    ls_checks = 0;
    funcchecks = 0;
    registrations = 0;
    drops = 0;
    reduced_checks = 0;
    violations = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

(* The dynamic-event counters (this snapshot family and the concurrency
   family below) live in per-CPU banks: every bump lands in the bank of
   the CPU the SMP scheduler last selected with [set_cpu], and the read
   accessors sum across banks.  Totals are therefore invariant under bank
   switching — an N-CPU run that executes the same work observes the same
   [read ()] as a 1-CPU run by construction, which is what the bench's
   check-count-identity gate leans on.  Bank 0 is the default, so code
   that never calls [set_cpu] behaves exactly as the old flat refs did.
   Tier counters stay global: they are whole-process facts with no
   per-CPU attribution. *)

type bank = {
  mutable b_bounds : int;
  mutable b_gb : int;
  mutable b_ls : int;
  mutable b_fc : int;
  mutable b_regs : int;
  mutable b_drops : int;
  mutable b_reduced : int;
  mutable b_viols : int;
  mutable b_chits : int;
  mutable b_cmisses : int;
  (* concurrency family (read out further below) *)
  mutable b_cli : int;
  mutable b_sti : int;
  mutable b_lacq : int;
  mutable b_lrel : int;
  mutable b_ipis_sent : int;
  mutable b_ipis_delivered : int;
}

let make_bank () =
  {
    b_bounds = 0; b_gb = 0; b_ls = 0; b_fc = 0; b_regs = 0; b_drops = 0;
    b_reduced = 0; b_viols = 0; b_chits = 0; b_cmisses = 0; b_cli = 0;
    b_sti = 0; b_lacq = 0; b_lrel = 0; b_ipis_sent = 0; b_ipis_delivered = 0;
  }

let banks = ref [| make_bank () |]
let cur = ref !banks.(0)
let cur_cpu_ = ref 0

let set_cpu i =
  if i < 0 then invalid_arg "Stats.set_cpu: negative cpu";
  if i >= Array.length !banks then
    banks :=
      Array.init (i + 1) (fun j ->
          if j < Array.length !banks then !banks.(j) else make_bank ());
  cur_cpu_ := i;
  cur := !banks.(i)

let current_cpu () = !cur_cpu_
let sum f = Array.fold_left (fun acc b -> acc + f b) 0 !banks

let bump_bounds () = let b = !cur in b.b_bounds <- b.b_bounds + 1
let bump_getbounds () = let b = !cur in b.b_gb <- b.b_gb + 1
let bump_ls () = let b = !cur in b.b_ls <- b.b_ls + 1
let bump_funccheck () = let b = !cur in b.b_fc <- b.b_fc + 1
let bump_reg () = let b = !cur in b.b_regs <- b.b_regs + 1
let bump_drop () = let b = !cur in b.b_drops <- b.b_drops + 1
let bump_reduced () = let b = !cur in b.b_reduced <- b.b_reduced + 1
let bump_violation () = let b = !cur in b.b_viols <- b.b_viols + 1
let bump_cache_hit () = let b = !cur in b.b_chits <- b.b_chits + 1
let bump_cache_miss () = let b = !cur in b.b_cmisses <- b.b_cmisses + 1

let cache_hits () = sum (fun b -> b.b_chits)
let cache_misses () = sum (fun b -> b.b_cmisses)
let checks_now () = sum (fun b -> b.b_bounds + b.b_ls + b.b_fc)

let snapshot_of_bank b =
  {
    bounds_checks = b.b_bounds;
    getbounds = b.b_gb;
    ls_checks = b.b_ls;
    funcchecks = b.b_fc;
    registrations = b.b_regs;
    drops = b.b_drops;
    reduced_checks = b.b_reduced;
    violations = b.b_viols;
    cache_hits = b.b_chits;
    cache_misses = b.b_cmisses;
  }

let read () =
  {
    bounds_checks = sum (fun b -> b.b_bounds);
    getbounds = sum (fun b -> b.b_gb);
    ls_checks = sum (fun b -> b.b_ls);
    funcchecks = sum (fun b -> b.b_fc);
    registrations = sum (fun b -> b.b_regs);
    drops = sum (fun b -> b.b_drops);
    reduced_checks = sum (fun b -> b.b_reduced);
    violations = sum (fun b -> b.b_viols);
    cache_hits = sum (fun b -> b.b_chits);
    cache_misses = sum (fun b -> b.b_cmisses);
  }

let read_cpu i =
  if i < 0 || i >= Array.length !banks then zero
  else snapshot_of_bank !banks.(i)

let reset () =
  Array.iter
    (fun b ->
      b.b_bounds <- 0;
      b.b_gb <- 0;
      b.b_ls <- 0;
      b.b_fc <- 0;
      b.b_regs <- 0;
      b.b_drops <- 0;
      b.b_reduced <- 0;
      b.b_viols <- 0;
      b.b_chits <- 0;
      b.b_cmisses <- 0)
    !banks

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

(* ---------- execution-tier counters ----------

   Kept out of [snapshot] deliberately: the tiered engine must leave every
   check statistic identical to the interpreter's, and the differential
   tests compare [read ()] across engines while promotion counts differ
   by design. *)

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

let promo = ref 0
let tc_hits = ref 0
let tc_misses = ref 0
let sig_verifies = ref 0
let tcd_hits = ref 0
let tcd_stale = ref 0
let tcd_writes = ref 0
let sblocks = ref 0

let bump_promotion () = incr promo
let bump_tcache_hit () = incr tc_hits
let bump_tcache_miss () = incr tc_misses
let bump_sig_verification () = incr sig_verifies
let bump_tcache_disk_hit () = incr tcd_hits
let bump_tcache_disk_stale () = incr tcd_stale
let bump_tcache_disk_write () = incr tcd_writes
let add_superblocks n = sblocks := !sblocks + n

let read_tier () =
  {
    promotions = !promo;
    tcache_hits = !tc_hits;
    tcache_misses = !tc_misses;
    sig_verifications = !sig_verifies;
    tcache_disk_hits = !tcd_hits;
    tcache_disk_stale = !tcd_stale;
    tcache_disk_writes = !tcd_writes;
    superblocks = !sblocks;
  }

let reset_tier () =
  promo := 0;
  tc_hits := 0;
  tc_misses := 0;
  sig_verifies := 0;
  tcd_hits := 0;
  tcd_stale := 0;
  tcd_writes := 0;
  sblocks := 0

let tier_to_string s =
  Printf.sprintf
    "promotions=%d tcache=%d/%d disk=%d/%d/%d sigverify=%d superblocks=%d"
    s.promotions s.tcache_hits
    (s.tcache_hits + s.tcache_misses)
    s.tcache_disk_hits s.tcache_disk_stale s.tcache_disk_writes
    s.sig_verifications s.superblocks

(* ---------- concurrency counters ----------

   Dynamic accounting for the SVA-OS concurrency primitives: interrupt
   masking ([sva_cli]/[sva_sti]) and the spinlock operations.  Kept out
   of [snapshot] like the tier family: the differential
   tests compare [read ()] across configurations, and a build that adds
   explicit critical sections changes these counts by design while the
   check counts must stay comparable. *)

type conc_snapshot = {
  cli_count : int;
  sti_count : int;
  lock_acquires : int;
  lock_releases : int;
  ipis_sent : int;
  ipis_delivered : int;
}

(* Same per-CPU banks as the check counters above: these are dynamic
   events attributable to the executing CPU. *)
let bump_cli () = let b = !cur in b.b_cli <- b.b_cli + 1
let bump_sti () = let b = !cur in b.b_sti <- b.b_sti + 1
let bump_lock_acquire () = let b = !cur in b.b_lacq <- b.b_lacq + 1
let bump_lock_release () = let b = !cur in b.b_lrel <- b.b_lrel + 1
let bump_ipi_sent () = let b = !cur in b.b_ipis_sent <- b.b_ipis_sent + 1

let bump_ipi_delivered () =
  let b = !cur in
  b.b_ipis_delivered <- b.b_ipis_delivered + 1

let read_conc () =
  {
    cli_count = sum (fun b -> b.b_cli);
    sti_count = sum (fun b -> b.b_sti);
    lock_acquires = sum (fun b -> b.b_lacq);
    lock_releases = sum (fun b -> b.b_lrel);
    ipis_sent = sum (fun b -> b.b_ipis_sent);
    ipis_delivered = sum (fun b -> b.b_ipis_delivered);
  }

let reset_conc () =
  Array.iter
    (fun b ->
      b.b_cli <- 0;
      b.b_sti <- 0;
      b.b_lacq <- 0;
      b.b_lrel <- 0;
      b.b_ipis_sent <- 0;
      b.b_ipis_delivered <- 0)
    !banks

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

(* Full reset across all three counter families.  The individual resets
   stay available for the measurements that deliberately reset one family
   (e.g. the tiered bench resets check counters per run but accumulates
   tier counters across warm-up and measurement). *)
let reset_all () =
  reset ();
  reset_tier ();
  reset_conc ()

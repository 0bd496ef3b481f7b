type memclass = Heap | Stack | Global | Userspace | Bios

type obj = { ob_class : memclass; ob_live : bool ref }

type t = {
  mp_name : string;
  mutable mp_type_homog : bool;
  mutable mp_complete : bool;
  mutable mp_elem_size : int;
  mp_objects : obj Splay.t;
  mp_smp : Smp.t;
  mp_caches : obj Objcache.t array;
  mutable mp_cached : bool;
  mutable mp_epoch : int;
  (* Per-pool observability counters (always on: plain int bumps, no
     effect on verdicts or the cycle model). *)
  mutable mp_peak : int;
  mutable mp_regs : int;
  mutable mp_drops : int;
  mutable mp_lookups : int;
  mutable mp_hits : int;
  mutable mp_flushes : int;
}

let create ?smp ?(type_homog = false) ?(complete = true) ?(elem_size = 0)
    ?(cached = true) name =
  let smp = match smp with Some s -> s | None -> Smp.create () in
  {
    mp_name = name;
    mp_type_homog = type_homog;
    mp_complete = complete;
    mp_elem_size = elem_size;
    mp_objects = Splay.create ();
    mp_smp = smp;
    mp_caches = Array.init (Smp.ncpus smp) (fun _ -> Objcache.create ());
    mp_cached = cached;
    mp_epoch = 0;
    mp_peak = 0;
    mp_regs = 0;
    mp_drops = 0;
    mp_lookups = 0;
    mp_hits = 0;
    mp_flushes = 0;
  }

let set_cached mp b = mp.mp_cached <- b

(* Ownership/epoch coherence over the per-CPU cache shards: the pool
   epoch counts object removals, and a shard is usable only at the
   current epoch.  The CPU that performs a drop repairs its own shard
   precisely (targeted invalidation, then adopt the new epoch) — so a
   single-CPU pool never wholesale-flushes and stays bit-identical to
   the unsharded cache — while any other CPU discovers the stale epoch
   on its next access and clears its whole shard.  Registrations never
   bump the epoch: registered ranges are disjoint, so an insert cannot
   make any cached entry stale.  Lookups on a current shard remain plain
   1-cycle hits with zero cross-CPU traffic, which is the point. *)
let shard mp =
  let c = mp.mp_caches.(Smp.cur mp.mp_smp) in
  if Objcache.epoch c <> mp.mp_epoch then begin
    Objcache.clear c;
    Objcache.set_epoch c mp.mp_epoch;
    mp.mp_flushes <- mp.mp_flushes + 1
  end;
  c

(* Removal path: sync this CPU's shard first (a lagging shard may hold
   entries staled by other CPUs' drops), then bump the epoch, repair the
   shard for this one removal, and adopt the new epoch. *)
let invalidate mp start =
  let c = shard mp in
  mp.mp_epoch <- mp.mp_epoch + 1;
  Objcache.invalidate_start c start;
  Objcache.set_epoch c mp.mp_epoch

(* Every containment query goes through here: this CPU's cache shard
   first, splay on miss.  Current-epoch shard entries are always live —
   every removal path bumps the epoch — and insertion cannot make one
   stale (ranges are disjoint), so registration needs no invalidation.
   The per-pool hit counter is derived from the global one's delta so
   the two can never disagree. *)
let find mp addr =
  mp.mp_lookups <- mp.mp_lookups + 1;
  if mp.mp_cached then begin
    let c = shard mp in
    let h0 = Stats.cache_hits () in
    let r = Objcache.find c mp.mp_objects addr in
    if Stats.cache_hits () > h0 then mp.mp_hits <- mp.mp_hits + 1;
    r
  end
  else Splay.find_containing mp.mp_objects addr

let register mp ~cls ~start ~len =
  Stats.bump_reg ();
  mp.mp_regs <- mp.mp_regs + 1;
  if !Trace.active then Trace.emit_register ~pool:mp.mp_name ~start ~len;
  (* A failed allocation (null) or a non-positive requested size (integer
     overflow/underflow in the caller) registers nothing: later checks
     through the pointer then fail, which is exactly the exploit-catching
     behaviour (Section 7.2's too-small-object overruns). *)
  if start <> 0 && len > 0 then begin
    Splay.insert mp.mp_objects ~start ~len { ob_class = cls; ob_live = ref true };
    let live = Splay.size mp.mp_objects in
    if live > mp.mp_peak then mp.mp_peak <- live
  end

let drop mp ~start =
  Stats.bump_drop ();
  mp.mp_drops <- mp.mp_drops + 1;
  if !Trace.active then Trace.emit_drop ~pool:mp.mp_name ~start;
  match Splay.remove mp.mp_objects ~start with
  | Some _ -> invalidate mp start
  | None ->
      (* Distinguish a pointer into the middle of a live object (illegal
         free) from a pointer to nothing (double free). *)
      let kind =
        match find mp start with
        | Some _ -> Violation.Illegal_free
        | None -> Violation.Double_free
      in
      Violation.violation kind ~metapool:mp.mp_name ~addr:start
        "pchk.drop.obj of a non-live object"

let drop_if_present mp ~start =
  match Splay.remove mp.mp_objects ~start with
  | Some _ ->
      mp.mp_drops <- mp.mp_drops + 1;
      if !Trace.active then Trace.emit_drop ~pool:mp.mp_name ~start;
      invalidate mp start;
      true
  | None -> false

let getbounds mp addr =
  Stats.bump_getbounds ();
  if !Trace.active then
    Trace.emit_check "getbounds" ~pool:mp.mp_name ~addr ~len:0;
  match find mp addr with
  | Some n -> Some (n.Splay.n_start, n.Splay.n_len)
  | None -> None

let in_range ~start ~len addr access_len =
  addr >= start && addr + access_len <= start + len

let boundscheck_known ~start ~len ~dst ~access_len ~pool =
  Stats.bump_bounds ();
  if !Trace.active then
    Trace.emit_check "bounds-known" ~pool ~addr:dst ~len:access_len;
  if not (in_range ~start ~len dst access_len) then begin
    Violation.violation Violation.Bounds ~metapool:pool ~addr:dst
      (Printf.sprintf
         "indexing to [0x%x,+%d) escapes object [0x%x,+%d)" dst access_len
         start len)
  end

let boundscheck mp ~src ~dst ~access_len =
  Stats.bump_bounds ();
  if !Trace.active then
    Trace.emit_check "bounds" ~pool:mp.mp_name ~addr:dst ~len:access_len;
  match find mp src with
  | Some n ->
      if not (in_range ~start:n.Splay.n_start ~len:n.Splay.n_len dst access_len)
      then begin
        Violation.violation Violation.Bounds ~metapool:mp.mp_name ~addr:dst
          (Printf.sprintf
             "gep from 0x%x to [0x%x,+%d) escapes object [0x%x,+%d)" src dst
             access_len n.Splay.n_start n.Splay.n_len)
      end
  | None -> (
      match find mp dst with
      | Some _ when not mp.mp_complete ->
          (* Source unregistered in an incomplete pool: nothing can be
             said (Section 4.5). *)
          Stats.bump_reduced ()
      | Some n ->
          Violation.violation Violation.Bounds ~metapool:mp.mp_name ~addr:dst
            (Printf.sprintf
               "gep source 0x%x outside every object but target inside \
                [0x%x,+%d)"
               src n.Splay.n_start n.Splay.n_len)
      | None ->
          if mp.mp_complete then begin
            Violation.violation Violation.Bounds ~metapool:mp.mp_name
              ~addr:src "gep source points to no registered object"
          end
          else Stats.bump_reduced ())

let lscheck mp ~addr ~access_len =
  if not mp.mp_complete then Stats.bump_reduced ()
  else begin
    Stats.bump_ls ();
    if !Trace.active then
      Trace.emit_check "ls" ~pool:mp.mp_name ~addr ~len:access_len;
    if addr = 0 then begin
      (* Null is reported once and the check ends here — no second
         Load_store lookup/violation for the same access. *)
      Violation.violation Violation.Uninit_pointer ~metapool:mp.mp_name
        ~addr "load/store through null pointer"
    end
    else
      match find mp addr with
      | Some n ->
          if
            not
              (in_range ~start:n.Splay.n_start ~len:n.Splay.n_len addr
                 access_len)
          then begin
            Violation.violation Violation.Load_store ~metapool:mp.mp_name ~addr
              (Printf.sprintf
                 "access [0x%x,+%d) straddles object [0x%x,+%d)" addr
                 access_len n.Splay.n_start n.Splay.n_len)
          end
      | None ->
          Violation.violation Violation.Load_store ~metapool:mp.mp_name ~addr
            "load/store outside every registered object"
  end

let funccheck_hashed ~allowed ~target =
  Stats.bump_funccheck ();
  if !Trace.active then
    Trace.emit_check "funccheck" ~pool:"" ~addr:target ~len:0;
  if not (Hashtbl.mem allowed target) then
    Violation.violation Violation.Indirect_call ~metapool:"" ~addr:target
      (Printf.sprintf "indirect call to 0x%x not in the call graph set {%s}"
         target
         (String.concat ", "
            (List.sort compare
               (Hashtbl.fold (fun _ nm acc -> nm :: acc) allowed []))))

let live_objects mp = Splay.size mp.mp_objects

type metrics = {
  m_name : string;
  m_live : int;
  m_peak : int;
  m_regs : int;
  m_drops : int;
  m_depth : int;
  m_lookups : int;
  m_cache_hits : int;
  m_flushes : int;
}

let metrics mp =
  {
    m_name = mp.mp_name;
    m_live = Splay.size mp.mp_objects;
    m_peak = mp.mp_peak;
    m_regs = mp.mp_regs;
    m_drops = mp.mp_drops;
    m_depth = Splay.depth mp.mp_objects;
    m_lookups = mp.mp_lookups;
    m_cache_hits = mp.mp_hits;
    m_flushes = mp.mp_flushes;
  }

let metrics_hit_rate m =
  if m.m_lookups = 0 then 0.0
  else float_of_int m.m_cache_hits /. float_of_int m.m_lookups *. 100.0

let reset_metrics mp =
  mp.mp_peak <- Splay.size mp.mp_objects;
  mp.mp_regs <- 0;
  mp.mp_drops <- 0;
  mp.mp_lookups <- 0;
  mp.mp_hits <- 0;
  mp.mp_flushes <- 0

let reset mp =
  Splay.clear mp.mp_objects;
  Array.iter
    (fun c ->
      Objcache.clear c;
      Objcache.set_epoch c mp.mp_epoch)
    mp.mp_caches

(* One run of one workload, in a process of its own: set up the image,
   warm up, time a closed loop of seeded ops, check the outputs, and
   print every metric as one JSON object on stdout.  [Perf] starts one of
   these per workload, and a second, traced one for [--trace 1]. *)

module Pipeline = Sva_pipeline.Pipeline
module Kbuild = Ukern.Kbuild
module Boot = Ukern.Boot
module W = Harness.Workloads
module Stats = Sva_rt.Stats
module J = Harness.Jsonout

(* ---------- one-line JSON ---------- *)

(* Floats keep every digit that round-trips (Jsonout rounds to six). *)
let float_text f =
  if not (Float.is_finite f) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let to_line v =
  let b = Buffer.create 4096 in
  let str s =
    let e = J.emit (J.Str s) in
    Buffer.add_string b (String.sub e 0 (String.length e - 1))
  in
  let rec go = function
    | J.Null -> Buffer.add_string b "null"
    | J.Bool x -> Buffer.add_string b (string_of_bool x)
    | J.Int i -> Buffer.add_string b (string_of_int i)
    | J.Float f -> Buffer.add_string b (float_text f)
    | J.Str s -> str s
    | J.List l ->
        Buffer.add_char b '[';
        List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; go x) l;
        Buffer.add_char b ']'
    | J.Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            str k;
            Buffer.add_char b ':';
            go x)
          l;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------- samples ---------- *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* ---------- metrics ---------- *)

type metric = {
  value : float;
  unit_ : string;
  exact : bool;  (** modeled or counted: repeats bit for bit on a seed *)
  quartiles : (float * float) option;
  n : int option;  (** samples behind the value (beyond it, for a tail) *)
}

let metrics : (string * metric) list ref = ref []

let add ?(exact = false) ?quartiles ?n name unit_ value =
  metrics := (name, { value; unit_; exact; quartiles; n }) :: !metrics

let add_count name v = add ~exact:true name "count" (float_of_int v)

(* Median with its quartiles and sample count. *)
let add_median ?(scale = 1.) name unit_ samples =
  let s = sorted_of_list samples in
  add name unit_ (scale *. pct s 50.)
    ~quartiles:(scale *. pct s 25., scale *. pct s 75.)
    ~n:(Array.length s)

let metric_json m =
  J.Obj
    ([ ("value", J.Float m.value); ("unit", J.Str m.unit_); ("exact", J.Bool m.exact) ]
    @ (match m.quartiles with
      | Some (q1, q3) -> [ ("q1", J.Float q1); ("q3", J.Float q3) ]
      | None -> [])
    @ match m.n with Some n -> [ ("n", J.Int n) ] | None -> [])

(* ---------- failures ---------- *)

let failures : string list ref = ref []
let failed_checks = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed_checks;
      failures := s :: !failures)
    fmt

(* ---------- workloads ---------- *)

type kind = Mix | Bulk | Http | Build_boot

type spec = {
  w_name : string;
  kind : kind;
  ref_ops : int;  (** timed ops at [--scale 1] *)
  warmup : int;
  max_ops : int;  (** cap on a timed run *)
  tail : float;  (** the percentile reported as [tail_us] *)
  engine : Pipeline.engine_config;
}

(* Each tail is the highest of p99, p95 and p90 with ten samples beyond
   it among the ops latencies are read from (see [measure]); build-boot
   has too few ops for any of them, and reports p90. *)
let specs =
  [
    (* Capped at 700k timed ops even when time is left: with exactly 5
       fork/exec ops in every 1000, the run stays below
       [Workloads.prepare]'s exec budget of 4000, past which
       [op_fork_exec] silently does nothing. *)
    { w_name = "syscall-mix"; kind = Mix; ref_ops = 700_000; warmup = 10_000;
      max_ops = 700_000; tail = 99.; engine = Pipeline.default_engine };
    { w_name = "bulk-io"; kind = Bulk; ref_ops = 3500; warmup = 35; max_ops = 14_000;
      tail = 95.; engine = Pipeline.default_engine };
    { w_name = "http-aot"; kind = Http; ref_ops = 28_000; warmup = 500; max_ops = 112_000;
      tail = 99.; engine = Pipeline.aot_engine };
    { w_name = "build-boot"; kind = Build_boot; ref_ops = 110; warmup = 0; max_ops = 1000;
      tail = 90.; engine = Pipeline.default_engine };
  ]

let exec_budget = 4000
let setup_reps = 5

(* The timed ops run in batches of ref_ops/50, so a reference-length run
   has 50.  Modeled metrics are taken over the first [exact_batches],
   which every run completes, so they repeat exactly on a seed however
   many ops the host manages in the time given. *)
let exact_batches = 10
let batch_size s = max 1 (s.ref_ops / 50)

(* The system under test as the op loop drives it. *)
type driver = {
  classes : string array;
  weights : int array;
  run : int -> int;  (** one op of a class; returns payload bytes moved *)
  after : unit -> unit;  (** untimed per-op output check *)
  vm_cycles : unit -> int;
  vm_steps : unit -> int;
  pools : unit -> Sva_rt.Metapool_rt.t list;
}

(* Ops are dealt from a deck that holds each class in exact proportion
   to its weight and is reshuffled by the seed whenever it runs out.  A
   deck is one batch, so every full batch has the same mix and only the
   order of ops depends on the seed. *)
let dealer d ~size rng =
  let total = Array.fold_left ( + ) 0 d.weights in
  if size mod total <> 0 then invalid_arg "a deck must hold whole multiples of the weights";
  let deck =
    Array.concat (Array.to_list (Array.mapi (fun c w -> Array.make (size / total * w) c) d.weights))
  in
  let next = ref size in
  fun () ->
    if !next = size then begin
      for i = size - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = deck.(i) in
        deck.(i) <- deck.(j);
        deck.(j) <- x
      done;
      next := 0
    end;
    incr next;
    deck.(!next - 1)

let kernel_driver (t : Boot.t) ops =
  {
    classes = Array.map (fun (n, _, _) -> n) ops;
    weights = Array.map (fun (_, w, _) -> w) ops;
    run = (fun k -> let _, _, f = ops.(k) in f ());
    after = ignore;
    vm_cycles = (fun () -> Boot.cycles t);
    vm_steps = (fun () -> Boot.steps t);
    pools = (fun () -> List.map snd (Sva_interp.Interp.metapools t.Boot.vm));
  }

(* Syscall numbers of the kernel (ksrc_init.ml), for the benchmark's own
   checking calls and for naming the profiler's per-syscall rows. *)
let syscall_names =
  [ (1, "getpid"); (2, "getrusage"); (3, "gettimeofday"); (4, "open");
    (5, "close"); (6, "read"); (7, "write"); (8, "pipe"); (9, "fork");
    (10, "execve"); (11, "sbrk"); (12, "sigaction"); (14, "socket");
    (15, "bind"); (16, "sendto"); (17, "recvfrom"); (20, "lseek");
    (22, "netpoll") ]

let call t name args =
  Boot.syscall t (fst (List.find (fun (_, n) -> n = name) syscall_names)) args

(* open(2) of an existing file (flags 0: no create). *)
let open_existing t path =
  Boot.write_user t 0 (path ^ "\000");
  call t "open" [ Boot.user_addr t 0; 0L ]

let fork_exec_draws = ref 0

let syscall_mix (c : W.ctx) =
  let u f () = f c; 0 in
  let fork_exec () = incr fork_exec_draws; W.op_fork_exec c; 0 in
  [|
    ("getpid", 200, u W.op_getpid); ("open-close", 150, u W.op_open_close);
    ("pipe", 115, u W.op_pipe_latency); ("fork", 30, u W.op_fork);
    ("fork-exec", 5, fork_exec); ("getrusage", 100, u W.op_getrusage);
    ("gettimeofday", 100, u W.op_gettimeofday); ("sbrk", 100, u W.op_sbrk);
    ("sigaction", 100, u W.op_sigaction); ("write", 100, u W.op_write);
  |]

let data_bytes = 128 * 1024

let bulk_io (c : W.ctx) =
  (* The data file's offset, mirrored so op_scp_chunk's payload is known:
     prepare leaves it at the end, a file read rewinds and reads, and a
     chunk read at the end rewinds and moves nothing. *)
  let pos = ref data_bytes in
  let read n () = W.op_file_read c n; pos := n; n in
  let pipe n () = W.op_pipe_stream c n; n in
  let scp () =
    W.op_scp_chunk c;
    let n = min 4096 (data_bytes - !pos) in
    pos := if n = 0 then 0 else !pos + n;
    n
  in
  (* read-64k counts twice so the median op sits inside one class, not
     on the border between two, where it would jump between them. *)
  [|
    ("read-32k", 1, read 32768); ("read-64k", 2, read 65536);
    ("read-128k", 1, read 131072); ("pipe-4k", 1, pipe 4096);
    ("pipe-8k", 1, pipe 8192); ("scp-chunk", 1, scp);
  |]

let http (c : W.ctx) =
  let req file cgi expect () =
    let n = W.serve_http_request c ~file ~cgi in
    if n <> expect then failwith (Printf.sprintf "%s served %d bytes, not %d" file n expect);
    n
  in
  [|
    ("get-311", 7, req "www.311" false 311);
    ("get-311-cgi", 2, req "www.311" true 311);
    ("get-85k", 1, req "www.85k" false 87040);
  |]

(* ---------- set-up ---------- *)

(* The traced run builds and boots through the staged replay, so its
   spans attribute the time to stages; the untraced run calls the
   pipeline itself. *)
let traced = ref false
let build_counts = ref None
let boot_counts = ref []

let build_image () =
  if !traced then
    Span.with_span "ukern.build" (fun () ->
        let b, c = Stages.build () in
        build_counts := Some c;
        b)
  else
    Kbuild.build ~conf:Pipeline.Sva_safe ~lint:true ~ranges:true ~races:true
      ~poolcert:true Kbuild.as_tested

let boot_image ~engine built =
  if !traced then
    Span.with_span "ukern.boot" (fun () ->
        let t, c = Stages.boot ~engine built in
        boot_counts := c :: !boot_counts;
        t)
  else Boot.boot_built ~engine built ~variant:Kbuild.as_tested

let encode (b : Pipeline.built) = Sva_bytecode.Codec.encode b.Pipeline.bl_mod

(* Scratch space in the working directory for the persistent translation
   store; removed when the run ends. *)
let scratch = Filename.concat (Sys.getcwd ()) ".perf-tmp"
let store_dirs = ref []

let fresh_store () =
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let d =
    Filename.concat scratch
      (Printf.sprintf "tcache-%d-%d" (Unix.getpid ()) (List.length !store_dirs))
  in
  store_dirs := d :: !store_dirs;
  d

let cleanup () =
  Sva_interp.Tcache_disk.set_dir None;
  List.iter
    (fun d ->
      if Sys.file_exists d then begin
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
        Sys.rmdir d
      end)
    !store_dirs;
  try Sys.rmdir scratch with Sys_error _ -> ()

(* http-aot boots twice through a fresh persistent store: the cold boot
   translates and writes every function; then, with the in-memory cache
   cleared as a new process would find it, the warm boot must reuse every
   entry from disk, with none stale and none translated again.  Only the
   warm boot, the one the workload runs on, is replayed stage by stage
   in the traced run. *)
let aot_warm_boot built =
  let engine = { Pipeline.aot_engine with Pipeline.eng_tcache_dir = Some (fresh_store ()) } in
  let boot f =
    Sva_interp.Closcomp.clear_cache ();
    Stats.reset_tier ();
    let t = f () in
    (t, Stats.read_tier ())
  in
  let _, cold =
    Span.with_span "bench.store_warmup" (fun () ->
        boot (fun () -> Boot.boot_built ~engine built ~variant:Kbuild.as_tested))
  in
  let t, warm = boot (fun () -> boot_image ~engine built) in
  if cold.Stats.tcache_disk_writes = 0
     || warm.Stats.tcache_disk_hits <> cold.Stats.tcache_disk_writes
     || warm.Stats.tcache_disk_stale <> 0 || warm.Stats.tcache_misses <> 0
  then
    fail "warm AOT boot: %d disk hits for %d writes, %d stale, %d translated"
      warm.Stats.tcache_disk_hits cold.Stats.tcache_disk_writes
      warm.Stats.tcache_disk_stale warm.Stats.tcache_misses;
  (t, warm)

(* Build, boot and prepare: everything before the timed phase. *)
let setup spec =
  let built = build_image () in
  let t, tier =
    if spec.kind = Http then aot_warm_boot built
    else (boot_image ~engine:spec.engine built, Stats.tier_zero)
  in
  let ctx =
    Span.with_span "harness.prepare" (fun () ->
        let c = W.prepare t in
        if spec.kind = Http then W.http_setup c;
        c)
  in
  (built, ctx, tier)

(* ---------- output checks ---------- *)

(* The lowest free descriptor, found by opening and closing a file: a
   descriptor leaked by the run would shift it. *)
let lowest_fd t =
  let fd = open_existing t "bench.scratch" in
  ignore (call t "close" [ fd ]);
  fd

let check_pattern t =
  let fd = open_existing t "bench.data" in
  let buf = Buffer.create data_bytes in
  let rec go () =
    let r = Int64.to_int (call t "read" [ fd; Boot.user_addr t 65536; 8192L ]) in
    if r > 0 then begin
      Buffer.add_string buf (Boot.read_user t 65536 r);
      go ()
    end
  in
  go ();
  ignore (call t "close" [ fd ]);
  if Buffer.contents buf <> String.init data_bytes (fun i -> Char.chr (0x20 + (i mod 64)))
  then fail "bench.data re-read (%d bytes) does not match its pattern" (Buffer.length buf)

(* Section 7.2 on the benchmark image: four exploits caught by run-time
   checks, and BID 13589 missed, because the as-tested kernel does not
   compile the user-copy library with checks.  A build that drops checks
   to go faster fails here. *)
let check_exploits built =
  List.iter
    (fun id ->
      let t = Boot.boot_built built ~variant:Kbuild.as_tested in
      let out = Exploits.attack t id in
      let caught = match out with Exploits.Caught _ -> true | _ -> false in
      if caught <> (id <> Exploits.Bid_13589) then
        fail "exploit %s: %s" (Exploits.name id) (Exploits.outcome_to_string out))
    Exploits.all

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> go ())
      in
      go ())

(* ---------- build-boot ---------- *)

(* One op builds the image and boots it.  Each rebuilt image must match
   the set-up build bit for bit. *)
let build_boot ~ref_bytes =
  let cycles = ref 0 and steps = ref 0 and last = ref None in
  let builds = ref [] and boots = ref [] in
  let run _ =
    let t0 = Span.now () in
    let b = build_image () in
    let t1 = Span.now () in
    let t = boot_image ~engine:Pipeline.default_engine b in
    builds := float_of_int (t1 - t0) :: !builds;
    boots := float_of_int (Span.now () - t1) :: !boots;
    cycles := !cycles + Boot.cycles t;
    steps := !steps + Boot.steps t;
    last := Some (b, t);
    0
  in
  let after () =
    (match !last with
    | Some (b, _) when encode b <> ref_bytes -> fail "a rebuilt image differs from the set-up build"
    | _ -> ());
    (* Free the previous iteration's 122 MB machine now, outside the
       timed op: left to the GC's own pace, dead machines pile up past
       1 GB of resident memory. *)
    Gc.full_major ()
  in
  let pools () =
    match !last with
    | Some (_, t) -> List.map snd (Sva_interp.Interp.metapools t.Boot.vm)
    | None -> []
  in
  ( { classes = [| "build-boot" |]; weights = [| 1 |]; run; after;
      vm_cycles = (fun () -> !cycles); vm_steps = (fun () -> !steps); pools },
    builds, boots )

(* ---------- the timed loop ---------- *)

type limit = Seconds of float | Ops of int

type snapshot = {
  s_cycles : int;
  s_steps : int;
  s_checks : Stats.snapshot;
  s_conc : Stats.conc_snapshot;
  s_hwm_mb : float;
  s_depth : int;  (** deepest splay tree among the kernel's metapools *)
  s_profile : Sva_rt.Trace.prow list * Sva_rt.Trace.prow list;
      (** the profiler's per-syscall and per-function rows, when on *)
}

let snap d =
  { s_cycles = d.vm_cycles (); s_steps = d.vm_steps (); s_checks = Stats.read ();
    s_conc = Stats.read_conc (); s_hwm_mb = vm_hwm_mb ();
    s_depth =
      List.fold_left
        (fun m p -> max m (Sva_rt.Metapool_rt.metrics p).Sva_rt.Metapool_rt.m_depth)
        0 (d.pools ());
    s_profile =
      (if !Sva_rt.Trace.profiling then (Sva_rt.Trace.sys_report (), Sva_rt.Trace.fn_report ())
       else ([], [])) }

let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns = 1e-6
let us_of_ns = 1e-3

type outcome = {
  ops : int;
  failed_ops : int;
  sequence : string;  (** digest of the op classes drawn in the exact window *)
}

(* Modeled self cycles per op from the in-program profiler, which only
   the traced run turns on: per syscall, and for the ten hottest kernel
   functions. *)
let profile_metrics (rows, fns) win =
  let sys_name p =
    match Scanf.sscanf_opt p "syscall %d" Fun.id with
    | Some n -> Option.value (List.assoc_opt n syscall_names) ~default:(string_of_int n)
    | None -> p
  in
  let per name r =
    add ~exact:true name "cycles" (float_of_int r.Sva_rt.Trace.p_self_cycles /. win)
  in
  List.iter
    (fun r -> per (Printf.sprintf "ukern.sys.%s.self_cycles_per_op" (sys_name r.Sva_rt.Trace.p_name)) r)
    rows;
  List.iteri
    (fun i r -> if i < 10 then per (Printf.sprintf "ukern.fn.%s.self_cycles_per_op" r.Sva_rt.Trace.p_name) r)
    fns;
  add ~exact:true "svaos.traps_per_op" "count"
    (float_of_int (List.fold_left (fun a r -> a + r.Sva_rt.Trace.p_calls) 0 rows) /. win)

(* Other tenants of a shared host slow the benchmark down in spells of
   seconds: one run mixes batches at the host's full speed with batches
   at half of it, and the mix differs from run to run.  Interference
   only ever slows a batch, so throughput is the 90th percentile of batch
   throughput, and latencies are read from the ops of the fastest fifth
   of the batches; [Calib] then corrects for how fast the host itself
   was in those moments. *)
let fast_share = 0.2

type batch = { first : int; count : int; busy : int; bytes : int }

let measure spec d ~rng ~limit =
  let warm = dealer d ~size:(batch_size spec) rng in
  for _ = 1 to spec.warmup do
    ignore (d.run (warm ()))
  done;
  let draw = dealer d ~size:(batch_size spec) rng in
  let stop_ops = match limit with Ops n -> min n spec.max_ops | Seconds _ -> spec.max_ops in
  let k = Array.length d.classes in
  let lat = Vec.create () and cls = Vec.create () in
  let cls_n = Array.make k 0 and cls_cycles = Array.make k 0 in
  let batches = ref [] and nbatches = ref 0 in
  let seq = Buffer.create 4096 in
  let span_names = Array.map (fun c -> "op." ^ c) d.classes in
  let ops = ref 0 and failed = ref 0 and window = ref None in
  let s0 = snap d and gc0 = Gc.quick_stat () in
  if !traced then Sva_rt.Trace.enable_profile ();
  let t_start = Span.now () in
  let finished () =
    !ops >= stop_ops
    ||
    match limit with
    | Ops _ -> false
    | Seconds s -> !nbatches >= exact_batches && s_of_ns (Span.now () - t_start) >= s
  in
  while not (finished ()) do
    Calib.slice ();
    let first = !ops and busy = ref 0 and bytes = ref 0 in
    while !ops - first < batch_size spec && !ops < stop_ops do
      let c = draw () in
      let c0 = d.vm_cycles () in
      let t0 = Span.now () in
      (match Span.with_span ~op:!ops span_names.(c) (fun () -> d.run c) with
      | moved -> bytes := !bytes + moved
      | exception e ->
          incr failed;
          if !failed <= 5 then
            failures := Printf.sprintf "op %s: %s" d.classes.(c) (Printexc.to_string e) :: !failures);
      let dt = Span.now () - t0 in
      if !window = None then begin
        Buffer.add_char seq (Char.chr c);
        cls_n.(c) <- cls_n.(c) + 1;
        cls_cycles.(c) <- cls_cycles.(c) + (d.vm_cycles () - c0)
      end;
      d.after ();
      Vec.push lat dt;
      Vec.push cls c;
      busy := !busy + dt;
      incr ops
    done;
    batches := { first; count = !ops - first; busy = !busy; bytes = !bytes } :: !batches;
    incr nbatches;
    if !nbatches = exact_batches then window := Some (!ops, snap d)
  done;
  let gc1 = Gc.quick_stat () in
  let win_ops, s1 = match !window with Some w -> w | None -> (!ops, snap d) in
  let win = float_of_int (max 1 win_ops) and all = float_of_int (max 1 !ops) in
  (* end to end *)
  let full = List.filter (fun b -> b.count > 0) !batches in
  let per_s b x = float_of_int x /. s_of_ns b.busy in
  let rates = List.map (fun b -> per_s b b.count) full in
  let fast =
    List.filteri
      (fun i _ -> float_of_int i < Float.ceil (fast_share *. float_of_int (List.length full)))
      (List.sort (fun a b -> compare (per_s b b.count) (per_s a a.count)) full)
  in
  let pool keep =
    let l = ref [] in
    List.iter
      (fun b ->
        for i = b.first to b.first + b.count - 1 do
          if keep cls.Vec.a.(i) then l := (us_of_ns *. float_of_int lat.Vec.a.(i)) :: !l
        done)
      fast;
    sorted_of_list !l
  in
  let quartiles s = (pct s 25., pct s 75.) in
  let r = sorted_of_list rates in
  add "ops_per_s" "op/s" (pct r 90.) ~quartiles:(quartiles r) ~n:(Array.length r);
  if spec.kind = Bulk then begin
    let m = sorted_of_list (List.map (fun b -> per_s b b.bytes /. 1048576.) full) in
    add "mb_per_s" "MiB/s" (pct m 90.) ~quartiles:(quartiles m) ~n:(Array.length m)
  end;
  let p = pool (fun _ -> true) in
  let n = Array.length p in
  add "p50_us" "us" (pct p 50.) ~quartiles:(quartiles p) ~n;
  add "tail_us" "us" (pct p spec.tail)
    ~n:(n - int_of_float (Float.ceil (spec.tail /. 100. *. float_of_int n)));
  add ~exact:true "cycles_per_op" "cycles" (float_of_int (s1.s_cycles - s0.s_cycles) /. win);
  (* Forked children are never reaped, so memory grows with the ops a
     run gets through; the peak after the exact window is the same in
     every run. *)
  add "peak_rss_mb" "MiB" s1.s_hwm_mb;
  (* per op class *)
  Array.iteri
    (fun c name ->
      let p = pool (( = ) c) in
      if Array.length p > 0 then
        add (Printf.sprintf "ukern.op.%s.p50_us" name) "us" (pct p 50.) ~quartiles:(quartiles p)
          ~n:(Array.length p);
      if cls_n.(c) > 0 then
        add ~exact:true (Printf.sprintf "ukern.op.%s.cycles" name) "cycles"
          (float_of_int cls_cycles.(c) /. float_of_int cls_n.(c)))
    d.classes;
  (* per layer, over the exact window *)
  let per name v = add ~exact:true name "count" (float_of_int v /. win) in
  let ck = Stats.diff s1.s_checks s0.s_checks in
  let cc = Stats.diff_conc s1.s_conc s0.s_conc in
  per "interp.steps_per_op" (s1.s_steps - s0.s_steps);
  per "svaos.locks_per_op" cc.Stats.lock_acquires;
  per "svaos.cli_per_op" cc.Stats.cli_count;
  per "rt.lscheck_per_op" ck.Stats.ls_checks;
  per "rt.bounds_per_op" ck.Stats.bounds_checks;
  per "rt.funccheck_per_op" ck.Stats.funcchecks;
  per "rt.getbounds_per_op" ck.Stats.getbounds;
  per "rt.reg_per_op" ck.Stats.registrations;
  per "rt.drop_per_op" ck.Stats.drops;
  per "rt.lookups_per_op" (ck.Stats.cache_hits + ck.Stats.cache_misses);
  add ~exact:true "rt.cache_hit_pct" "%" (Stats.hit_rate ck);
  add_count "rt.splay_depth_max" s1.s_depth;
  add "gc.minor_words_per_op" "words" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. all);
  add "gc.major_words_per_op" "words" ((gc1.Gc.major_words -. gc0.Gc.major_words) /. all);
  if !traced then begin
    profile_metrics s1.s_profile win;
    Sva_rt.Trace.disable_profile ()
  end;
  { ops = !ops; failed_ops = !failed; sequence = Digest.to_hex (Digest.string (Buffer.contents seq)) }

(* ---------- one run ---------- *)

let static_metrics (built : Pipeline.built) bytes tier =
  add_count "bytecode.bytes" (String.length bytes);
  (match built.Pipeline.bl_summary with
  | Some s ->
      add_count "safety.static_checks.ls" s.Sva_safety.Checkinsert.ls_inserted;
      add_count "safety.static_checks.bounds" s.Sva_safety.Checkinsert.bounds_inserted;
      add_count "safety.static_checks.funccheck" s.Sva_safety.Checkinsert.funcchecks_inserted;
      add_count "safety.static_checks.reg" s.Sva_safety.Checkinsert.regs_inserted;
      add_count "safety.static_checks.drop" s.Sva_safety.Checkinsert.drops_inserted
  | None -> ());
  Option.iter
    (fun l -> add_count "lint.proofs" l.Sva_lint.Lint.lr_proof_count)
    built.Pipeline.bl_lint;
  add_count "interp.tcache_disk_hits" tier.Stats.tcache_disk_hits;
  add_count "interp.superblocks" tier.Stats.superblocks

(* What only the traced run measures: each stage span's median time, the
   replay's counts, and the span tree itself. *)
let span_metrics () =
  List.iter
    (fun (name, ds) ->
      if ds <> [] && not (String.starts_with ~prefix:"op." name) then
        add_median ~scale:ms_of_ns (name ^ "_ms") "ms" (List.map float_of_int ds))
    (Span.durations ());
  Option.iter
    (fun c ->
      add_count "minic.ir_instrs" c.Stages.ir_instrs;
      add_count "ir.instrs_after" c.Stages.instrs_after)
    !build_counts;
  (match !boot_counts with
  | c :: _ ->
      add_median "svaos.create_alloc_mb" "MiB"
        (List.map (fun c -> c.Stages.create_mb) !boot_counts);
      add ~exact:true "ukern.kmain_cycles" "cycles" (float_of_int c.Stages.kmain_cycles)
  | [] -> ())

let layers_json () =
  J.List
    (List.map
       (fun a ->
         J.Obj
           [ ("name", J.Str a.Span.a_name); ("count", J.Int a.Span.a_count);
             ("total_ms", J.Float (ms_of_ns *. float_of_int a.Span.a_total_ns));
             ("self_ms", J.Float (ms_of_ns *. float_of_int a.Span.a_self_ns)) ])
       (Span.aggregate ()))

(* The Chrome export keeps every span outside the op loop, and the first
   10k ops with whatever they contain; the aggregates use every span. *)
let trace_json () =
  J.List (Span.chrome_events ~pid:1 ~keep:(fun i -> Span.op_of i < 10_000))

(* Host times are divided, and host rates multiplied, by how much slower
   than idle the host ran (see [Calib]); the end-to-end ones are also
   kept as measured, under [raw.]. *)
let normalize () =
  let f = Calib.slowdown () in
  let by = function
    | "s" | "ms" | "us" -> Some (1. /. f)
    | "op/s" | "MiB/s" -> Some f
    | _ -> None
  in
  metrics :=
    List.concat_map
      (fun (k, m) ->
        match by m.unit_ with
        | Some c when not m.exact ->
            let scaled =
              { m with value = c *. m.value;
                       quartiles = Option.map (fun (a, b) -> (c *. a, c *. b)) m.quartiles }
            in
            if List.mem k [ "setup_s"; "ops_per_s"; "p50_us"; "tail_us" ] then
              [ ("raw." ^ k, m); (k, scaled) ]
            else [ (k, scaled) ]
        | _ -> [ (k, m) ])
      !metrics;
  add "host.calib_ms" "ms" (Calib.fast_ms ())

let main spec ~seed ~limit =
  let rng = Random.State.make [| seed |] in
  if !traced then Span.enable ();
  Fun.protect ~finally:cleanup @@ fun () ->
  let ref_bytes =
    if !traced then
      Some
        (encode
           (Kbuild.build ~conf:Pipeline.Sva_safe ~lint:true ~ranges:true
              ~races:true ~poolcert:true Kbuild.as_tested))
    else None
  in
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    (* drop the previous image first, so only one machine is live *)
    last := None;
    Gc.full_major ();
    Calib.slice ();
    let t0 = Span.now () in
    let s = Span.with_span "bench.setup" (fun () -> setup spec) in
    times := s_of_ns (Span.now () - t0) :: !times;
    last := Some s
  done;
  add_median "setup_s" "s" !times;
  let built, ctx, tier = Option.get !last in
  let bytes = encode built in
  if Option.fold ~none:false ~some:(( <> ) bytes) ref_bytes then
    fail "the staged replay's bytecode differs from Kbuild.build's";
  static_metrics built bytes tier;
  let t = W.kernel ctx in
  let d, build_boot_times =
    match spec.kind with
    | Mix -> (kernel_driver t (syscall_mix ctx), None)
    | Bulk -> (kernel_driver t (bulk_io ctx), None)
    | Http -> (kernel_driver t (http ctx), None)
    | Build_boot ->
        let d, builds, boots = build_boot ~ref_bytes:bytes in
        (d, Some (builds, boots))
  in
  let fd0 = if spec.kind = Mix then lowest_fd t else 0L in
  let o = measure spec d ~rng ~limit in
  add "peak_rss_run_mb" "MiB" (vm_hwm_mb ());
  (match spec.kind with
  | Mix ->
      let fd1 = lowest_fd t in
      if fd1 <> fd0 then fail "lowest free fd moved from %Ld to %Ld: a descriptor leaked" fd0 fd1;
      let pid = call t "getpid" [] in
      if Int64.compare pid 0L < 0 then fail "getpid returned %Ld" pid;
      if !fork_exec_draws >= exec_budget then
        fail "%d fork/exec draws reach the exec budget of %d" !fork_exec_draws exec_budget
  | Bulk -> check_pattern t
  | Http -> ()
  | Build_boot -> check_exploits built);
  Option.iter
    (fun (builds, boots) ->
      let s l = sorted_of_list !l in
      add "build_p50_ms" "ms" (ms_of_ns *. pct (s builds) 50.) ~n:(List.length !builds);
      add "build_p90_ms" "ms" (ms_of_ns *. pct (s builds) 90.) ~n:(List.length !builds);
      add "boot_p50_ms" "ms" (ms_of_ns *. pct (s boots) 50.) ~n:(List.length !boots);
      add "boot_p90_ms" "ms" (ms_of_ns *. pct (s boots) 90.) ~n:(List.length !boots))
    build_boot_times;
  let extra =
    if not !traced then []
    else begin
      span_metrics ();
      if spec.kind = Build_boot then begin
        let cov = List.fold_left min 1. (Span.leaf_coverage "op.build-boot") in
        add "bench.stage_coverage_pct" "%" (100. *. cov);
        if cov < 0.95 then
          fail "stage spans cover only %.1f%% of an iteration" (100. *. cov)
      end;
      [ ("layers", layers_json ()); ("trace_events", trace_json ()) ]
    end
  in
  normalize ();
  let failed = o.failed_ops + !failed_checks in
  add ~exact:true "fail_ratio" "fraction" (float_of_int failed /. float_of_int (max 1 o.ops));
  print_string
    (to_line
       (J.Obj
          ([ ("workload", J.Str spec.w_name); ("seed", J.Int seed);
             ("traced", J.Bool !traced);
             ("seeded", J.Bool (Array.length d.classes > 1));
             ("attempted", J.Int o.ops); ("failed", J.Int failed);
             ("failures", J.List (List.rev_map (fun s -> J.Str s) !failures));
             ("sequence", J.Str o.sequence);
             ("metrics",
               J.Obj (List.rev_map (fun (k, m) -> (k, metric_json m)) !metrics)) ]
          @ extra)));
  print_newline ()

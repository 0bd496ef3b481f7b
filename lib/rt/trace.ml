(* Bounded ring-buffer event trace + cycle-attribution profiler.

   Observability for the SVA runtime: every interesting dynamic event
   (check executions, violations, object register/drop, syscall
   entry/exit, SVA-OS operations, tier promotions and translation-cache
   probes, build-time range elisions) can be recorded into a fixed-size
   ring buffer, and a separate profiling layer attributes modeled cycles
   and check counts to functions and syscalls.

   Both layers sit OUTSIDE the TCB: they observe the runtime, they never
   decide anything.  Disabling them must be semantically invisible — the
   hot-path contract is that an emission site costs one [bool ref] read
   and a conditional branch when tracing is off, allocates nothing, and
   never touches the modeled cycle or check counters either way. *)

type ekind =
  | Ev_check
  | Ev_violation
  | Ev_register
  | Ev_drop
  | Ev_syscall_enter
  | Ev_syscall_exit
  | Ev_svaos
  | Ev_tier_promote
  | Ev_tcache_hit
  | Ev_tcache_miss
  | Ev_tcache_disk_hit
  | Ev_tcache_disk_stale
  | Ev_tcache_disk_write
  | Ev_range_elide

let ekind_name = function
  | Ev_check -> "check"
  | Ev_violation -> "violation"
  | Ev_register -> "register"
  | Ev_drop -> "drop"
  | Ev_syscall_enter -> "syscall-enter"
  | Ev_syscall_exit -> "syscall-exit"
  | Ev_svaos -> "svaos"
  | Ev_tier_promote -> "tier-promote"
  | Ev_tcache_hit -> "tcache-hit"
  | Ev_tcache_miss -> "tcache-miss"
  | Ev_tcache_disk_hit -> "tcache-disk-hit"
  | Ev_tcache_disk_stale -> "tcache-disk-stale"
  | Ev_tcache_disk_write -> "tcache-disk-write"
  | Ev_range_elide -> "range-elide"

type event = {
  ev_seq : int;  (* global emission index, 0-based *)
  ev_ts : int;  (* modeled cycles at emission (the trace clock) *)
  ev_cpu : int;  (* modeled CPU executing at emission (0 off-SMP) *)
  ev_kind : ekind;
  ev_name : string;
  ev_pool : string;
  ev_a : int;
  ev_b : int;
}

(* Which modeled CPU subsequent events are attributed to.  The SMP
   scheduler flips it at CPU-switch points; everything else (including
   build-time emission) stays on CPU 0, preserving pre-SMP traces. *)
let cur_cpu = ref 0
let set_cpu i = cur_cpu := i

(* The timestamp source.  The SVM installs its modeled-cycle counter at
   load time; events emitted outside any VM (build-time range elisions)
   read 0. *)
let clock : (unit -> int) ref = ref (fun () -> 0)

(* [active] is the one flag every hot emission site reads.  It is only
   ever true between [enable]/[disable], when the ring buffer below is
   allocated. *)
let active = ref false

let default_capacity = 4096

let dummy =
  { ev_seq = 0; ev_ts = 0; ev_cpu = 0; ev_kind = Ev_check; ev_name = "";
    ev_pool = ""; ev_a = 0; ev_b = 0 }

let ring : event array ref = ref [||]
let cap = ref 0
let total = ref 0

let enabled () = !active
let capacity () = !cap
let emitted () = !total
let dropped () = if !total > !cap then !total - !cap else 0

let clear () = total := 0

let enable ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  ring := Array.make capacity dummy;
  cap := capacity;
  total := 0;
  active := true

let disable () =
  active := false;
  ring := [||];
  cap := 0;
  total := 0

(* The single store.  Callers are expected to have tested [!active]
   already (the functions below re-test so an unguarded call is still
   safe); when active, one record is allocated per event — acceptable,
   tracing is an explicitly-enabled diagnostic mode. *)
let emit kind ~name ~pool ~a ~b =
  if !active then begin
    let ev =
      { ev_seq = !total; ev_ts = !clock (); ev_cpu = !cur_cpu; ev_kind = kind;
        ev_name = name; ev_pool = pool; ev_a = a; ev_b = b }
    in
    !ring.(!total mod !cap) <- ev;
    incr total
  end

let emit_check name ~pool ~addr ~len =
  emit Ev_check ~name ~pool ~a:addr ~b:len

let emit_violation ~kind ~pool ~addr =
  emit Ev_violation ~name:kind ~pool ~a:addr ~b:0

let emit_register ~pool ~start ~len = emit Ev_register ~name:"" ~pool ~a:start ~b:len
let emit_drop ~pool ~start = emit Ev_drop ~name:"" ~pool ~a:start ~b:0
let emit_syscall_enter ~num = emit Ev_syscall_enter ~name:"" ~pool:"" ~a:num ~b:0
let emit_syscall_exit ~num = emit Ev_syscall_exit ~name:"" ~pool:"" ~a:num ~b:0
let emit_svaos name = emit Ev_svaos ~name ~pool:"" ~a:0 ~b:0
let emit_tier_promote name = emit Ev_tier_promote ~name ~pool:"" ~a:0 ~b:0
let emit_tcache_hit name = emit Ev_tcache_hit ~name ~pool:"" ~a:0 ~b:0
let emit_tcache_miss name = emit Ev_tcache_miss ~name ~pool:"" ~a:0 ~b:0

let emit_tcache_disk_hit name =
  emit Ev_tcache_disk_hit ~name ~pool:"" ~a:0 ~b:0

let emit_tcache_disk_stale name =
  emit Ev_tcache_disk_stale ~name ~pool:"" ~a:0 ~b:0

let emit_tcache_disk_write name =
  emit Ev_tcache_disk_write ~name ~pool:"" ~a:0 ~b:0

let emit_range_elide ~what ~count =
  emit Ev_range_elide ~name:what ~pool:"" ~a:count ~b:0

(* Retained events, oldest first.  When the ring wrapped, the oldest
   retained event is the one [total - cap] emissions back. *)
let events () =
  let n = min !total !cap in
  if n = 0 then []
  else begin
    let first = !total - n in
    List.init n (fun i -> !ring.((first + i) mod !cap))
  end

let count kind =
  List.length (List.filter (fun e -> e.ev_kind = kind) (events ()))

(* ---------- cycle-attribution profiler ----------

   Self-cycle accounting over an explicit shadow call stack: on entry a
   frame snapshots the cycle and check counters; on exit the frame's
   inclusive delta is split into self (delta minus callee time, which the
   callees already claimed) and propagated to the parent.  Self times of
   all frames partition the cycles spent inside profiled scopes exactly,
   which is what lets the bench gate ">= 95% of modeled cycles
   attributed" on the syscall mix.  Syscalls get the same treatment on a
   second stack keyed by syscall number, entered around the whole trap
   path (so the trap entry/exit surcharge is attributed too). *)

let profiling = ref false

type acct = {
  mutable ac_calls : int;
  mutable ac_self_cycles : int;
  mutable ac_total_cycles : int;  (* inclusive; recursion double-counts *)
  mutable ac_self_checks : int;
}

type pframe = {
  pf_key : string;
  pf_cycles0 : int;
  pf_checks0 : int;
  mutable pf_child_cycles : int;
  mutable pf_child_checks : int;
}

let fn_acct : (string, acct) Hashtbl.t = Hashtbl.create 64
let sys_acct : (int, acct) Hashtbl.t = Hashtbl.create 16
let fn_stack : pframe list ref = ref []
let sys_stack : pframe list ref = ref []

let reset_profile () =
  Hashtbl.reset fn_acct;
  Hashtbl.reset sys_acct;
  fn_stack := [];
  sys_stack := []

let enable_profile () =
  reset_profile ();
  profiling := true

let disable_profile () =
  profiling := false;
  reset_profile ()

let push stack key ~cycles ~checks =
  stack :=
    { pf_key = key; pf_cycles0 = cycles; pf_checks0 = checks;
      pf_child_cycles = 0; pf_child_checks = 0 }
    :: !stack

let acct_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some a -> a
  | None ->
      let a =
        { ac_calls = 0; ac_self_cycles = 0; ac_total_cycles = 0;
          ac_self_checks = 0 }
      in
      Hashtbl.add tbl key a;
      a

let pop stack tbl key ~cycles ~checks =
  match !stack with
  | [] -> () (* unbalanced exit: profiling was enabled mid-flight *)
  | fr :: rest ->
      stack := rest;
      let total = cycles - fr.pf_cycles0 in
      let tchecks = checks - fr.pf_checks0 in
      let a = acct_of tbl key in
      a.ac_calls <- a.ac_calls + 1;
      a.ac_total_cycles <- a.ac_total_cycles + total;
      a.ac_self_cycles <- a.ac_self_cycles + (total - fr.pf_child_cycles);
      a.ac_self_checks <- a.ac_self_checks + (tchecks - fr.pf_child_checks);
      (match rest with
      | parent :: _ ->
          parent.pf_child_cycles <- parent.pf_child_cycles + total;
          parent.pf_child_checks <- parent.pf_child_checks + tchecks
      | [] -> ())

let fn_enter name ~cycles ~checks =
  if !profiling then push fn_stack name ~cycles ~checks

let fn_exit name ~cycles ~checks =
  if !profiling then pop fn_stack fn_acct name ~cycles ~checks

let sys_enter num ~cycles ~checks =
  if !profiling then push sys_stack (string_of_int num) ~cycles ~checks

let sys_exit num ~cycles ~checks =
  if !profiling then pop sys_stack sys_acct num ~cycles ~checks

type prow = {
  p_name : string;
  p_calls : int;
  p_self_cycles : int;
  p_total_cycles : int;
  p_self_checks : int;
}

let rows_of tbl render_key =
  let rows =
    Hashtbl.fold
      (fun key a acc ->
        { p_name = render_key key; p_calls = a.ac_calls;
          p_self_cycles = a.ac_self_cycles;
          p_total_cycles = a.ac_total_cycles;
          p_self_checks = a.ac_self_checks }
        :: acc)
      tbl []
  in
  List.sort
    (fun x y ->
      match compare y.p_self_cycles x.p_self_cycles with
      | 0 -> compare x.p_name y.p_name
      | c -> c)
    rows

let fn_report () = rows_of fn_acct (fun k -> k)
let sys_report () = rows_of sys_acct (fun n -> "syscall " ^ string_of_int n)

let attributed_self_cycles tbl =
  Hashtbl.fold (fun _ a acc -> acc + a.ac_self_cycles) tbl 0

let fn_self_cycles () = attributed_self_cycles fn_acct
let sys_self_cycles () = attributed_self_cycles sys_acct

(* The host's speed, measured alongside the workload.

   Other tenants of a shared host slow everything on it down, in spells
   of seconds and in phases of many minutes that halve the speed of a
   whole run.  A fixed integer loop, independent of the code under test,
   is timed before every set-up and every batch; its fastest moments
   (the 10th percentile of its slice times) say how fast the host ran
   while the workload's fastest batches ran.  Host-time metrics are
   divided by that time over [reference_ms], the loop's time on an idle
   host, so a run in a slow phase reads like a run in a fast one, while a
   change to the code under test, which the loop does not run, still
   shows in full. *)

let reference_ms = 3.0
let slices = ref []

let slice () =
  let t0 = Span.now () in
  let acc = ref 0 in
  for i = 0 to 2_000_000 do
    acc := !acc + (i * i mod 7)
  done;
  ignore (Sys.opaque_identity !acc);
  slices := float_of_int (Span.now () - t0) *. 1e-6 :: !slices

(* The loop's time in the host's fast moments, in ms. *)
let fast_ms () =
  let a = Array.of_list !slices in
  Array.sort compare a;
  a.(max 0 (int_of_float (Float.ceil (0.1 *. float_of_int (Array.length a))) - 1))

(* How many times slower than idle the host ran: host times are divided
   by it, rates multiplied. *)
let slowdown () = fast_ms () /. reference_ms

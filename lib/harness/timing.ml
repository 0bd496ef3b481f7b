type sample = { s_per_op_ns : float }

(* Nanoseconds on the monotonic clock, which never steps. *)
let now () = Int64.to_float (Monotonic_clock.now ())

let measure ?(batches = 7) ?(reps = 50) f =
  (* Warm up caches and the allocator paths. *)
  f ();
  let times =
    List.init batches (fun _ ->
        let t0 = now () in
        for _ = 1 to reps do
          f ()
        done;
        (now () -. t0) /. float_of_int reps)
  in
  let sorted = List.sort compare times in
  { s_per_op_ns = List.nth sorted (batches / 2) }

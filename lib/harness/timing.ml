type sample = { s_per_op_ns : float }

(* Nanoseconds on the monotonic clock, which never steps. *)
let now () = Int64.to_float (Monotonic_clock.now ())

(* Per-op nanoseconds of one batch of [reps] calls. *)
let batch ~reps f =
  let t0 = now () in
  for _ = 1 to reps do
    f ()
  done;
  (now () -. t0) /. float_of_int reps

let median l = List.nth (List.sort compare l) (List.length l / 2)

let measure ?(batches = 7) ?(reps = 50) f =
  (* Warm up caches and the allocator paths. *)
  f ();
  { s_per_op_ns = median (List.init batches (fun _ -> batch ~reps f)) }

type pair = { p_base_ns : float; p_test_ns : float; p_ratio : float }

let paired ~batches ~reps base test =
  base ();
  test ();
  let pairs =
    List.init batches (fun _ ->
        let b = batch ~reps base in
        (b, batch ~reps test))
  in
  {
    p_base_ns = median (List.map fst pairs);
    p_test_ns = median (List.map snd pairs);
    p_ratio = median (List.map (fun (b, t) -> b /. t) pairs);
  }

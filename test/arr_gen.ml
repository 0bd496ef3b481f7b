(* Random array-heavy MiniC programs, shared by the range-elision and
   pool-certification properties (test_safety) and the CFG reuse test
   (test_ir). *)

(* Random arithmetic over a, b, c with non-trapping operators (same shape
   as the test_engines generator). *)
let rec gen_expr rng depth =
  if depth = 0 then
    match Random.State.int rng 4 with
    | 0 -> "a"
    | 1 -> "b"
    | 2 -> "c"
    | _ -> string_of_int (Random.State.int rng 2000 - 1000)
  else
    let l = gen_expr rng (depth - 1) and r = gen_expr rng (depth - 1) in
    match Random.State.int rng 7 with
    | 0 -> Printf.sprintf "(%s + %s)" l r
    | 1 -> Printf.sprintf "(%s - %s)" l r
    | 2 -> Printf.sprintf "(%s * %s)" l r
    | 3 -> Printf.sprintf "(%s & %s)" l r
    | 4 -> Printf.sprintf "(%s | %s)" l r
    | 5 -> Printf.sprintf "(%s ^ %s)" l r
    | _ -> Printf.sprintf "(%s < %s ? %s : %s)" l r l r

(* Array-heavy programs: loop-guarded indexes the interval analysis can
   certify, a clamp-guarded index, a masked index, and (sometimes) a raw
   parameter index that must keep its check and may trap. *)
let program seed =
  let rng = Random.State.make [| seed |] in
  let e1 = gen_expr rng 2 in
  let e2 = gen_expr rng 2 in
  let mask = (1 lsl (1 + Random.State.int rng 6)) - 1 in
  let raw = Random.State.int rng 2 = 0 in
  Printf.sprintf
    "int tbl[64];\n\
     int f(int a, int b) {\n\
    \  int c = %s;\n\
    \  long acc = 0;\n\
    \  for (long i = 0; i < 64; i = i + 1) tbl[i] = (int)(i + c);\n\
    \  for (long i = 0; i < 64; i = i + 1) acc = acc + tbl[i];\n\
    \  long j = (long)(%s);\n\
    \  if (j < 0) j = 0;\n\
    \  if (j > 63) j = 63;\n\
    \  acc = acc + tbl[j];\n\
    \  long k = (long)a & %d;\n\
    \  acc = acc + tbl[k];\n\
    \  %s\n\
    \  return (int)acc;\n\
     }"
    e1 e2 mask
    (if raw then "if (a > 100) acc = acc + tbl[b];" else "")

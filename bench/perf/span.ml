(* Host-time spans recorded by the benchmark around its calls into each
   layer.  A span has a name, a start and an end on the monotonic clock,
   the span that was open when it began (its parent) and the id of the
   workload op it belongs to.  Spans are kept in memory in flat arrays,
   so recording one allocates nothing on the hot path, and are exported
   when the run ends. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Recording is off until [enable]: [with_span] then just runs its body,
   which keeps the untraced run free of span bookkeeping. *)
let on = ref false

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_of_id = ref [||]
let n = ref 0
let name = ref [||]
let start = ref [||]
let stop = ref [||]
let parent = ref [||]
let op = ref [||]
let stack = ref []

let enable () =
  on := true;
  let cap = 1 lsl 16 in
  List.iter (fun a -> a := Array.make cap 0) [ name; start; stop; parent; op ]

let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_of_id := Array.append !name_of_id [| s |];
      i

let grow () =
  List.iter
    (fun a ->
      let b = Array.make (2 * Array.length !a) 0 in
      Array.blit !a 0 b 0 !n;
      a := b)
    [ name; start; stop; parent; op ]

let top () = match !stack with [] -> -1 | i :: _ -> i

(* Open a span under the innermost open one; it inherits that span's op
   id unless given its own. *)
let open_ ?op:o s =
  if !n = Array.length !name then grow ();
  let i = !n in
  incr n;
  let p = top () in
  !name.(i) <- intern s;
  !parent.(i) <- p;
  !op.(i) <- (match o with Some o -> o | None -> if p < 0 then -1 else !op.(p));
  !start.(i) <- now ();
  stack := i :: !stack;
  i

let close i =
  !stop.(i) <- now ();
  match !stack with
  | j :: rest when j = i -> stack := rest
  | _ -> invalid_arg "Span.close: spans must close innermost first"

let with_span ?op s f =
  if not !on then f ()
  else begin
    let i = open_ ?op s in
    match f () with
    | r ->
        close i;
        r
    | exception e ->
        close i;
        raise e
  end

let span_name i = !name_of_id.(!name.(i))
let duration i = !stop.(i) - !start.(i)
let op_of i = !op.(i)

(* Every recorded name, with the durations of its spans. *)
let durations () =
  let by = Array.make (Array.length !name_of_id) [] in
  for i = !n - 1 downto 0 do
    by.(!name.(i)) <- duration i :: by.(!name.(i))
  done;
  Array.to_list (Array.mapi (fun id ds -> (!name_of_id.(id), ds)) by)

(* Self time: a span's duration minus the part its children cover.
   Children never overlap one another, so subtracting their durations is
   exact. *)
let self_times () =
  let self = Array.init !n duration in
  for i = 0 to !n - 1 do
    let p = !parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration i
  done;
  self

type agg = { a_name : string; a_count : int; a_total_ns : int; a_self_ns : int }

(* Per-name totals over every recorded span, in first-seen order. *)
let aggregate () =
  let self = self_times () in
  let k = Array.length !name_of_id in
  let cnt = Array.make k 0 and tot = Array.make k 0 and slf = Array.make k 0 in
  for i = 0 to !n - 1 do
    let id = !name.(i) in
    cnt.(id) <- cnt.(id) + 1;
    tot.(id) <- tot.(id) + duration i;
    slf.(id) <- slf.(id) + self.(i)
  done;
  List.filter
    (fun a -> a.a_count > 0)
    (List.init k (fun id ->
         { a_name = !name_of_id.(id); a_count = cnt.(id); a_total_ns = tot.(id);
           a_self_ns = slf.(id) }))

(* For every span named [root]: the share of its duration covered by the
   self time of its leaf descendants (spans with no children of their
   own).  Time a [root] spends outside any leaf is unattributed. *)
let leaf_coverage root =
  let self = self_times () in
  let has_child = Array.make !n false in
  for i = 0 to !n - 1 do
    if !parent.(i) >= 0 then has_child.(!parent.(i)) <- true
  done;
  let covered = Array.make !n 0 in
  let rec owner i =
    if i < 0 then -1 else if span_name i = root then i else owner !parent.(i)
  in
  for i = 0 to !n - 1 do
    if not has_child.(i) then begin
      let r = owner !parent.(i) in
      if r >= 0 then covered.(r) <- covered.(r) + self.(i)
    end
  done;
  List.filter_map
    (fun i ->
      if span_name i = root && duration i > 0 then
        Some (float_of_int covered.(i) /. float_of_int (duration i))
      else None)
    (List.init !n Fun.id)

(* ---------- Chrome trace-event export ---------- *)

module J = Harness.Jsonout

(* Balanced B/E events for the spans [keep] selects, with timestamps in
   whole microseconds since the first span.  Spans are stored in the
   order they opened, which is a depth-first order of the span tree, so
   a stack of open spans emits every E before a sibling's B.  [keep]
   must keep a span's ancestors whenever it keeps the span. *)
let chrome_events ~pid ~keep =
  let t0 = if !n = 0 then 0 else !start.(0) in
  let us t = J.Int ((t - t0) / 1000) in
  let ev ph i ts =
    J.Obj
      [ ("name", J.Str (span_name i)); ("ph", J.Str ph); ("ts", us ts);
        ("pid", J.Int pid); ("tid", J.Int 1);
        ("args", J.Obj [ ("op", J.Int !op.(i)) ]) ]
  in
  let out = ref [] and open_spans = ref [] in
  let close_to p =
    let rec go () =
      match !open_spans with
      | j :: rest when j <> p ->
          out := ev "E" j !stop.(j) :: !out;
          open_spans := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  for i = 0 to !n - 1 do
    if keep i then begin
      close_to !parent.(i);
      out := ev "B" i !start.(i) :: !out;
      open_spans := i :: !open_spans
    end
  done;
  close_to (-1);
  List.rev !out

(* Parse-side check of an exported trace: every E closes the innermost
   open B of the same name on its thread, and nothing is left open.
   Returns the number of B events. *)
let check_balanced doc =
  let events =
    match J.member "traceEvents" doc with
    | Some l -> J.to_list l
    | None -> raise (J.Parse_error "no traceEvents")
  in
  let stacks = Hashtbl.create 4 in
  let begins = ref 0 in
  List.iter
    (fun e ->
      let str k = match J.member k e with Some v -> J.to_string v | None -> "" in
      let num k = match J.member k e with Some v -> J.to_int v | None -> 0 in
      let key = (num "pid", num "tid") in
      let st = Option.value (Hashtbl.find_opt stacks key) ~default:[] in
      match str "ph" with
      | "B" ->
          incr begins;
          Hashtbl.replace stacks key (str "name" :: st)
      | "E" -> (
          match st with
          | top :: rest when top = str "name" -> Hashtbl.replace stacks key rest
          | _ -> failwith ("unbalanced E event for " ^ str "name"))
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ st -> if st <> [] then failwith ("unclosed span " ^ List.hd st))
    stacks;
  !begins

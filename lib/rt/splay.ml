type 'a node = { n_start : int; n_len : int; n_data : 'a }

type 'a tree = Leaf | Node of 'a tree * 'a node * 'a tree

type 'a t = { mutable root : 'a tree; mutable count : int }

let create () = { root = Leaf; count = 0 }
let size t = t.count
let clear t =
  t.root <- Leaf;
  t.count <- 0

(* Top-down splay as a partition: split [t] into the subtree of nodes with
   start <= pivot and the subtree of nodes with start > pivot, performing
   the zig-zig/zig-zag restructuring along the search path. *)
let ncomparisons = ref 0

let rec partition pivot t =
  match t with
  | Leaf -> (Leaf, Leaf)
  | Node (l, x, r) -> (
      incr ncomparisons;
      if x.n_start <= pivot then
        match r with
        | Leaf -> (t, Leaf)
        | Node (rl, y, rr) ->
            if y.n_start <= pivot then
              let small, big = partition pivot rr in
              (Node (Node (l, x, rl), y, small), big)
            else
              let small, big = partition pivot rl in
              (Node (l, x, small), Node (big, y, rr))
      else
        match l with
        | Leaf -> (Leaf, t)
        | Node (ll, y, lr) ->
            if y.n_start <= pivot then
              let small, big = partition pivot lr in
              (Node (ll, y, small), Node (big, x, r))
            else
              let small, big = partition pivot ll in
              (small, Node (big, y, Node (lr, x, r))))

(* Rotate until the maximum is at the root; tail recursive. *)
let rec splay_max = function
  | Node (l, x, Node (rl, y, rr)) -> splay_max (Node (Node (l, x, rl), y, rr))
  | t -> t

let rec splay_min = function
  | Node (Node (ll, y, lr), x, r) -> splay_min (Node (ll, y, Node (lr, x, r)))
  | t -> t

let join small big =
  match splay_max small with
  | Leaf -> big
  | Node (l, m, Leaf) -> Node (l, m, big)
  | Node _ -> assert false

let insert t ~start ~len data =
  if len <= 0 then invalid_arg "Splay.insert: non-positive length";
  let small, big = partition start t.root in
  (* Overlap checks: the greatest range starting <= start must end before
     [start]; the least range starting > start must begin at or after
     [start + len]. *)
  (match splay_max small with
  | Node (l, m, Leaf) ->
      if m.n_start + m.n_len > start then
        invalid_arg
          (Printf.sprintf
             "Splay.insert: [%d,+%d) overlaps existing [%d,+%d)" start len
             m.n_start m.n_len);
      ignore l
  | _ -> ());
  (match splay_min big with
  | Node (Leaf, m, _) ->
      if m.n_start < start + len then
        invalid_arg
          (Printf.sprintf
             "Splay.insert: [%d,+%d) overlaps existing [%d,+%d)" start len
             m.n_start m.n_len)
  | _ -> ());
  t.root <- Node (small, { n_start = start; n_len = len; n_data = data }, big);
  t.count <- t.count + 1

let remove t ~start =
  let small, big = partition (start - 1) t.root in
  match splay_min big with
  | Node (Leaf, m, r) when m.n_start = start ->
      t.root <- join small r;
      t.count <- t.count - 1;
      Some m
  | b ->
      t.root <- join small b;
      None

let find_containing t addr =
  let small, big = partition addr t.root in
  match splay_max small with
  | Node (l, m, Leaf) ->
      (* [m] is the greatest range starting at or before [addr]. *)
      t.root <- Node (l, m, big);
      if addr < m.n_start + m.n_len then Some m else None
  | _ ->
      t.root <- big;
      None

let rec iter_tree g = function
  | Leaf -> ()
  | Node (l, x, r) ->
      iter_tree g l;
      g x;
      iter_tree g r

let iter t g = iter_tree g t.root

let fold t g init =
  let acc = ref init in
  iter t (fun n -> acc := g !acc n);
  !acc

let to_list t = List.rev (fold t (fun acc n -> n :: acc) [])

let comparisons () = !ncomparisons

let rec depth_tree = function
  | Leaf -> 0
  | Node (l, _, r) -> 1 + max (depth_tree l) (depth_tree r)

let depth t = depth_tree t.root

open Sva_ir

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

(* Sweep cap: a monotone transfer over a finite lattice converges long
   before this; a non-monotone client fails loudly instead of spinning. *)
let max_visits_per_block = 1000

module Make (L : LATTICE) = struct
  type result = {
    input : string -> L.t;
    output : string -> L.t;
    iterations : int;
  }

  let solve ?(entry = L.bottom) ?(edge = fun ~src:_ ~dst:_ fact -> fact)
      ?widen ~transfer (f : Func.t) (cfg : Cfg.t) =
    let blocks = Cfg.reachable cfg in
    let entry_label = (Func.entry f).Func.label in
    let inf : (string, L.t) Hashtbl.t = Hashtbl.create 16 in
    let outf : (string, L.t) Hashtbl.t = Hashtbl.create 16 in
    let get tbl label =
      match Hashtbl.find_opt tbl label with Some v -> v | None -> L.bottom
    in
    let visits = ref 0 in
    let worklist = Queue.create () in
    let queued = Hashtbl.create 16 in
    let enqueue label =
      if Cfg.is_reachable cfg label && not (Hashtbl.mem queued label) then begin
        Hashtbl.replace queued label ();
        Queue.add label worklist
      end
    in
    List.iter enqueue blocks;
    while not (Queue.is_empty worklist) do
      let label = Queue.take worklist in
      Hashtbl.remove queued label;
      incr visits;
      if !visits > max_visits_per_block * List.length blocks then
        failwith ("Dataflow.solve: no fixpoint in " ^ f.Func.f_name);
      let in_fact =
        let flowed =
          List.fold_left
            (fun acc p -> L.join acc (edge ~src:p ~dst:label (get outf p)))
            L.bottom
            (Cfg.predecessors cfg label)
        in
        if label = entry_label then L.join entry flowed else flowed
      in
      (* Widening hook: on revisits the client may extrapolate the new
         input against the previously stored one (infinite-height
         lattices such as intervals converge this way).  The widened
         fact must be >= both arguments. *)
      let in_fact =
        match (widen, Hashtbl.find_opt inf label) with
        | Some w, Some old -> w ~label ~old ~cur:in_fact
        | _ -> in_fact
      in
      Hashtbl.replace inf label in_fact;
      let out_fact = transfer (Func.find_block f label) in_fact in
      if not (L.equal out_fact (get outf label)) then begin
        Hashtbl.replace outf label out_fact;
        List.iter enqueue (Cfg.successors cfg label)
      end
    done;
    { input = get inf; output = get outf; iterations = !visits }
end

module Summaries = struct
  type 'a t = (string, 'a) Hashtbl.t

  let solve cg ~funcs ~init ~equal ~transfer =
    let tbl : 'a t = Hashtbl.create 64 in
    List.iter (fun fn -> Hashtbl.replace tbl fn (init fn)) funcs;
    let worklist = Queue.create () in
    let queued = Hashtbl.create 64 in
    let enqueue fn =
      if Hashtbl.mem tbl fn && not (Hashtbl.mem queued fn) then begin
        Hashtbl.replace queued fn ();
        Queue.add fn worklist
      end
    in
    List.iter enqueue funcs;
    let get fn = try Hashtbl.find tbl fn with Not_found -> init fn in
    let update fn s =
      match Hashtbl.find_opt tbl fn with
      | Some old when not (equal old s) ->
          Hashtbl.replace tbl fn s;
          (* The function itself must be re-examined with its new
             summary, and so must its callers (their view changed). *)
          enqueue fn;
          List.iter enqueue (Callgraph.callers cg fn)
      | Some _ -> ()
      | None -> ()
    in
    while not (Queue.is_empty worklist) do
      let fn = Queue.take worklist in
      Hashtbl.remove queued fn;
      transfer ~get ~update fn
    done;
    tbl

  let get t fn = Hashtbl.find t fn
end

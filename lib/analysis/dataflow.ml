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
    (* Facts, queue marks and block lookups by node number; node 0 is
       the entry block. *)
    let n = Cfg.size cfg and rpo = Cfg.rpo cfg in
    let inf = Array.make n L.bottom and outf = Array.make n L.bottom in
    let seen = Array.make n false and queued = Array.make n false in
    let visits = ref 0 in
    let worklist = Queue.create () in
    (* Only reachable nodes are ever queued: the seed is the reverse
       postorder, and a successor of a reachable node is reachable. *)
    let enqueue i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.add i worklist
      end
    in
    Array.iter enqueue rpo;
    while not (Queue.is_empty worklist) do
      let i = Queue.take worklist in
      queued.(i) <- false;
      incr visits;
      if !visits > max_visits_per_block * Array.length rpo then
        failwith ("Dataflow.solve: no fixpoint in " ^ f.Func.f_name);
      let label = Cfg.label cfg i in
      let in_fact =
        let flowed =
          Array.fold_left
            (fun acc p ->
              L.join acc (edge ~src:(Cfg.label cfg p) ~dst:label outf.(p)))
            L.bottom (Cfg.pred cfg i)
        in
        if i = 0 then L.join entry flowed else flowed
      in
      (* Widening hook: on revisits the client may extrapolate the new
         input against the previously stored one (infinite-height
         lattices such as intervals converge this way).  The widened
         fact must be >= both arguments. *)
      let in_fact =
        match widen with
        | Some w when seen.(i) -> w ~label ~old:inf.(i) ~cur:in_fact
        | _ -> in_fact
      in
      inf.(i) <- in_fact;
      seen.(i) <- true;
      let out_fact = transfer (Cfg.block cfg i) in_fact in
      if not (L.equal out_fact outf.(i)) then begin
        outf.(i) <- out_fact;
        Array.iter enqueue (Cfg.succ cfg i)
      end
    done;
    let get facts label =
      match Cfg.index cfg label with
      | i -> facts.(i)
      | exception Not_found -> L.bottom
    in
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

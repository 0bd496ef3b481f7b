open Sva_ir
open Sva_analysis

(* Targets must exist, be defined, and match the call's static signature
   so the generated direct calls verify. *)
let compatible_targets (m : Irmod.t) (callee_ty : Ty.t) targets =
  match callee_ty with
  | Ty.Ptr (Ty.Func (_, _, _) as fty) ->
      let ok fn =
        match Irmod.find_func m fn with
        | Some f -> Ty.equal (Func.func_ty f) fty
        | None -> false
      in
      if List.for_all ok targets then Some fty else None
  | _ -> None

(* Rewrite one indirect call site into a compare-and-branch chain. *)
let rewrite_site (m : Irmod.t) (f : Func.t) (b : Func.block)
    (call : Instr.t) callee args targets fty =
  let before, after =
    let rec split acc = function
      | [] -> (List.rev acc, [])
      | (i : Instr.t) :: rest ->
          if i.Instr.id = call.Instr.id then (List.rev acc, rest)
          else split (i :: acc) rest
    in
    split [] b.Func.insns
  in
  let orig_term = b.Func.term in
  (* the call's register id is unique within the function: a safe label
     namespace for all blocks this rewrite creates *)
  let prefix = Printf.sprintf "dv%d" call.Instr.id in
  let join_l = prefix ^ ".join" in
  let trap_l = prefix ^ ".trap" in
  (* one block per target *)
  let target_blocks =
    List.map
      (fun fn ->
        let l = prefix ^ "." ^ fn in
        let ci =
          { Instr.id = Func.fresh_reg f; nm = "dv"; ty = call.Instr.ty;
            kind = Instr.Call (Value.Fn (fn, fty), args) }
        in
        ( { Func.label = l; insns = [ ci ]; term = Instr.Jmp join_l },
          (l, Instr.result ci) ))
      targets
  in
  (* the comparison chain: each test block compares the callee against one
     target and branches either to its direct-call block or onward *)
  let test_blocks = ref [] in
  let rec build_tests targets =
    match targets with
    | [] -> trap_l
    | fn :: rest ->
        let rest_entry = build_tests rest in
        let target_label =
          let blk, _ =
            List.find
              (fun ((blk : Func.block), _) ->
                match blk.Func.insns with
                | [ { Instr.kind = Instr.Call (Value.Fn (n, _), _); _ } ] ->
                    n = fn
                | _ -> false)
              target_blocks
          in
          blk.Func.label
        in
        let cmp =
          { Instr.id = Func.fresh_reg f; nm = "dvcmp"; ty = Ty.i1;
            kind = Instr.Icmp (Instr.Eq, callee, Value.Fn (fn, fty)) }
        in
        let l = Printf.sprintf "%s.t%d" prefix (List.length rest) in
        test_blocks :=
          { Func.label = l; insns = [ cmp ];
            term =
              Instr.Br (Option.get (Instr.result cmp), target_label, rest_entry) }
          :: !test_blocks;
        l
  in
  let chain_entry = build_tests targets in
  (* trap block: an empty funccheck always fires the CFI violation *)
  let trap_blk =
    { Func.label = trap_l;
      insns =
        [ { Instr.id = Func.fresh_reg f; nm = ""; ty = Ty.Void;
            kind = Instr.Intrinsic ("pchk_funccheck", [ callee ]) } ];
      term = Instr.Unreachable }
  in
  (* join block: the original result register becomes a phi *)
  let join_insns =
    match call.Instr.ty with
    | Ty.Void -> after
    | _ ->
        let incoming =
          List.map
            (fun ((blk : Func.block), (_, res)) ->
              (blk.Func.label, Option.get res))
            target_blocks
        in
        { call with Instr.kind = Instr.Phi incoming } :: after
  in
  let join_blk = { Func.label = join_l; insns = join_insns; term = orig_term } in
  b.Func.insns <- before;
  b.Func.term <- Instr.Jmp chain_entry;
  f.Func.f_blocks <-
    f.Func.f_blocks
    @ List.rev !test_blocks
    @ List.map fst target_blocks
    @ [ trap_blk; join_blk ];
  ignore m

let max_targets = 4

let run ?poolcert (m : Irmod.t) (pa : Pointsto.result) =
  let count = ref 0 in
  let note_dv fname (i : Instr.t) callee targets =
    match poolcert with
    | None -> ()
    | Some b ->
        Poolev.record_dv b
          {
            Poolev.dc_func = fname;
            dc_instr = i.Instr.id;
            dc_mp =
              Option.value ~default:(-1) (Poolev.mp_of_value b fname callee);
            dc_targets = targets;
          }
  in
  List.iter
    (fun (f : Func.t) ->
      if
        (not (Func.has_attr f Func.Noanalyze))
        && Func.has_attr f Func.Callsig_assert
      then begin
        let again = ref true in
        let done_ids = Hashtbl.create 4 in
        while !again do
          again := false;
          let site =
            List.find_map
              (fun (b : Func.block) ->
                List.find_map
                  (fun (i : Instr.t) ->
                    match i.Instr.kind with
                    | Instr.Call ((Value.Reg _ as callee), args)
                      when not (Hashtbl.mem done_ids i.Instr.id) -> (
                        let targets =
                          Pointsto.callsite_targets pa ~fname:f.Func.f_name
                            i.Instr.id
                        in
                        let complete =
                          match Pointsto.value_node pa ~fname:f.Func.f_name callee with
                          | Some n -> Pointsto.is_complete n
                          | None -> false
                        in
                        if
                          complete && targets <> []
                          && List.length targets <= max_targets
                        then
                          match compatible_targets m (Value.ty callee) targets with
                          | Some fty -> Some (b, i, callee, args, targets, fty)
                          | None -> None
                        else None)
                    | _ -> None)
                  b.Func.insns)
              f.Func.f_blocks
          in
          match site with
          | Some (b, i, callee, args, targets, fty) ->
              Hashtbl.replace done_ids i.Instr.id ();
              note_dv f.Func.f_name i callee targets;
              rewrite_site m f b i callee args targets fty;
              incr count;
              again := true
          | None -> ()
        done
      end)
    m.Irmod.m_funcs;
  if !count > 0 then Verify.check m;
  !count

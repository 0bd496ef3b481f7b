type pipeline = Gcc_like | Llvm_like

let run_no_verify p (m : Irmod.t) =
  (* Unreachable-block removal must precede SSA construction: the front
     end parks dead statements in unreachable blocks, which the renaming
     walk (driven by the dominator tree) never visits. *)
  ignore (Dce.run m);
  ignore (Mem2reg.run m);
  (match p with
  | Gcc_like ->
      ignore (Constfold.run m);
      ignore (Dce.run m)
  | Llvm_like ->
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds < 8 do
        incr rounds;
        let n = Constfold.run m + Cse.run m + Dce.run m in
        changed := n > 0
      done)

let run p m =
  run_no_verify p m;
  Verify.check m

(* Trusted pool-safety certificate checker.  Re-verifies the Poolev
   bundle produced by the untrusted points-to layer against an
   independent scan of the instrumented IR: membership maps via the same
   local rules as Tyck, type-homogeneity witnesses against a fresh
   evidence and use scan, completeness verdicts against a re-derived
   escape frontier closed over the pool points-to edges, and elision
   records against the sites they name. *)

open Sva_ir
open Sva_analysis
open Sva_safety
module P = Pointsto

module SiteSet = Set.Make (struct
  type t = string * int

  let compare = compare
end)

(* Mirror of the analysis's node_of creation rule: which values carry a
   partition at all.  Only used where the analysis creates nodes on
   demand (inttoptr of a tracked integer); everywhere else the bundle's
   membership tables are the mirror of the final node environment. *)
let tracked_value (cfg : P.config) (v : Value.t) =
  match v with
  | Value.Reg (_, Ty.Ptr _, _) | Value.Global _ | Value.Fn _ -> true
  | Value.Reg (_, Ty.Int 64, _) -> cfg.P.track_int_ptrs
  | _ -> false

let reduce_ty = function Ty.Array (e, _) -> e | t -> t

(* Per-metapool accumulator table. *)
let tbl_add tbl key v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (v :: prev)

let check ?(config = P.default_config) (m : Irmod.t) (b : Poolev.bundle) :
    Cert.error list =
  let errors = ref [] in
  let err fname instr fmt =
    Printf.ksprintf
      (fun s ->
        errors := { Cert.func = fname; instr; msg = s } :: !errors)
      fmt
  in
  let cert_err fmt = err "<bundle>" (-1) fmt in
  let mp fname v = Poolev.mp_of_value b fname v in
  let trusted = Tyck.trusted_of_config config in
  let analyzed name =
    match Irmod.find_func m name with
    | Some f -> not (Func.has_attr f Func.Noanalyze)
    | None -> false
  in

  (* ---- certificate indexes (uniqueness is structural) ---- *)
  let comp_tbl : (int, Poolev.comp_cert) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (c : Poolev.comp_cert) ->
      if Hashtbl.mem comp_tbl c.Poolev.cc_mp then
        cert_err "duplicate completeness certificate for MP%d" c.Poolev.cc_mp
      else Hashtbl.replace comp_tbl c.Poolev.cc_mp c)
    b.Poolev.pb_comp;
  let th_tbl : (int, Poolev.th_cert) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (c : Poolev.th_cert) ->
      if Hashtbl.mem th_tbl c.Poolev.tc_mp then
        cert_err "duplicate type-homogeneity certificate for MP%d"
          c.Poolev.tc_mp
      else Hashtbl.replace th_tbl c.Poolev.tc_mp c)
    b.Poolev.pb_th;
  (* Every metapool the membership maps mention must carry a verdict. *)
  let require_comp mpi =
    if not (Hashtbl.mem comp_tbl mpi) then
      cert_err "MP%d referenced by the membership maps has no completeness \
                certificate"
        mpi
  in
  let seen_mp = Hashtbl.create 64 in
  let note_mp mpi =
    if not (Hashtbl.mem seen_mp mpi) then begin
      Hashtbl.replace seen_mp mpi ();
      require_comp mpi
    end
  in
  Hashtbl.iter (fun _ mpi -> note_mp mpi) b.Poolev.pb_value_mp;
  Hashtbl.iter (fun _ mpi -> note_mp mpi) b.Poolev.pb_global_mp;
  Hashtbl.iter (fun _ mpi -> note_mp mpi) b.Poolev.pb_fn_mp;
  Hashtbl.iter (fun _ mpi -> note_mp mpi) b.Poolev.pb_ret_mp;
  Hashtbl.iter
    (fun a s ->
      note_mp a;
      note_mp s)
    b.Poolev.pb_succ;

  (* ---- membership: the same local rules Tyck enforces ---- *)
  let an =
    {
      Tyck.an_value_mp = b.Poolev.pb_value_mp;
      an_global_mp = b.Poolev.pb_global_mp;
      an_fn_mp = b.Poolev.pb_fn_mp;
      an_ret_mp = b.Poolev.pb_ret_mp;
      an_succ = b.Poolev.pb_succ;
      an_th =
        (let t = Hashtbl.create 16 in
         Hashtbl.iter
           (fun mpi (c : Poolev.th_cert) ->
             Hashtbl.replace t mpi c.Poolev.tc_ty)
           th_tbl;
         t);
    }
  in
  errors := List.rev_append (Tyck.check ~trusted m an) !errors;

  (* ---- the syscall table, re-derived ---- *)
  let syscalls : (int, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      if not (Func.has_attr f Func.Noanalyze) then
        Func.iter_instrs f (fun _ (i : Instr.t) ->
            match i.Instr.kind with
            | Instr.Call
                (Value.Fn (name, _), [ Value.Imm (_, num); Value.Fn (h, _) ])
              when Some name = config.P.syscall_register ->
                Hashtbl.replace syscalls (Int64.to_int num) h
            | Instr.Intrinsic (name, [ Value.Imm (_, num); Value.Fn (h, _) ])
              when Some name = config.P.syscall_register ->
                Hashtbl.replace syscalls (Int64.to_int num) h
            | _ -> ()))
    m.Irmod.m_funcs;

  (* ---- the independent IR scan ---- *)
  (* per metapool *)
  let uses : (int, (string * int) list) Hashtbl.t = Hashtbl.create 64 in
  (* load/store/atomic sites only: the ones an lscheck elision can name *)
  let ls_sites : (string * int, int) Hashtbl.t = Hashtbl.create 256 in
  let evid : (int, (Ty.t * string * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let esc : (int, SiteSet.t) Hashtbl.t = Hashtbl.create 64 in
  let esc_add mpi site =
    let prev =
      Option.value ~default:SiteSet.empty (Hashtbl.find_opt esc mpi)
    in
    Hashtbl.replace esc mpi (SiteSet.add site prev)
  in
  let copy_blocked : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let block_th mpi why =
    if not (Hashtbl.mem copy_blocked mpi) then
      Hashtbl.replace copy_blocked mpi why
  in
  (* user-copy calls with both sides in a pool: resolved after the scan,
     once the evidence table is complete *)
  let user_copy_pairs = ref [] in
  let userspace_seeds = ref [] in
  let indirect_sites : (string * int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (f : Func.t) ->
      if Func.has_attr f Func.Noanalyze then ()
      else begin
        let fname = f.Func.f_name in
        (* interior recomputation: same single forward pass as Tyck *)
        let interior = Hashtbl.create 16 in
        let is_interior = function
          | Value.Reg (id, _, _) -> Hashtbl.mem interior id
          | _ -> false
        in
        let use site ptr ~ls =
          match mp fname ptr with
          | Some mpi ->
              tbl_add uses mpi site;
              if ls then Hashtbl.replace ls_sites site mpi
          | None -> ()
        in
        let evidence site v ty =
          match mp fname v with
          | Some mpi ->
              let sf, si = site in
              tbl_add evid mpi (reduce_ty ty, sf, si)
          | None -> ()
        in
        let escape site v =
          match mp fname v with Some mpi -> esc_add mpi site | None -> ()
        in
        let escape_result site (i : Instr.t) =
          match Instr.result i with
          | Some r -> (
              match mp fname r with
              | Some mpi -> esc_add mpi site
              | None ->
                  err fname i.Instr.id
                    "escaping result carries no metapool qualifier")
          | None -> ()
        in
        Func.iter_instrs f (fun _ (i : Instr.t) ->
            let site = (fname, i.Instr.id) in
            match i.Instr.kind with
            | Instr.Load p ->
                use site p ~ls:true;
                if not (is_interior p) then
                  evidence site p (Ty.pointee (Value.ty p))
            | Instr.Store (_, p) ->
                use site p ~ls:true;
                if not (is_interior p) then
                  evidence site p (Ty.pointee (Value.ty p))
            | Instr.Atomic_cas (p, _, _) | Instr.Atomic_add (p, _) ->
                use site p ~ls:true
            | Instr.Gep (base, idxs) ->
                use site base ~ls:false;
                if not (is_interior base) then
                  evidence site base (Ty.pointee (Value.ty base));
                if
                  P.gep_enters_struct m.Irmod.m_ctx (Value.ty base) idxs
                  || is_interior base
                then Hashtbl.replace interior i.Instr.id ()
            | Instr.Cast ((Instr.Bitcast | Instr.Ptrtoint), x, _) ->
                if is_interior x then Hashtbl.replace interior i.Instr.id ()
            | Instr.Cast (Instr.Inttoptr, x, _) -> (
                match x with
                | Value.Imm (_, v)
                  when config.P.null_small_int_casts
                       && (Int64.abs v < 4096L || Int64.equal v (-1L)) ->
                    ()
                | Value.Imm (_, _) -> escape_result site i
                | x -> if not (tracked_value config x) then escape_result site i)
            | Instr.Alloca (ty, _) -> (
                match Instr.result i with
                | Some r -> evidence site r ty
                | None -> ())
            | Instr.Malloc (ty, _) -> (
                match Instr.result i with
                | Some r when not (Ty.equal ty Ty.i8) -> evidence site r ty
                | _ -> ())
            | Instr.Intrinsic
                (("sva_pseudo_alloc" | "pchk_pseudo_alloc"), _) -> (
                match Instr.result i with
                | Some r -> evidence site r Ty.i8
                | None -> ())
            | Instr.Intrinsic ("sva_user_base", _) -> (
                match Instr.result i with
                | Some r -> (
                    evidence site r Ty.i8;
                    match mp fname r with
                    | Some mpi -> userspace_seeds := mpi :: !userspace_seeds
                    | None -> ())
                | None -> ())
            | Instr.Call (Value.Fn (name, _), args) ->
                if Allocdecl.find config.P.allocators name <> None then ()
                else if Allocdecl.find_free config.P.allocators name <> None
                then ()
                else if List.mem name config.P.user_copy_functions then (
                  match args with
                  | dst :: src :: _ -> (
                      match (mp fname dst, mp fname src) with
                      | Some a, None | None, Some a ->
                          block_th a
                            (Printf.sprintf
                               "collapsed by a one-sided '%s' copy at \
                                @%s:%d"
                               name fname i.Instr.id)
                      | Some a, Some bmp ->
                          user_copy_pairs :=
                            (site, name, a, bmp) :: !user_copy_pairs
                      | None, None -> ())
                  | _ -> ())
                else if List.mem name config.P.copy_functions then (
                  match args with
                  | dst :: src :: _ -> (
                      match (mp fname dst, mp fname src) with
                      | Some a, None | None, Some a ->
                          block_th a
                            (Printf.sprintf
                               "collapsed by a one-sided '%s' copy at \
                                @%s:%d"
                               name fname i.Instr.id)
                      | _ -> ())
                  | _ -> ())
                else if Some name = config.P.syscall_register then ()
                else if Some name = config.P.syscall_invoke then (
                  match args with
                  | Value.Imm (_, num) :: rest ->
                      if not (Hashtbl.mem syscalls (Int64.to_int num)) then begin
                        List.iter (escape site) rest;
                        escape_result site i
                      end
                  | _ ->
                      List.iter (escape site) args;
                      escape_result site i)
                else if List.mem name config.P.known_externs then ()
                else if P.is_sva_name name then ()
                else if List.mem name trusted then
                  (* declared allocator size functions: the verifier
                     inserts calls to them after the analysis ran *)
                  ()
                else if analyzed name then ()
                else begin
                  List.iter (escape site) args;
                  escape_result site i
                end
            | Instr.Call (callee, _) -> (
                (* indirect call *)
                match mp fname callee with
                | Some mpi -> Hashtbl.replace indirect_sites site mpi
                | None -> ())
            | _ -> ())
      end)
    m.Irmod.m_funcs;

  (* userspace exposure: pointer parameters of registered syscall
     handlers (Section 4.6) *)
  Hashtbl.iter
    (fun _ h ->
      match Irmod.find_func m h with
      | None -> ()
      | Some hf ->
          List.iteri
            (fun idx (_, pty) ->
              if Ty.is_pointer pty then
                match Hashtbl.find_opt b.Poolev.pb_value_mp (h, idx) with
                | Some mpi -> userspace_seeds := mpi :: !userspace_seeds
                | None -> ())
            hf.Func.f_params)
    syscalls;

  (* user-copy pairs: without type evidence on both sides the analysis
     collapses both pools (handle_user_copy), so a TH claim on either is
     unverifiable *)
  List.iter
    (fun ((sf, si), name, a, bmp) ->
      let has_evid mpi =
        match Hashtbl.find_opt evid mpi with
        | Some (_ :: _) -> true
        | _ -> false
      in
      if not (has_evid a && has_evid bmp) then begin
        let why =
          Printf.sprintf
            "'%s' copy at @%s:%d lacks type evidence on one side" name sf si
        in
        block_th a why;
        block_th bmp why
      end)
    !user_copy_pairs;

  (* ---- completeness: seeds closed over the points-to edges ---- *)
  let expected_incomplete = Hashtbl.create 64 in
  let worklist = ref [] in
  let seed mpi =
    if not (Hashtbl.mem expected_incomplete mpi) then begin
      Hashtbl.replace expected_incomplete mpi ();
      worklist := mpi :: !worklist
    end
  in
  Hashtbl.iter (fun mpi sites -> if not (SiteSet.is_empty sites) then seed mpi) esc;
  if not config.P.userspace_valid then List.iter seed !userspace_seeds;
  while !worklist <> [] do
    match !worklist with
    | [] -> ()
    | mpi :: rest -> (
        worklist := rest;
        match Hashtbl.find_opt b.Poolev.pb_succ mpi with
        | Some s -> seed s
        | None -> ())
  done;
  Hashtbl.iter
    (fun mpi (c : Poolev.comp_cert) ->
      let inc = Hashtbl.mem expected_incomplete mpi in
      if c.Poolev.cc_complete && inc then
        cert_err
          "MP%d claimed complete but the partition is exposed (escape or \
           userspace reachability)"
          mpi
      else if (not c.Poolev.cc_complete) && not inc then
        cert_err
          "MP%d claimed incomplete (reduced checks) but no escape reaches it"
          mpi;
      (* frontier witness must equal the checker's site set *)
      let found =
        Option.value ~default:SiteSet.empty (Hashtbl.find_opt esc mpi)
      in
      let listed =
        List.fold_left
          (fun s (st : Poolev.site) ->
            SiteSet.add (st.Poolev.s_func, st.Poolev.s_instr) s)
          SiteSet.empty c.Poolev.cc_frontier
      in
      SiteSet.iter
        (fun (sf, si) ->
          if not (SiteSet.mem (sf, si) listed) then
            err sf si "escape site missing from MP%d's frontier witness" mpi)
        found;
      SiteSet.iter
        (fun (sf, si) ->
          if not (SiteSet.mem (sf, si) found) then
            err sf si "frontier witness lists a site that does not expose MP%d"
              mpi)
        listed)
    comp_tbl;

  (* ---- type-homogeneity certificates ---- *)
  Hashtbl.iter
    (fun mpi (c : Poolev.th_cert) ->
      (match Hashtbl.find_opt esc mpi with
      | Some sites when not (SiteSet.is_empty sites) ->
          let sf, si = SiteSet.min_elt sites in
          err sf si
            "MP%d claimed type-homogeneous but the partition escapes here"
            mpi
      | _ -> ());
      (match Hashtbl.find_opt copy_blocked mpi with
      | Some why ->
          cert_err "MP%d claimed type-homogeneous but was %s" mpi why
      | None -> ());
      let ev = Option.value ~default:[] (Hashtbl.find_opt evid mpi) in
      if ev = [] then
        cert_err
          "MP%d claimed type-homogeneous at %s with no type evidence in the \
           module"
          mpi
          (Ty.to_string c.Poolev.tc_ty)
      else
        List.iter
          (fun (ty, sf, si) ->
            if not (Ty.equal ty c.Poolev.tc_ty) then
              err sf si
                "type-homogeneity certificate for MP%d claims %s but this \
                 site types it as %s"
                mpi
                (Ty.to_string c.Poolev.tc_ty)
                (Ty.to_string ty))
          ev;
      (* use coverage, both directions *)
      let found =
        List.fold_left
          (fun s site -> SiteSet.add site s)
          SiteSet.empty
          (Option.value ~default:[] (Hashtbl.find_opt uses mpi))
      in
      let listed =
        List.fold_left
          (fun s (st : Poolev.site) ->
            SiteSet.add (st.Poolev.s_func, st.Poolev.s_instr) s)
          SiteSet.empty c.Poolev.tc_members
      in
      SiteSet.iter
        (fun (sf, si) ->
          if not (SiteSet.mem (sf, si) listed) then
            err sf si "access to MP%d not covered by its membership witness"
              mpi)
        found;
      SiteSet.iter
        (fun (sf, si) ->
          if not (SiteSet.mem (sf, si) found) then
            err sf si
              "membership witness for MP%d lists a site that does not access \
               it"
              mpi)
        listed)
    th_tbl;

  (* ---- elision records ---- *)
  List.iter
    (fun (e : Poolev.elision) ->
      match e with
      | Poolev.El_th ({ Poolev.s_func = sf; s_instr = si }, mpi) -> (
          (match Hashtbl.find_opt ls_sites (sf, si) with
          | Some site_mp when site_mp = mpi -> ()
          | Some site_mp ->
              err sf si
                "load/store check elided for MP%d but the access is to MP%d"
                mpi site_mp
          | None ->
              err sf si
                "load/store check elided for MP%d at a site that is not a \
                 load, store or atomic access"
                mpi);
          if not (Hashtbl.mem th_tbl mpi) then
            err sf si
              "check elided as type-homogeneous but MP%d has no TH \
               certificate"
              mpi;
          match Hashtbl.find_opt comp_tbl mpi with
          | Some c when c.Poolev.cc_complete -> ()
          | Some _ ->
              err sf si
                "TH elision on MP%d which is certified incomplete (would be \
                 a reduced-check site)"
                mpi
          | None -> ())
      | Poolev.El_reduced ({ Poolev.s_func = sf; s_instr = si }, mpi) -> (
          (match Hashtbl.find_opt ls_sites (sf, si) with
          | Some site_mp when site_mp = mpi -> ()
          | Some site_mp ->
              err sf si
                "reduced-check elision for MP%d but the access is to MP%d"
                mpi site_mp
          | None ->
              err sf si
                "reduced-check elision for MP%d at a site that is not a \
                 load, store or atomic access"
                mpi);
          match Hashtbl.find_opt comp_tbl mpi with
          | Some c when not c.Poolev.cc_complete -> ()
          | Some _ ->
              err sf si
                "reduced-check elision on MP%d which is certified complete"
                mpi
          | None ->
              err sf si "reduced-check elision on MP%d which has no \
                         completeness certificate"
                mpi)
      | Poolev.El_func ({ Poolev.s_func = sf; s_instr = si }, mpi, just) -> (
          (match Hashtbl.find_opt indirect_sites (sf, si) with
          | Some site_mp when site_mp = mpi -> ()
          | Some site_mp ->
              err sf si
                "indirect-call check elided for MP%d but the callee is in \
                 MP%d"
                mpi site_mp
          | None ->
              err sf si
                "indirect-call check elided for MP%d at a site that is not \
                 an indirect call"
                mpi);
          match just with
          | Poolev.Fc_th ->
              if not (Hashtbl.mem th_tbl mpi) then
                err sf si
                  "funccheck elided as type-homogeneous but MP%d has no TH \
                   certificate"
                  mpi
          | Poolev.Fc_incomplete -> (
              match Hashtbl.find_opt comp_tbl mpi with
              | Some c when not c.Poolev.cc_complete -> ()
              | _ ->
                  err sf si
                    "funccheck elided as incomplete but MP%d is not \
                     certified incomplete"
                    mpi)))
    b.Poolev.pb_elisions;

  List.rev !errors

open Sva_ir
module Machine = Sva_hw.Machine
module Mmu = Sva_hw.Mmu
module Svaos = Sva_os.Svaos
module Metapool_rt = Sva_rt.Metapool_rt
module Violation = Sva_rt.Violation

exception Vm_error of string

let vm_err fmt = Printf.ksprintf (fun s -> raise (Vm_error s)) fmt

let code_base = 0x00B00000
let code_stride = 16

(* ---------- pre-decoded program representation ----------

   The hot loop never touches strings: intrinsic names are resolved to a
   variant once at prepare time, branch targets and phi incoming lists to
   block indices and dense arrays, switch case constants pre-truncated to
   the scrutinee width, and funccheck allowed-sets memoized as hash sets
   on first execution. *)

(* Per-call-site memo for [pchk_funccheck] target sets.  Present only when
   every allowed-list operand is a constant ([Value.Fn] — what the
   safety-checking compiler emits).  Function code addresses are assigned
   at module-load time, so the set is built by the compiled tier at
   translation time when every allowed function is loaded, and otherwise
   on first execution. *)
type fc_cache = { mutable fc_set : (int, string) Hashtbl.t option }

type intr =
  | I_pchk_reg_obj
  | I_pchk_drop_obj
  | I_pchk_bounds
  | I_pchk_lscheck
  | I_pchk_funccheck of fc_cache option
  | I_sva_pseudo_alloc
  | I_pchk_pseudo_alloc
  | I_save_integer
  | I_load_integer
  | I_save_fp
  | I_load_fp
  | I_icontext_save
  | I_icontext_load
  | I_icontext_commit
  | I_ipush_function
  | I_was_privileged
  | I_register_syscall
  | I_register_interrupt
  | I_syscall
  | I_mmu_new_space
  | I_mmu_clone_space
  | I_mmu_destroy_space
  | I_mmu_activate
  | I_mmu_map_page
  | I_mmu_unmap_page
  | I_mmu_page_count
  | I_io_console_write
  | I_io_disk_read
  | I_io_disk_write
  | I_io_nic_send
  | I_io_nic_recv
  | I_timer_read
  | I_cli
  | I_sti
  | I_lock_acquire
  | I_lock_release
  | I_heap_base
  | I_heap_size
  | I_user_base
  | I_user_size
  | I_panic
  | I_unknown of string

(* Per-call-site memo for direct calls: resolving a callee name through
   the function table costs a string hash per call otherwise.  Safe to
   memoize because a name, once installed, is never rebound (link_module
   only adds absent names). *)
type 'pf callee_cache = { mutable cc : 'pf cc_state }

and 'pf cc_state = Cc_unresolved | Cc_func of 'pf | Cc_builtin of string

type pinsn =
  | P_base of Instr.t  (* kinds that were already string-free *)
  | P_intr of Instr.t * intr * Value.t array * int * int
      (* instr, decoded intrinsic, args, base cost (native, mediated) *)
  | P_call of Instr.t * Value.t * Value.t array * prepared_func callee_cache

and pterm =
  | P_ret of Value.t option
  | P_jmp of int
  | P_br of Value.t * int * int
  | P_switch of Value.t * (int64 * int) array * int  (* cases pre-truncated *)
  | P_unreachable

and pblock = {
  pb_label : string;
  pb_phis : (int * Value.t option array) array;
      (* (dest reg, incoming value indexed by predecessor block) *)
  pb_body : pinsn array;
  pb_term : pterm;
}

and prepared_func = {
  pf : Func.t;
  pf_blocks : pblock array;
  pf_max_phis : int;
  mutable pf_entry : (int64 list -> int64 option) option;
      (* the compiled entry point, once translated *)
}

(* The compiled tier's page-to-frame cache (see [mem_read_cached]): per
   slot, the virtual page it holds (-1: none), the same page again when a
   store may go through the slot (-1 otherwise), and the page's frame. *)
type frame_cache = {
  fm_gen : Mmu.generation;  (* the MMU's live counter *)
  mutable fm_seen : int;  (* its value when the slots were filled *)
  fm_tag : int array;
  fm_wtag : int array;
  fm_frame : Bytes.t array;
  mutable fm_misses : int;
  mutable fm_flushes : int;
}

type t = {
  mutable im_mod : Irmod.t;
  mutable im_own_mod : bool;
      (* im_mod is this VM's private copy, not the module it was loaded
         from (the first link_module makes the copy) *)
  im_sys : Svaos.t;
  funcs : (string, prepared_func) Hashtbl.t;
  fn_addr : (string, int) Hashtbl.t;
  addr_fn : (int, string) Hashtbl.t;
  g_addr : (string, int) Hashtbl.t;
  g_size : (string, int) Hashtbl.t;
  mps : (int, Metapool_rt.t) Hashtbl.t;
  size_cache : (Ty.t, int) Hashtbl.t;
  mutable g_cursor : int;
  mutable next_code : int;
  mutable sp : int;
  mutable heap_ptr : int;
  free_lists : (int, int list ref) Hashtbl.t;
  alloc_sizes : (int, int) Hashtbl.t;
  mutable live_heap : int;
  mutable nsteps : int;
  mutable ncycles : int;
  mutable limit : int option;
  mutable jit : jit option;
  fcache : frame_cache;
}

(* The compiled engine (Section 3.4's translate-and-cache SVM): when
   installed, [enter] hands a function not yet translated to it, and the
   compiled entry point it returns runs every entry from then on.
   Translation happens on the host and is never charged to the cycle
   model: the compiled code must reproduce the interpreter's modeled
   cycles, steps and check statistics bit-for-bit. *)
and jit = t -> prepared_func -> int64 list -> int64 option

let sizeof t ty =
  match Hashtbl.find_opt t.size_cache ty with
  | Some s -> s
  | None ->
      let s = Ty.sizeof t.im_mod.Irmod.m_ctx ty in
      Hashtbl.replace t.size_cache ty s;
      s

(* The malloc instruction's heap lives in the upper half of the machine
   heap region; the kernel's page allocator owns the lower half. *)
let malloc_base = Machine.heap_base + (Machine.heap_size / 2)

(* ---------- image construction ---------- *)

(* Lay out globals that do not have an address yet (initial load and each
   dynamically linked module); returns the newly placed globals. *)
let layout_globals t =
  let fresh = ref [] in
  List.iter
    (fun (g : Irmod.global) ->
      if not (Hashtbl.mem t.g_addr g.Irmod.g_name) then begin
        let size = max 1 (sizeof t g.Irmod.g_ty) in
        let align = Ty.alignof t.im_mod.Irmod.m_ctx g.Irmod.g_ty in
        t.g_cursor <- (t.g_cursor + align - 1) / align * align;
        Hashtbl.replace t.g_addr g.Irmod.g_name t.g_cursor;
        Hashtbl.replace t.g_size g.Irmod.g_name size;
        t.g_cursor <- t.g_cursor + size;
        fresh := g :: !fresh
      end)
    t.im_mod.Irmod.m_globals;
  if t.g_cursor > Machine.globals_base + Machine.globals_size then
    vm_err "globals do not fit in the globals region";
  List.rev !fresh

let write_global_inits t globals =
  List.iter
    (fun (g : Irmod.global) ->
      let addr = Hashtbl.find t.g_addr g.Irmod.g_name in
      match g.Irmod.g_init with
      | Irmod.Zero -> ()
      | Irmod.Str s -> Machine.write t.im_sys.Svaos.machine ~addr (Bytes.of_string s)
      | Irmod.Ints (ty, ns) ->
          let w = sizeof t ty in
          List.iteri
            (fun i n ->
              Machine.write_int t.im_sys.Svaos.machine ~addr:(addr + (i * w))
                ~width:w n)
            ns
      | Irmod.Ptrs syms ->
          List.iteri
            (fun i sym ->
              let target =
                match Hashtbl.find_opt t.fn_addr sym with
                | Some a -> a
                | None -> (
                    match Hashtbl.find_opt t.g_addr sym with
                    | Some a -> a
                    | None -> vm_err "initializer references unknown symbol @%s" sym)
              in
              Machine.write_int t.im_sys.Svaos.machine ~addr:(addr + (i * 8))
                ~width:8 (Int64.of_int target))
            syms)
    globals

let width_of_value (v : Value.t) =
  match Value.ty v with
  | Ty.Int w -> w
  | Ty.Ptr _ -> 64
  | Ty.Float -> 64
  | t -> vm_err "no integer width for %s" (Ty.to_string t)

(* One row per intrinsic: its name, decoded variant, modeled cost in
   native and in mediated mode (where the privilege boundary adds
   validation, full state spills and integrity tags over the native
   inline sequences), and whether it is an SVA-OS operation the event
   trace names.  Run-time checks emit their own events inside
   [Metapool_rt]; the pure constant accessors mediate nothing.
   [pchk_funccheck]'s variant and cost depend on its operands
   ([decode_intr]); a name with no row costs 2 and fails when run. *)
let intrinsics =
  [
    ("pchk_reg_obj", I_pchk_reg_obj, 22, 22, false);
    ("pchk_drop_obj", I_pchk_drop_obj, 22, 22, false);
    ("pchk_bounds", I_pchk_bounds, 18, 18, false);
    ("pchk_lscheck", I_pchk_lscheck, 14, 14, false);
    ("pchk_funccheck", I_pchk_funccheck None, 6, 6, false);
    ("sva_pseudo_alloc", I_sva_pseudo_alloc, 2, 2, true);
    ("pchk_pseudo_alloc", I_pchk_pseudo_alloc, 22, 22, true);
    ("llva_save_integer", I_save_integer, 22, 54, true);
    ("llva_load_integer", I_load_integer, 22, 54, true);
    ("llva_save_fp", I_save_fp, 10, 22, true);
    ("llva_load_fp", I_load_fp, 10, 22, true);
    ("llva_icontext_save", I_icontext_save, 16, 48, true);
    ("llva_icontext_load", I_icontext_load, 16, 48, true);
    ("llva_icontext_commit", I_icontext_commit, 14, 40, true);
    ("llva_ipush_function", I_ipush_function, 8, 18, true);
    ("llva_was_privileged", I_was_privileged, 4, 4, true);
    ("sva_register_syscall", I_register_syscall, 10, 10, true);
    ("sva_register_interrupt", I_register_interrupt, 10, 10, true);
    ("sva_syscall", I_syscall, 8, 16, true);
    ("sva_mmu_new_space", I_mmu_new_space, 6, 12, true);
    ("sva_mmu_clone_space", I_mmu_clone_space, 12, 24, true);
    ("sva_mmu_destroy_space", I_mmu_destroy_space, 6, 12, true);
    ("sva_mmu_activate", I_mmu_activate, 6, 12, true);
    ("sva_mmu_map_page", I_mmu_map_page, 8, 16, true);
    ("sva_mmu_unmap_page", I_mmu_unmap_page, 8, 16, true);
    ("sva_mmu_page_count", I_mmu_page_count, 6, 6, true);
    ("sva_io_console_write", I_io_console_write, 30, 30, true);
    ("sva_io_disk_read", I_io_disk_read, 30, 30, true);
    ("sva_io_disk_write", I_io_disk_write, 30, 30, true);
    ("sva_io_nic_send", I_io_nic_send, 30, 30, true);
    ("sva_io_nic_recv", I_io_nic_recv, 30, 30, true);
    ("sva_timer_read", I_timer_read, 4, 10, true);
    ("sva_cli", I_cli, 2, 2, true);
    ("sva_sti", I_sti, 2, 2, true);
    ("sva_lock_acquire", I_lock_acquire, 4, 12, true);
    ("sva_lock_release", I_lock_release, 4, 12, true);
    ("sva_heap_base", I_heap_base, 2, 2, false);
    ("sva_heap_size", I_heap_size, 2, 2, false);
    ("sva_user_base", I_user_base, 2, 2, false);
    ("sva_user_size", I_user_size, 2, 2, false);
    ("sva_panic", I_panic, 2, 2, false);
  ]

let intrinsic_rows = Hashtbl.create 64

let svaos_names : (intr, string) Hashtbl.t = Hashtbl.create 64

let () =
  List.iter
    (fun ((name, intr, _, _, svaos) as row) ->
      Hashtbl.replace intrinsic_rows name row;
      if svaos then Hashtbl.replace svaos_names intr name)
    intrinsics

(* The decoded variant of an intrinsic call and its native and mediated
   costs. *)
let decode_intr name (args : Value.t list) =
  match Hashtbl.find_opt intrinsic_rows name with
  | None -> (I_unknown name, 2, 2)
  | Some (_, I_pchk_funccheck _, native, mediated, _) ->
      let const_allowed =
        match args with
        | [] -> false
        | _ :: allowed ->
            List.for_all (function Value.Fn _ -> true | _ -> false) allowed
      in
      let per_args = List.length args / 6 in
      ( I_pchk_funccheck (if const_allowed then Some { fc_set = None } else None),
        native + per_args,
        mediated + per_args )
  | Some (_, intr, native, mediated, _) -> (intr, native, mediated)

(* The trace name of an SVA-OS operation; [None] for every other
   intrinsic. *)
let svaos_name = function
  | I_pchk_funccheck _ | I_unknown _ -> None
  | intr -> Hashtbl.find_opt svaos_names intr

let prepare_func (f : Func.t) =
  let blocks = Array.of_list f.Func.f_blocks in
  let nblocks = Array.length blocks in
  let index = Hashtbl.create nblocks in
  Array.iteri (fun i b -> Hashtbl.replace index b.Func.label i) blocks;
  let resolve lbl =
    match Hashtbl.find_opt index lbl with
    | Some i -> i
    | None -> vm_err "branch to unknown label %%%s in @%s" lbl f.Func.f_name
  in
  let max_phis = ref 0 in
  let prep_block (b : Func.block) =
    (* Leading phis become dense per-predecessor-index value arrays. *)
    let rec split acc = function
      | ({ Instr.kind = Instr.Phi incoming; _ } as i) :: rest ->
          let arr = Array.make nblocks None in
          List.iter
            (fun (lbl, v) ->
              match Hashtbl.find_opt index lbl with
              | Some pi -> if arr.(pi) = None then arr.(pi) <- Some v
              | None -> () (* not a block: can never be the predecessor *))
            incoming;
          split ((i.Instr.id, arr) :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let phis, body = split [] b.Func.insns in
    let decode (i : Instr.t) =
      match i.Instr.kind with
      | Instr.Phi _ -> vm_err "phi after non-phi instruction"
      | Instr.Intrinsic (name, args) ->
          let intr, native, mediated = decode_intr name args in
          P_intr (i, intr, Array.of_list args, native, mediated)
      | Instr.Call (callee, cargs) ->
          P_call (i, callee, Array.of_list cargs, { cc = Cc_unresolved })
      | _ -> P_base i
    in
    let term =
      match b.Func.term with
      | Instr.Ret v -> P_ret v
      | Instr.Jmp l -> P_jmp (resolve l)
      | Instr.Br (c, th, el) -> P_br (c, resolve th, resolve el)
      | Instr.Switch (v, cases, d) ->
          let w = width_of_value v in
          P_switch
            ( v,
              Array.of_list
                (List.map
                   (fun (n, l) -> (Constfold.truncate_to_width w n, resolve l))
                   cases),
              resolve d )
      | Instr.Unreachable -> P_unreachable
    in
    max_phis := max !max_phis (List.length phis);
    {
      pb_label = b.Func.label;
      pb_phis = Array.of_list phis;
      pb_body = Array.of_list (List.map decode body);
      pb_term = term;
    }
  in
  let pf_blocks = Array.map prep_block blocks in
  { pf = f; pf_blocks; pf_max_phis = !max_phis; pf_entry = None }

let fm_bits = 6
let fm_slots = 1 lsl fm_bits

let new_frame_cache mmu =
  let g = Mmu.generation mmu in
  {
    fm_gen = g;
    fm_seen = g.Mmu.gen;
    fm_tag = Array.make fm_slots (-1);
    fm_wtag = Array.make fm_slots (-1);
    fm_frame = Array.make fm_slots Bytes.empty;
    fm_misses = 0;
    fm_flushes = 0;
  }

(* Place and prepare every function of the module not yet installed:
   names, once installed, are never rebound. *)
let install_funcs t =
  List.iter
    (fun (f : Func.t) ->
      if not (Hashtbl.mem t.funcs f.Func.f_name) then begin
        let addr = code_base + (t.next_code * code_stride) in
        t.next_code <- t.next_code + 1;
        Hashtbl.replace t.funcs f.Func.f_name (prepare_func f);
        Hashtbl.replace t.fn_addr f.Func.f_name addr;
        Hashtbl.replace t.addr_fn addr f.Func.f_name
      end)
    t.im_mod.Irmod.m_funcs

let load ?sys ?(metapools = []) (m : Irmod.t) =
  let sys = match sys with Some s -> s | None -> Svaos.create () in
  let t =
    {
      im_mod = m;
      im_own_mod = false;
      im_sys = sys;
      funcs = Hashtbl.create 64;
      fn_addr = Hashtbl.create 64;
      addr_fn = Hashtbl.create 64;
      g_addr = Hashtbl.create 64;
      g_size = Hashtbl.create 64;
      mps = Hashtbl.create 16;
      size_cache = Hashtbl.create 64;
      g_cursor = Machine.globals_base;
      next_code = 0;
      sp = Machine.stack_base;
      heap_ptr = malloc_base;
      free_lists = Hashtbl.create 16;
      alloc_sizes = Hashtbl.create 64;
      live_heap = 0;
      nsteps = 0;
      ncycles = 0;
      limit = None;
      jit = None;
      fcache = new_frame_cache sys.Svaos.mmu;
    }
  in
  install_funcs t;
  List.iter (fun (id, mp) -> Hashtbl.replace t.mps id mp) metapools;
  let fresh = layout_globals t in
  write_global_inits t fresh;
  (* Trace timestamps are this VM's modeled-cycle clock.  Reading a
     mutable field through a closure keeps disabled-mode cost at zero:
     nothing here runs unless an event is actually recorded. *)
  Sva_rt.Trace.clock := (fun () -> t.ncycles);
  t

(* Dynamic module loading: link, place code, lay out and initialize the
   module's globals.  Existing code and data are not disturbed, and
   neither is the module the VM was loaded from: other VMs may be
   loaded from it too. *)
let link_module t (m2 : Irmod.t) =
  if not t.im_own_mod then begin
    t.im_mod <- Irmod.copy t.im_mod;
    t.im_own_mod <- true
  end;
  Irmod.merge t.im_mod m2;
  install_funcs t;
  let fresh = layout_globals t in
  write_global_inits t fresh

let sys t = t.im_sys
let irmod t = t.im_mod
let func_addr t name = Hashtbl.find t.fn_addr name
let func_name t addr = Hashtbl.find_opt t.addr_fn addr
let global_addr t name = Hashtbl.find t.g_addr name
let global_size t name = Hashtbl.find t.g_size name
let metapool t id = Hashtbl.find_opt t.mps id

let metapools t =
  List.sort
    (fun (a, _) (b, _) -> compare (a : int) b)
    (Hashtbl.fold (fun id mp acc -> (id, mp) :: acc) t.mps [])
let steps t = t.nsteps
let reset_steps t = t.nsteps <- 0
let cycles t = t.ncycles
let reset_cycles t = t.ncycles <- 0
let add_cycles t n = t.ncycles <- t.ncycles + n
let set_step_limit t l = t.limit <- l
let heap_live_bytes t = t.live_heap
let set_jit t j = t.jit <- j

(* ---------- memory access ---------- *)

let xlate t ~write addr =
  if Machine.in_kernel_range ~addr then addr
  else Mmu.translate t.im_sys.Svaos.mmu ~addr ~write

let mem_read_int t ~addr ~width =
  Machine.read_int t.im_sys.Svaos.machine ~addr:(xlate t ~write:false addr) ~width

let mem_write_int t ~addr ~width v =
  Machine.write_int t.im_sys.Svaos.machine ~addr:(xlate t ~write:true addr) ~width v

(* ---------- the compiled tier's frame cache ----------

   Compiled loads and stores reach memory through a direct-mapped cache
   from a virtual page number to the host frame backing the page
   (DESIGN.md section 10).  Its rules:
   - a slot is filled only after the uncached access succeeded, so every
     fault raises the uncached path's exception and message;
   - a frame never moves once allocated, but an untouched page's shared
     zero frame is replaced by its first store, so no slot holds it;
   - a slot opens to stores only when a store filled it, which found the
     page writable and made its frame private, and never for an
     SVM-reserved page, whose stores depend on the SVM mode;
   - only widths 1, 2, 4 and 8 inside one page take the fast path;
   - every slot is dropped once the MMU's generation has moved;
   - it charges no modeled cycle.
   The interpreter keeps the uncached accessors above: it is the oracle
   every differential compares the compiled tier against. *)

(* Fibonacci hashing: the top [fm_bits] of the 63 bits of the page number
   times 2^63 / phi.  Every region base is a multiple of 64 pages, so the
   page number's low bits alone would send each region's first page to
   slot 0. *)
let[@inline] fm_slot vpn = (vpn * 0x4F1BBCDCBFA53E0B) lsr (63 - fm_bits)

(* Literals, not Machine's values: the hit path reads no other module. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let () = assert (page_size = Machine.page_size)

let fm_sync c =
  let g = c.fm_gen.Mmu.gen in
  if c.fm_seen <> g then begin
    Array.fill c.fm_tag 0 fm_slots (-1);
    Array.fill c.fm_wtag 0 fm_slots (-1);
    c.fm_seen <- g;
    c.fm_flushes <- c.fm_flushes + 1
  end

let read_miss t ~addr ~width =
  let c = t.fcache in
  fm_sync c;
  c.fm_misses <- c.fm_misses + 1;
  let phys = xlate t ~write:false addr in
  let m = t.im_sys.Svaos.machine in
  let v = Machine.read_int m ~addr:phys ~width in
  (match Machine.frame_of m ~addr:phys ~write:false with
  | Some f ->
      let vpn = addr lsr page_bits in
      let i = fm_slot vpn in
      c.fm_tag.(i) <- vpn;
      c.fm_wtag.(i) <- -1;
      c.fm_frame.(i) <- f
  | None -> ());
  v

let write_miss t ~addr ~width v =
  let c = t.fcache in
  fm_sync c;
  c.fm_misses <- c.fm_misses + 1;
  let phys = xlate t ~write:true addr in
  let m = t.im_sys.Svaos.machine in
  Machine.write_int m ~addr:phys ~width v;
  match Machine.frame_of m ~addr:phys ~write:true with
  | Some f ->
      let vpn = addr lsr page_bits in
      let i = fm_slot vpn in
      c.fm_tag.(i) <- vpn;
      c.fm_wtag.(i) <- vpn;
      c.fm_frame.(i) <- f
  | None -> ()

let mem_read_cached t ~addr ~width =
  let c = t.fcache in
  let vpn = addr lsr page_bits in
  let i = fm_slot vpn in
  let po = addr land page_mask in
  if
    Array.unsafe_get c.fm_tag i = vpn
    && c.fm_seen = c.fm_gen.Mmu.gen
    && po <= page_size - width
  then
    let f = Array.unsafe_get c.fm_frame i in
    match width with
    | 1 -> Int64.of_int (Bytes.get_int8 f po)
    | 2 -> Int64.of_int (Bytes.get_int16_le f po)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le f po)
    | 8 -> Bytes.get_int64_le f po
    | _ -> read_miss t ~addr ~width
  else read_miss t ~addr ~width

let mem_write_cached t ~addr ~width v =
  let c = t.fcache in
  let vpn = addr lsr page_bits in
  let i = fm_slot vpn in
  let po = addr land page_mask in
  if
    Array.unsafe_get c.fm_wtag i = vpn
    && c.fm_seen = c.fm_gen.Mmu.gen
    && po <= page_size - width
  then
    let f = Array.unsafe_get c.fm_frame i in
    match width with
    | 1 -> Bytes.set_int8 f po (Int64.to_int v)
    | 2 -> Bytes.set_int16_le f po (Int64.to_int v)
    | 4 -> Bytes.set_int32_le f po (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le f po v
    | _ -> write_miss t ~addr ~width v
  else write_miss t ~addr ~width v

let frame_cache_counts t = (t.fcache.fm_misses, t.fcache.fm_flushes)

let blit_chunk t s d n =
  Machine.blit t.im_sys.Svaos.machine
    ~src:(xlate t ~write:false s)
    ~dst:(xlate t ~write:true d)
    ~len:n

(* Bulk copy that translates page-by-page for user ranges.  A move to a
   higher, overlapping address walks the chunks from the top down, so no
   chunk re-reads bytes an earlier chunk has already overwritten. *)
let mem_blit t ~src ~dst ~len =
  let page = Machine.page_size in
  let remaining = ref len in
  if dst > src && dst < src + len then
    while !remaining > 0 do
      let s = src + !remaining and d = dst + !remaining in
      let chunk_s = ((s - 1) land (page - 1)) + 1 in
      let chunk_d = ((d - 1) land (page - 1)) + 1 in
      let chunk = min !remaining (min chunk_s chunk_d) in
      blit_chunk t (s - chunk) (d - chunk) chunk;
      remaining := !remaining - chunk
    done
  else begin
    let s = ref src and d = ref dst in
    while !remaining > 0 do
      let chunk_s = page - (!s mod page) in
      let chunk_d = page - (!d mod page) in
      let chunk = min !remaining (min chunk_s chunk_d) in
      blit_chunk t !s !d chunk;
      s := !s + chunk;
      d := !d + chunk;
      remaining := !remaining - chunk
    done
  end

let mem_fill t ~addr ~len c =
  let remaining = ref len and a = ref addr in
  while !remaining > 0 do
    let chunk = min !remaining (Machine.page_size - (!a mod Machine.page_size)) in
    Machine.fill t.im_sys.Svaos.machine ~addr:(xlate t ~write:true !a) ~len:chunk c;
    a := !a + chunk;
    remaining := !remaining - chunk
  done

(* ---------- malloc/free (the SVA-Core heap instructions) ---------- *)

let heap_alloc t size =
  let size = max 8 ((size + 7) / 8 * 8) in
  let addr =
    match Hashtbl.find_opt t.free_lists size with
    | Some ({ contents = a :: rest } as l) ->
        l := rest;
        a
    | _ ->
        let a = t.heap_ptr in
        if a + size > Machine.heap_base + Machine.heap_size then
          vm_err "malloc heap exhausted";
        t.heap_ptr <- a + size;
        a
  in
  Hashtbl.replace t.alloc_sizes addr size;
  t.live_heap <- t.live_heap + size;
  addr

let heap_free t addr =
  match Hashtbl.find_opt t.alloc_sizes addr with
  | None -> vm_err "free of unknown heap address 0x%x" addr
  | Some size ->
      Hashtbl.remove t.alloc_sizes addr;
      t.live_heap <- t.live_heap - size;
      let l =
        match Hashtbl.find_opt t.free_lists size with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.free_lists size l;
            l
      in
      l := addr :: !l

(* ---------- value evaluation ---------- *)

let ty_width = function
  | Ty.Int w -> max 1 (w / 8)
  | Ty.Float -> 8
  | Ty.Ptr _ -> 8
  | t -> vm_err "scalar access at non-scalar type %s" (Ty.to_string t)

let eval t (regs : int64 array) (v : Value.t) : int64 =
  match v with
  | Value.Reg (id, _, _) -> regs.(id)
  | Value.Imm (Ty.Int w, n) -> Constfold.truncate_to_width w n
  | Value.Imm (_, n) -> n
  | Value.Fimm f -> Int64.bits_of_float f
  | Value.Null _ -> 0L
  | Value.Undef _ -> 0L
  | Value.Global (g, _) -> (
      match Hashtbl.find_opt t.g_addr g with
      | Some a -> Int64.of_int a
      | None -> vm_err "unknown global @%s" g)
  | Value.Fn (f, _) -> (
      match Hashtbl.find_opt t.fn_addr f with
      | Some a -> Int64.of_int a
      | None -> vm_err "unknown function @%s" f)

let to_addr v = Int64.to_int v

(* ---------- gep ---------- *)

let gep_offset t (base_pointee : Ty.t) regs idxs =
  let off = ref 0L in
  let add n = off := Int64.add !off n in
  (match idxs with
  | first :: rest ->
      add (Int64.mul (eval t regs first) (Int64.of_int (sizeof t base_pointee)));
      let rec descend ty = function
        | [] -> ()
        | idx :: more -> (
            match ty with
            | Ty.Array (e, _) ->
                add (Int64.mul (eval t regs idx) (Int64.of_int (sizeof t e)));
                descend e more
            | Ty.Struct sname ->
                let i = Int64.to_int (eval t regs idx) in
                let foff, fty = Ty.field_at t.im_mod.Irmod.m_ctx sname i in
                add (Int64.of_int foff);
                descend fty more
            | _ -> vm_err "gep descends into scalar")
      in
      descend base_pointee rest
  | [] -> vm_err "gep with no indices");
  !off

(* ---------- builtins (external C library functions) ---------- *)

let strlen_limit = 1 lsl 20

(* The byte at [addr] as C's string functions compare it: unsigned. *)
let ubyte t addr = Int64.to_int (mem_read_int t ~addr ~width:1) land 0xff

let builtin t name (args : int64 array) : int64 option =
  let a n = args.(n) in
  (match name with
  | "memcpy" | "memmove" | "memset" | "memcmp" ->
      t.ncycles <- t.ncycles + 4 + (to_addr args.(2) / 8)
  | "strlen" | "strcmp" | "strcpy" -> t.ncycles <- t.ncycles + 8
  | _ -> ());
  match name with
  | "memcpy" | "memmove" ->
      mem_blit t ~src:(to_addr (a 1)) ~dst:(to_addr (a 0)) ~len:(to_addr (a 2));
      Some (a 0)
  | "memset" ->
      mem_fill t
        ~addr:(to_addr (a 0))
        ~len:(to_addr (a 2))
        (Char.chr (Int64.to_int (Int64.logand (a 1) 0xffL)));
      Some (a 0)
  | "memcmp" ->
      let x = to_addr (a 0) and y = to_addr (a 1) and n = to_addr (a 2) in
      let rec go i =
        if i >= n then 0L
        else
          let cx = ubyte t (x + i) and cy = ubyte t (y + i) in
          if cx = cy then go (i + 1) else if cx < cy then -1L else 1L
      in
      Some (go 0)
  | "strlen" ->
      let p = to_addr (a 0) in
      let rec go i =
        if i > strlen_limit then vm_err "strlen: unterminated string"
        else if mem_read_int t ~addr:(p + i) ~width:1 = 0L then i
        else go (i + 1)
      in
      Some (Int64.of_int (go 0))
  | "strcmp" ->
      let x = to_addr (a 0) and y = to_addr (a 1) in
      let rec go i =
        let cx = ubyte t (x + i) and cy = ubyte t (y + i) in
        if cx <> cy then if cx < cy then -1L else 1L
        else if cx = 0 then 0L
        else go (i + 1)
      in
      Some (go 0)
  | "strcpy" ->
      let d = to_addr (a 0) and s = to_addr (a 1) in
      let rec go i =
        let c = mem_read_int t ~addr:(s + i) ~width:1 in
        mem_write_int t ~addr:(d + i) ~width:1 c;
        if c <> 0L then go (i + 1)
      in
      go 0;
      Some (a 0)
  | _ -> vm_err "call to unknown external function @%s" name

let is_builtin name =
  match name with
  | "memcpy" | "memmove" | "memset" | "memcmp" | "strlen" | "strcmp" | "strcpy" ->
      true
  | _ -> false

(* ---------- intrinsics ---------- *)

let get_mp t id =
  match Hashtbl.find_opt t.mps id with
  | Some mp -> mp
  | None -> vm_err "reference to unknown metapool %d" id

let cls_of_code = function
  | 0 -> Metapool_rt.Heap
  | 1 -> Metapool_rt.Stack
  | 2 -> Metapool_rt.Global
  | 3 -> Metapool_rt.Userspace
  | 4 -> Metapool_rt.Bios
  | c -> vm_err "bad memory class code %d" c

(* Deregister every object starting in [lo, hi) from every pool.  Only
   the trap path's stack unwinding uses it; it charges no check and no
   cycle, and leaves pools without such objects untouched (no splay). *)
let drop_stack_objects t ~lo ~hi =
  Hashtbl.iter
    (fun _ (mp : Metapool_rt.t) ->
      Sva_rt.Splay.fold mp.Metapool_rt.mp_objects
        (fun acc n ->
          let start = n.Sva_rt.Splay.n_start in
          if start >= lo && start < hi then start :: acc else acc)
        []
      |> List.iter (fun start ->
             ignore (Metapool_rt.drop_if_present mp ~start)))
    t.mps

(* Cycle-model constants for the check runtime (DESIGN.md Section 6):
   each splay-tree comparison actually performed costs [splay_cmp_cost];
   a lookup answered by the object cache costs [cache_hit_cost] in total,
   much cheaper than even a single tree comparison. *)
let splay_cmp_cost = 3
let cache_hit_cost = 1

(* The check runtime's lookup work so far, in modeled cycles.  It is
   linear in the two counters, so the difference of two readings prices
   every comparison and cache hit made between them. *)
let meter () =
  (splay_cmp_cost * Sva_rt.Splay.comparisons ())
  + (cache_hit_cost * Sva_rt.Stats.cache_hits ())

(* Charge an intrinsic that has just run: its base cost in the SVA-OS
   mode plus its lookup work since [m0], a [meter ()] reading taken
   before it ran.  The mode is fixed once a machine is instantiated, so
   reading it here equals reading it on entry. *)
let charge t m0 cost_native cost_mediated =
  t.ncycles <-
    t.ncycles
    + (if t.im_sys.Svaos.mode = Svaos.Sva_mediated then cost_mediated
       else cost_native)
    + (meter () - m0)

(* The allowed-target set of a [pchk_funccheck] site: the address of
   each allowed operand ([args] from index 1), named by its [Value.Fn]. *)
let funccheck_set (vargs : Value.t array) (args : int64 array) =
  let s = Hashtbl.create (max 4 (Array.length vargs)) in
  Array.iteri
    (fun k v ->
      if k > 0 then
        let nm = match v with Value.Fn (fn, _) -> fn | _ -> "<addr>" in
        let key = to_addr args.(k) in
        if not (Hashtbl.mem s key) then Hashtbl.add s key nm)
    vargs;
  s

(* Execute a decoded intrinsic on already-evaluated arguments.  [vargs]
   (the original operands) are still needed by [pchk_funccheck], whose
   allowed-set diagnostics use the constant [Value.Fn] names.  Shared by
   the interpreter and the compiled tier (which pre-compiles the operand
   fetches) through [run_intr]. *)
let rec exec_intr t intr (vargs : Value.t array) (args : int64 array) :
    int64 option =
  (* Emitting here (rather than per-tier) is what makes the interpreter
     and the compiled tier produce identical SVA-OS event streams: both
     reach every mediated operation through this one function. *)
  (if !Sva_rt.Trace.active then
     match svaos_name intr with
     | Some nm -> Sva_rt.Trace.emit_svaos nm
     | None -> ());
  let a n = args.(n) in
  let addr n = to_addr (a n) in
  let sys = t.im_sys in
  match intr with
  (* --- run-time checks --- *)
  | I_pchk_reg_obj ->
      let mp = get_mp t (to_addr (a 0)) in
      Metapool_rt.register mp ~cls:(cls_of_code (to_addr (a 3))) ~start:(addr 1)
        ~len:(to_addr (a 2));
      None
  | I_pchk_drop_obj ->
      Metapool_rt.drop (get_mp t (to_addr (a 0))) ~start:(addr 1);
      None
  | I_pchk_bounds ->
      Metapool_rt.boundscheck
        (get_mp t (to_addr (a 0)))
        ~src:(addr 1) ~dst:(addr 2)
        ~access_len:(to_addr (a 3));
      None
  | I_pchk_lscheck ->
      Metapool_rt.lscheck
        (get_mp t (to_addr (a 0)))
        ~addr:(addr 1) ~access_len:(to_addr (a 2));
      None
  | I_pchk_funccheck fc ->
      let target = addr 0 in
      let allowed =
        match fc with
        | Some c -> (
            match c.fc_set with
            | Some s -> s
            | None ->
                let s = funccheck_set vargs args in
                c.fc_set <- Some s;
                s)
        | None -> funccheck_set vargs args
      in
      Metapool_rt.funccheck_hashed ~allowed ~target;
      None
  | I_sva_pseudo_alloc ->
      (* Unchecked build: just manufacture the pointer. *)
      Some (a 0)
  | I_pchk_pseudo_alloc ->
      let mp = get_mp t (to_addr (a 0)) in
      let start = addr 1 and len = to_addr (a 2) in
      (match Metapool_rt.getbounds mp start with
      | Some _ -> () (* already registered *)
      | None -> Metapool_rt.register mp ~cls:Metapool_rt.Bios ~start ~len);
      Some (a 1)
  (* --- Table 1: state save/restore --- *)
  | I_save_integer ->
      Svaos.save_integer sys ~buffer:(addr 0);
      None
  | I_load_integer ->
      Svaos.load_integer sys ~buffer:(addr 0);
      None
  | I_save_fp ->
      Some (if Svaos.save_fp sys ~buffer:(addr 0) ~always:(a 1 <> 0L) then 1L else 0L)
  | I_load_fp ->
      Svaos.load_fp sys ~buffer:(addr 0);
      None
  (* --- Table 2: interrupt contexts --- *)
  | I_icontext_save ->
      Svaos.icontext_save sys ~icp:(addr 0) ~isp:(addr 1);
      None
  | I_icontext_load ->
      Svaos.icontext_load sys ~icp:(addr 0) ~isp:(addr 1);
      None
  | I_icontext_commit ->
      Svaos.icontext_commit sys ~icp:(addr 0);
      None
  | I_ipush_function ->
      Svaos.ipush_function sys ~icp:(addr 0) ~fn:(addr 1) ~arg:(a 2);
      None
  | I_was_privileged ->
      Some (if Svaos.was_privileged sys ~icp:(addr 0) then 1L else 0L)
  (* --- registration and dispatch --- *)
  | I_register_syscall ->
      let handler =
        match func_name t (addr 1) with
        | Some fn -> fn
        | None -> vm_err "sva_register_syscall: bad handler address"
      in
      Svaos.register_syscall sys ~num:(to_addr (a 0)) ~handler;
      None
  | I_register_interrupt ->
      let handler =
        match func_name t (addr 1) with
        | Some fn -> fn
        | None -> vm_err "sva_register_interrupt: bad handler address"
      in
      Svaos.register_interrupt sys ~vector:(to_addr (a 0)) ~handler;
      None
  | I_syscall -> (
      (* Internal system call: dispatch through the registered handler
         using the same mechanism as a userspace trap, minus the privilege
         transition. *)
      match Svaos.syscall_handler sys ~num:(to_addr (a 0)) with
      | Some handler ->
          let rest = Array.to_list (Array.sub args 1 (Array.length args - 1)) in
          let res = call t handler rest in
          Some (Option.value res ~default:0L)
      | None -> Some (-38L) (* -ENOSYS *))
  (* --- MMU --- *)
  | I_mmu_new_space -> Some (Int64.of_int (Svaos.mmu_new_space sys))
  | I_mmu_clone_space ->
      Some (Int64.of_int (Svaos.mmu_clone_space sys ~sid:(to_addr (a 0))))
  | I_mmu_destroy_space ->
      Svaos.mmu_destroy_space sys ~sid:(to_addr (a 0));
      None
  | I_mmu_activate ->
      Svaos.mmu_activate sys ~sid:(to_addr (a 0));
      None
  | I_mmu_map_page ->
      Svaos.mmu_map_page sys ~sid:(to_addr (a 0)) ~vpn:(to_addr (a 1))
        ~ppn:(to_addr (a 2))
        ~writable:(a 3 <> 0L);
      None
  | I_mmu_unmap_page ->
      Svaos.mmu_unmap_page sys ~sid:(to_addr (a 0)) ~vpn:(to_addr (a 1));
      None
  | I_mmu_page_count ->
      Some (Int64.of_int (Svaos.mmu_page_count sys ~sid:(to_addr (a 0))))
  (* --- I/O --- *)
  | I_io_console_write ->
      Svaos.io_console_write sys ~addr:(addr 0) ~len:(to_addr (a 1));
      None
  | I_io_disk_read ->
      Svaos.io_disk_read sys ~block:(to_addr (a 0)) ~addr:(addr 1);
      None
  | I_io_disk_write ->
      Svaos.io_disk_write sys ~block:(to_addr (a 0)) ~addr:(addr 1);
      None
  | I_io_nic_send ->
      Svaos.io_nic_send sys ~proto:(to_addr (a 0)) ~addr:(addr 1)
        ~len:(to_addr (a 2));
      None
  | I_io_nic_recv ->
      Some (Int64.of_int (Svaos.io_nic_recv sys ~addr:(addr 0) ~maxlen:(to_addr (a 1))))
  | I_timer_read -> Some (Svaos.timer_read sys)
  | I_cli ->
      Svaos.cli sys;
      None
  | I_sti ->
      Svaos.sti sys;
      None
  | I_lock_acquire ->
      Svaos.lock_acquire sys ~lock:(to_addr (a 0));
      None
  | I_lock_release ->
      Svaos.lock_release sys ~lock:(to_addr (a 0));
      None
  (* --- constants --- *)
  | I_heap_base -> Some (Int64.of_int (Svaos.heap_base sys))
  | I_heap_size -> Some (Int64.of_int (Svaos.heap_size sys / 2))
    (* lower half only: the upper half belongs to the malloc instruction *)
  | I_user_base -> Some (Int64.of_int (Svaos.user_base sys))
  | I_user_size -> Some (Int64.of_int (Svaos.user_size sys))
  | I_panic -> vm_err "kernel panic: code %Ld" (a 0)
  | I_unknown name -> vm_err "unknown intrinsic @%s" name

(* [exec_intr] with its modeled cost, for both engines: [charge], plus
   the page-table walk that duplicating an MMU space costs. *)
and run_intr t intr vargs args cost_native cost_mediated =
  let m0 = meter () in
  let r = exec_intr t intr vargs args in
  charge t m0 cost_native cost_mediated;
  (match (intr, r) with
  | I_mmu_clone_space, Some sid ->
      t.ncycles <-
        t.ncycles + (2 * Svaos.mmu_page_count t.im_sys ~sid:(Int64.to_int sid))
  | _ -> ());
  r

(* ---------- the main execution loop ---------- *)

and exec_func t (pf : prepared_func) (args : int64 list) : int64 option =
  let f = pf.pf in
  let regs = Array.make (max 1 f.Func.f_next_reg) 0L in
  List.iteri
    (fun i v -> if i < Array.length regs then regs.(i) <- v)
    args;
  let sp_save = t.sp in
  let result = ref None in
  let running = ref true in
  let cur = ref 0 in
  let prev = ref (-1) in
  let phi_scratch = Array.make (max 1 pf.pf_max_phis) 0L in
  while !running do
    let blk = pf.pf_blocks.(!cur) in
    (* Phase 1: evaluate all phis against the predecessor simultaneously. *)
    let nphis = Array.length blk.pb_phis in
    if nphis > 0 then begin
      for k = 0 to nphis - 1 do
        let _, incoming = blk.pb_phis.(k) in
        match (if !prev >= 0 then incoming.(!prev) else None) with
        | Some v -> phi_scratch.(k) <- eval t regs v
        | None ->
            vm_err "phi in %%%s has no incoming for %%%s" blk.pb_label
              (if !prev >= 0 then pf.pf_blocks.(!prev).pb_label else "")
      done;
      for k = 0 to nphis - 1 do
        regs.(fst blk.pb_phis.(k)) <- phi_scratch.(k)
      done
    end;
    t.nsteps <- t.nsteps + nphis;
    t.ncycles <- t.ncycles + nphis;
    (* Phase 2: straight-line instructions. *)
    let body = blk.pb_body in
    for bi = 0 to Array.length body - 1 do
      t.nsteps <- t.nsteps + 1;
      t.ncycles <- t.ncycles + 1;
      (match t.limit with
      | Some l when t.nsteps > l -> vm_err "step limit exceeded"
      | _ -> ());
      match body.(bi) with
      | P_intr (i, intr, vargs, cost_native, cost_mediated) -> (
          match
            run_intr t intr vargs
              (Array.map (eval t regs) vargs)
              cost_native cost_mediated
          with
          | Some v -> if i.Instr.ty <> Ty.Void then regs.(i.Instr.id) <- v
          | None -> ())
      | P_call (i, callee, cargs, cache) -> (
          let argv = Array.to_list (Array.map (eval t regs) cargs) in
          let res =
            match cache.cc with
            | Cc_func cpf -> enter t cpf argv
            | Cc_builtin name -> builtin t name (Array.of_list argv)
            | Cc_unresolved -> (
                match callee with
                | Value.Fn (name, _) -> (
                    match Hashtbl.find_opt t.funcs name with
                    | Some cpf ->
                        cache.cc <- Cc_func cpf;
                        enter t cpf argv
                    | None ->
                        if is_builtin name then begin
                          cache.cc <- Cc_builtin name;
                          builtin t name (Array.of_list argv)
                        end
                        else vm_err "call to undefined function @%s" name)
                | _ -> (
                    let target = to_addr (eval t regs callee) in
                    match func_name t target with
                    | Some name -> dispatch_call t name argv
                    | None ->
                        vm_err "indirect call to non-code address 0x%x" target))
          in
          match res with Some v -> regs.(i.Instr.id) <- v | None -> ())
      | P_base i -> (
        let set v = regs.(i.Instr.id) <- v in
        match i.Instr.kind with
        | Instr.Binop (op, x, y) -> (
            match op with
            | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv ->
                let fx = Int64.float_of_bits (eval t regs x)
                and fy = Int64.float_of_bits (eval t regs y) in
                let r =
                  match op with
                  | Instr.Fadd -> fx +. fy
                  | Instr.Fsub -> fx -. fy
                  | Instr.Fmul -> fx *. fy
                  | _ -> fx /. fy
                in
                set (Int64.bits_of_float r)
            | _ -> (
                let w = width_of_value x in
                match Constfold.eval_binop op w (eval t regs x) (eval t regs y) with
                | Some r -> set r
                | None -> vm_err "division by zero in @%s" f.Func.f_name))
        | Instr.Icmp (op, x, y) ->
            let w = width_of_value x in
            set
              (if Constfold.eval_icmp op w (eval t regs x) (eval t regs y) then 1L
               else 0L)
        | Instr.Alloca (ty, count) ->
            let n = Int64.to_int (eval t regs count) in
            let size = max 1 (sizeof t ty * max 1 n) in
            t.sp <- (t.sp + 15) / 16 * 16;
            if t.sp + size > Machine.stack_base + Machine.stack_size then
              vm_err "kernel stack overflow";
            let addr = t.sp in
            t.sp <- t.sp + size;
            set (Int64.of_int addr)
        | Instr.Load p ->
            let w = ty_width i.Instr.ty in
            set (mem_read_int t ~addr:(to_addr (eval t regs p)) ~width:w)
        | Instr.Store (v, p) ->
            let w = ty_width (Value.ty v) in
            mem_write_int t ~addr:(to_addr (eval t regs p)) ~width:w (eval t regs v)
        | Instr.Gep (base, idxs) ->
            let pointee = Ty.pointee (Value.ty base) in
            let off = gep_offset t pointee regs idxs in
            set (Int64.add (eval t regs base) off)
        | Instr.Cast (op, x, ty) -> (
            let v = eval t regs x in
            match op with
            | Instr.Bitcast | Instr.Inttoptr | Instr.Ptrtoint -> set v
            | Instr.Trunc -> (
                match ty with
                | Ty.Int w -> set (Constfold.truncate_to_width w v)
                | _ -> vm_err "trunc to non-integer")
            | Instr.Sext -> set v
            | Instr.Zext ->
                let sw = width_of_value x in
                set (Constfold.zext_of_width sw v)
            | Instr.Fptosi -> set (Int64.of_float (Int64.float_of_bits v))
            | Instr.Sitofp -> set (Int64.bits_of_float (Int64.to_float v)))
        | Instr.Select (c, x, y) ->
            set (if eval t regs c <> 0L then eval t regs x else eval t regs y)
        | Instr.Malloc (ty, count) ->
            let n = Int64.to_int (eval t regs count) in
            set (Int64.of_int (heap_alloc t (sizeof t ty * max 1 n)))
        | Instr.Free p -> heap_free t (to_addr (eval t regs p))
        | Instr.Atomic_cas (p, e, r) ->
            let w = ty_width (Value.ty e) in
            let addr = to_addr (eval t regs p) in
            let old = mem_read_int t ~addr ~width:w in
            if old = eval t regs e then
              mem_write_int t ~addr ~width:w (eval t regs r);
            set old
        | Instr.Atomic_add (p, d) ->
            let w = ty_width (Value.ty d) in
            let addr = to_addr (eval t regs p) in
            let old = mem_read_int t ~addr ~width:w in
            mem_write_int t ~addr ~width:w (Int64.add old (eval t regs d));
            set old
        | Instr.Membar -> ()
        (* Pre-decoded at prepare time into P_intr / P_call / pb_phis. *)
        | Instr.Intrinsic _ | Instr.Call _ | Instr.Phi _ -> assert false)
    done;
    (* Terminator. *)
    t.nsteps <- t.nsteps + 1;
    t.ncycles <- t.ncycles + 1;
    (match t.limit with
    | Some l when t.nsteps > l -> vm_err "step limit exceeded"
    | _ -> ());
    prev := !cur;
    (match blk.pb_term with
    | P_ret v ->
        result := Option.map (eval t regs) v;
        running := false
    | P_jmp ix -> cur := ix
    | P_br (c, th, el) -> cur := (if eval t regs c <> 0L then th else el)
    | P_switch (v, cases, default) ->
        let x = eval t regs v in
        let n = Array.length cases in
        let rec go k =
          if k >= n then default
          else
            let c, ix = cases.(k) in
            if Int64.equal c x then ix else go (k + 1)
        in
        cur := go 0
    | P_unreachable -> vm_err "reached 'unreachable' in @%s" f.Func.f_name)
  done;
  t.sp <- sp_save;
  !result

(* Engine dispatch: every function entry goes through here.  Without a
   translator installed this is one null test on top of the interpreter.
   With one, a function not yet translated (under AOT, one linked after
   [compile_all]) is translated on its first entry (host work, zero
   modeled cycles), and every entry runs the compiled closure tree. *)
and enter t (pf : prepared_func) (args : int64 list) : int64 option =
  if not !Sva_rt.Trace.profiling then enter_raw t pf args
  else begin
    (* Cycle-attribution profiling: bracket the whole engine dispatch so
       compiled and interpreted entries are charged identically.  The
       frames must balance even when a check traps out of the function. *)
    let name = pf.pf.Func.f_name in
    Sva_rt.Trace.fn_enter name ~cycles:t.ncycles
      ~checks:(Sva_rt.Stats.checks_now ());
    match enter_raw t pf args with
    | r ->
        Sva_rt.Trace.fn_exit name ~cycles:t.ncycles
          ~checks:(Sva_rt.Stats.checks_now ());
        r
    | exception e ->
        Sva_rt.Trace.fn_exit name ~cycles:t.ncycles
          ~checks:(Sva_rt.Stats.checks_now ());
        raise e
  end

and enter_raw t (pf : prepared_func) (args : int64 list) : int64 option =
  match pf.pf_entry with
  | Some compiled -> compiled args
  | None -> (
      match t.jit with
      | None -> exec_func t pf args
      | Some translate ->
          let compiled = translate t pf in
          pf.pf_entry <- Some compiled;
          compiled args)

and dispatch_call t name argv =
  match Hashtbl.find_opt t.funcs name with
  | Some pf -> enter t pf argv
  | None ->
      if is_builtin name then builtin t name (Array.of_list argv)
      else vm_err "call to undefined function @%s" name

and call t name args =
  match Hashtbl.find_opt t.funcs name with
  | Some pf -> (
      let sp0 = t.sp in
      try enter t pf args
      with e ->
        (* A trap aborts the VM invocation: the unwound frames, which
           occupy [sp0, t.sp), never ran their pchk.drop.obj calls.
           Drop their stack objects, or the next frame at that depth
           would overlap them, and unwind the stack allocator. *)
        drop_stack_objects t ~lo:sp0 ~hi:t.sp;
        t.sp <- sp0;
        raise e)
  | None -> vm_err "call to unknown function @%s" name

let call_addr t addr args =
  match func_name t addr with
  | Some name -> call t name args
  | None -> vm_err "call_addr: 0x%x is not a function" addr

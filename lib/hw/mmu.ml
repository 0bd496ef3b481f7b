exception Mmu_fault of int * string

type prot = { p_read : bool; p_write : bool; p_user : bool }

type generation = { mutable gen : int }

type space = {
  sp_id : int;
  sp_pages : (int, int * prot) Hashtbl.t; (* vpn -> (ppn, prot) *)
  sp_gen : generation; (* the owning MMU's *)
}

type t = {
  mutable spaces : space list;
  mutable cur : space option;
  mutable next : int;
  t_gen : generation;
}

let create () = { spaces = []; cur = None; next = 1; t_gen = { gen = 0 } }

let generation t = t.t_gen

let bump g = g.gen <- g.gen + 1

let new_space t =
  let sp = { sp_id = t.next; sp_pages = Hashtbl.create 64; sp_gen = t.t_gen } in
  t.next <- t.next + 1;
  t.spaces <- sp :: t.spaces;
  sp

let clone_space t src =
  let sp = new_space t in
  Hashtbl.iter (fun vpn m -> Hashtbl.replace sp.sp_pages vpn m) src.sp_pages;
  sp

let destroy_space t sp =
  bump t.t_gen;
  t.spaces <- List.filter (fun s -> s.sp_id <> sp.sp_id) t.spaces;
  if t.cur = Some sp then t.cur <- None

let activate t sp =
  bump t.t_gen;
  t.cur <- Some sp

let current t = t.cur

let space_id sp = sp.sp_id

let svm_first_ppn = Machine.svm_base / Machine.page_size
let svm_last_ppn = (Machine.svm_base + Machine.svm_size - 1) / Machine.page_size

let map_page sp ~vpn ~ppn ~prot =
  if ppn >= svm_first_ppn && ppn <= svm_last_ppn then
    raise (Mmu_fault (ppn * Machine.page_size, "mapping SVM-reserved frame"));
  bump sp.sp_gen;
  Hashtbl.replace sp.sp_pages vpn (ppn, prot)

let unmap_page sp ~vpn =
  bump sp.sp_gen;
  Hashtbl.remove sp.sp_pages vpn

let translate t ~addr ~write =
  if Machine.in_kernel_range ~addr then addr
  else
    match t.cur with
    | None -> raise (Mmu_fault (addr, "no active address space"))
    | Some sp -> (
        let vpn = addr / Machine.page_size in
        match Hashtbl.find_opt sp.sp_pages vpn with
        | None -> raise (Mmu_fault (addr, "page not mapped"))
        | Some (ppn, prot) ->
            if write && not prot.p_write then
              raise (Mmu_fault (addr, "write to read-only page"));
            (ppn * Machine.page_size) + (addr mod Machine.page_size))

let page_count sp = Hashtbl.length sp.sp_pages

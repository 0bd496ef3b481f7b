(* Tests for the simulated hardware: machine memory regions, CPU state
   save/restore (Table 1 semantics), the MMU, devices, and the SVA-OS
   layer including interrupt contexts (Table 2). *)

open Sva_hw
module Svaos = Sva_os.Svaos

(* ---------- machine ---------- *)

let test_machine_rw () =
  let m = Machine.create () in
  Machine.write_int m ~addr:Machine.heap_base ~width:8 0x1122334455667788L;
  Alcotest.(check int64) "read back" 0x1122334455667788L
    (Machine.read_int m ~addr:Machine.heap_base ~width:8);
  (* little-endian byte order; narrow reads are canonically sign-extended *)
  Alcotest.(check int64) "low byte (sext 0x88)" (-0x78L)
    (Machine.read_int m ~addr:Machine.heap_base ~width:1);
  (* sign extension of narrow reads *)
  Machine.write_int m ~addr:Machine.heap_base ~width:1 0xffL;
  Alcotest.(check int64) "sext i8" (-1L)
    (Machine.read_int m ~addr:Machine.heap_base ~width:1)

let test_machine_fault_unmapped () =
  let m = Machine.create () in
  List.iter
    (fun addr ->
      match Machine.read m ~addr ~len:4 with
      | _ -> Alcotest.failf "read at 0x%x should fault" addr
      | exception Machine.Hw_fault _ -> ())
    [ 0; 4096; 0xDEADBEEF; Machine.heap_base + Machine.heap_size ]

let test_machine_region_straddle () =
  let m = Machine.create () in
  (* A range crossing out of a region faults even if it starts mapped. *)
  match Machine.read m ~addr:(Machine.bios_base + Machine.bios_size - 2) ~len:8 with
  | _ -> Alcotest.fail "straddling read should fault"
  | exception Machine.Hw_fault _ -> ()

let test_svm_region_protected () =
  let m = Machine.create () in
  (match Machine.write_int m ~addr:Machine.svm_base ~width:8 1L with
  | _ -> Alcotest.fail "kernel store into SVM memory should fault"
  | exception Machine.Hw_fault _ -> ());
  (* ...but the SVM itself may write it. *)
  Machine.with_svm_mode m (fun () ->
      Machine.write_int m ~addr:Machine.svm_base ~width:8 42L);
  Alcotest.(check int64) "svm wrote" 42L
    (Machine.read_int m ~addr:Machine.svm_base ~width:8)

let test_blit_and_fill () =
  let m = Machine.create () in
  Machine.write m ~addr:Machine.heap_base (Bytes.of_string "hello world");
  Machine.blit m ~src:Machine.heap_base ~dst:(Machine.heap_base + 100) ~len:11;
  Alcotest.(check string) "blit" "hello world"
    (Bytes.to_string (Machine.read m ~addr:(Machine.heap_base + 100) ~len:11));
  Machine.fill m ~addr:(Machine.heap_base + 100) ~len:5 'x';
  Alcotest.(check string) "fill" "xxxxx world"
    (Bytes.to_string (Machine.read m ~addr:(Machine.heap_base + 100) ~len:11))

(* ---------- sparse memory vs the eager reference model ---------- *)

(* Reference model of machine memory: each region one eagerly zeroed
   [Bytes.t], found by walking a list.  It is the oracle for the sparse
   [Machine]: the same operations must return the same values, leave the
   same bytes and raise the same faults. *)
module Eager = struct
  type region = { r_name : string; r_base : int; r_size : int; r_bytes : Bytes.t }
  type t = { regions : region list; mutable svm : bool }

  let mk_region name base size =
    { r_name = name; r_base = base; r_size = size; r_bytes = Bytes.make size '\000' }

  let create () =
    {
      regions =
        [
          mk_region "bios" Machine.bios_base Machine.bios_size;
          mk_region "svm" Machine.svm_base Machine.svm_size;
          mk_region "globals" Machine.globals_base Machine.globals_size;
          mk_region "heap" Machine.heap_base Machine.heap_size;
          mk_region "stack" Machine.stack_base Machine.stack_size;
          mk_region "user" Machine.user_base Machine.user_size;
        ];
      svm = false;
    }

  let find_region t addr len =
    let rec go = function
      | [] ->
          raise
            (Machine.Hw_fault
               (addr, Printf.sprintf "access to unmapped address 0x%x" addr))
      | r :: rest ->
          if addr >= r.r_base && addr + len <= r.r_base + r.r_size then r
          else go rest
    in
    if len < 0 then raise (Machine.Hw_fault (addr, "negative access length"));
    go t.regions

  let read t ~addr ~len =
    let r = find_region t addr len in
    Bytes.sub r.r_bytes (addr - r.r_base) len

  let write t ~addr b =
    let len = Bytes.length b in
    let r = find_region t addr len in
    if r.r_name = "svm" && not t.svm then
      raise (Machine.Hw_fault (addr, "kernel store into SVM-reserved memory"));
    Bytes.blit b 0 r.r_bytes (addr - r.r_base) len

  let read_int t ~addr ~width =
    let r = find_region t addr width in
    let off = addr - r.r_base in
    let v =
      match width with
      | 1 -> Int64.of_int (Char.code (Bytes.get r.r_bytes off))
      | 2 -> Int64.of_int (Bytes.get_uint16_le r.r_bytes off)
      | 4 -> Int64.of_int32 (Bytes.get_int32_le r.r_bytes off)
      | 8 -> Bytes.get_int64_le r.r_bytes off
      | _ -> raise (Machine.Hw_fault (addr, "bad access width"))
    in
    match width with
    | 1 -> Int64.shift_right (Int64.shift_left v 56) 56
    | 2 -> Int64.shift_right (Int64.shift_left v 48) 48
    | _ -> v

  let write_int t ~addr ~width v =
    let r = find_region t addr width in
    if r.r_name = "svm" && not t.svm then
      raise (Machine.Hw_fault (addr, "kernel store into SVM-reserved memory"));
    let off = addr - r.r_base in
    match width with
    | 1 -> Bytes.set r.r_bytes off (Char.chr (Int64.to_int (Int64.logand v 0xffL)))
    | 2 -> Bytes.set_uint16_le r.r_bytes off (Int64.to_int (Int64.logand v 0xffffL))
    | 4 -> Bytes.set_int32_le r.r_bytes off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le r.r_bytes off v
    | _ -> raise (Machine.Hw_fault (addr, "bad access width"))

  let blit t ~src ~dst ~len =
    if len > 0 then begin
      let b = read t ~addr:src ~len in
      write t ~addr:dst b
    end

  let fill t ~addr ~len c =
    if len > 0 then begin
      let r = find_region t addr len in
      if r.r_name = "svm" && not t.svm then
        raise (Machine.Hw_fault (addr, "kernel store into SVM-reserved memory"));
      Bytes.fill r.r_bytes (addr - r.r_base) len c
    end

  let with_svm_mode t f =
    let prev = t.svm in
    t.svm <- true;
    Fun.protect ~finally:(fun () -> t.svm <- prev) f
end

type mem_op =
  | Read of int * int
  | Write of int * int * int  (* addr, length, pattern seed (0: zeros) *)
  | Read_int of int * int
  | Write_int of int * int * int64
  | Blit of int * int * int  (* src, dst, len *)
  | Fill of int * int * char
  | Svm of mem_op list  (* run under [with_svm_mode] *)

let rec show_op = function
  | Read (a, n) -> Printf.sprintf "read 0x%x %d" a n
  | Write (a, n, seed) -> Printf.sprintf "write 0x%x %d/%d" a n seed
  | Read_int (a, w) -> Printf.sprintf "read_int 0x%x w%d" a w
  | Write_int (a, w, v) -> Printf.sprintf "write_int 0x%x w%d %Ld" a w v
  | Blit (s, d, n) -> Printf.sprintf "blit 0x%x->0x%x %d" s d n
  | Fill (a, n, c) -> Printf.sprintf "fill 0x%x %d %C" a n c
  | Svm ops -> "svm [" ^ String.concat "; " (List.map show_op ops) ^ "]"

let payload n seed =
  Bytes.init n (fun i -> if seed = 0 then '\000' else Char.chr ((seed + (i * 31)) land 0xff))

type outcome = Got_bytes of string | Got_int of int64 | Done | Fault of int * string

(* Both models through one interface, so each op is interpreted once. *)
type mem = {
  read : addr:int -> len:int -> Bytes.t;
  write : addr:int -> Bytes.t -> unit;
  read_int : addr:int -> width:int -> int64;
  write_int : addr:int -> width:int -> int64 -> unit;
  blit : src:int -> dst:int -> len:int -> unit;
  fill : addr:int -> len:int -> char -> unit;
  svm : (unit -> outcome list) -> outcome list;
}

let sparse_mem m =
  {
    read = Machine.read m;
    write = Machine.write m;
    read_int = Machine.read_int m;
    write_int = Machine.write_int m;
    blit = Machine.blit m;
    fill = Machine.fill m;
    svm = Machine.with_svm_mode m;
  }

let eager_mem e =
  {
    read = Eager.read e;
    write = Eager.write e;
    read_int = Eager.read_int e;
    write_int = Eager.write_int e;
    blit = Eager.blit e;
    fill = Eager.fill e;
    svm = Eager.with_svm_mode e;
  }

let rec run_op mem op =
  let outcome f = try f () with Machine.Hw_fault (a, msg) -> [ Fault (a, msg) ] in
  match op with
  | Svm ops -> mem.svm (fun () -> List.concat_map (run_op mem) ops)
  | Read (addr, len) ->
      outcome (fun () -> [ Got_bytes (Bytes.to_string (mem.read ~addr ~len)) ])
  | Write (addr, len, seed) ->
      outcome (fun () -> mem.write ~addr (payload (max 0 len) seed); [ Done ])
  | Read_int (addr, width) -> outcome (fun () -> [ Got_int (mem.read_int ~addr ~width) ])
  | Write_int (addr, width, v) -> outcome (fun () -> mem.write_int ~addr ~width v; [ Done ])
  | Blit (src, dst, len) -> outcome (fun () -> mem.blit ~src ~dst ~len; [ Done ])
  | Fill (addr, len, c) -> outcome (fun () -> mem.fill ~addr ~len c; [ Done ])

let regions =
  Machine.
    [
      (svm_base, svm_size);
      (bios_base, bios_size);
      (globals_base, globals_size);
      (heap_base, heap_size);
      (stack_base, stack_size);
      (user_base, user_size);
    ]

(* Every page an op may have stored to, if it lies inside a region. *)
let rec stored_pages = function
  | Svm ops -> List.concat_map stored_pages ops
  | Read _ | Read_int _ -> []
  | Write (a, n, _) | Blit (_, a, n) | Fill (a, n, _) | Write_int (a, n, _) ->
      let page = Machine.page_size in
      let first = a land lnot (page - 1) and last = (a + max n 1 - 1) land lnot (page - 1) in
      List.init (((last - first) / page) + 1) (fun i -> first + (i * page))
      |> List.filter (fun p ->
             List.exists (fun (b, s) -> p >= b && p + page <= b + s) regions)

(* Addresses cluster at region and page edges; a case's ops stay near a
   few anchors so they overlap, straddle pages and cross region ends. *)
let gen_anchor =
  QCheck2.Gen.(
    let near x = map (fun d -> x + d) (int_range (-24) 24) in
    frequency
      [
        (3, oneofl regions >>= fun (b, _) -> near b);
        (3, oneofl regions >>= fun (b, s) -> near (b + s));
        ( 4,
          oneofl regions >>= fun (b, s) ->
          int_bound ((s / Machine.page_size) - 1) >>= fun k ->
          near (b + (k * Machine.page_size)) );
        (1, oneofl [ -8; 0; 4096; 0xDEADBEEF; Machine.bios_base + Machine.bios_size + 64 ]);
      ])

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 3) gen_anchor >>= fun anchors ->
    let addr =
      oneofl anchors >>= fun a ->
      frequency
        [
          (4, map (fun d -> a + d) (int_range (-16) 16));
          (2, map (fun d -> a + d) (int_range (-9000) 9000));
          (1, map (fun k -> a + (k * Machine.page_size) - 4) (int_range (-2) 2));
        ]
    in
    let len =
      frequency
        [
          (4, int_range 0 16);
          (2, int_range 4080 4112);
          (2, int_range 0 9000);
          (1, int_range (-16) (-1));
        ]
    in
    let width = oneofl [ 1; 2; 3; 4; 8; 16; 0; -1 ] in
    let value = oneof [ return 0L; int64; map Int64.of_int small_signed_int ] in
    let chr = frequency [ (2, return '\000'); (1, char) ] in
    let seed = frequency [ (1, return 0); (3, int_range 1 255) ] in
    let base =
      frequency
        [
          (3, map2 (fun a n -> Read (a, n)) addr len);
          (3, map3 (fun a n s -> Write (a, n, s)) addr len seed);
          (3, map2 (fun a w -> Read_int (a, w)) addr width);
          (3, map3 (fun a w v -> Write_int (a, w, v)) addr width value);
          (3, map3 (fun s d n -> Blit (s, d, n)) addr addr len);
          (3, map3 (fun a n c -> Fill (a, n, c)) addr len chr);
        ]
    in
    list_size (int_range 1 30)
      (frequency [ (6, base); (1, map (fun l -> Svm l) (list_size (int_range 1 3) base)) ]))

(* One eager machine serves every case (creating 122 MiB per case would
   dominate the test); each case zeroes the pages it may have stored to. *)
let eager = lazy (Eager.create ())

let prop_sparse_matches_eager =
  QCheck2.Test.make ~name:"sparse memory agrees with the eager model" ~count:400
    ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
    gen_ops
    (fun ops ->
      let e = Lazy.force eager in
      let pages = List.sort_uniq compare (List.concat_map stored_pages ops) in
      Fun.protect
        ~finally:(fun () ->
          Eager.with_svm_mode e (fun () ->
              List.iter (fun p -> Eager.fill e ~addr:p ~len:Machine.page_size '\000') pages))
        (fun () ->
          let m = Machine.create () in
          List.iter
            (fun op ->
              let want = run_op (eager_mem e) op and got = run_op (sparse_mem m) op in
              if want <> got then
                QCheck2.Test.fail_reportf "%s: outcomes differ" (show_op op))
            ops;
          List.iter
            (fun p ->
              if Eager.read e ~addr:p ~len:Machine.page_size
                 <> Machine.read m ~addr:p ~len:Machine.page_size
              then QCheck2.Test.fail_reportf "page 0x%x differs" p)
            pages;
          true))

let test_untouched_page_reads_zero () =
  let m = Machine.create () in
  let page = Machine.heap_base + (1000 * Machine.page_size) in
  Machine.write_int m ~addr:(page - 8) ~width:8 (-1L);
  Machine.write_int m ~addr:(page + Machine.page_size) ~width:8 (-1L);
  Alcotest.(check string) "page between two written pages" (String.make 4096 '\000')
    (Bytes.to_string (Machine.read m ~addr:page ~len:Machine.page_size));
  List.iter
    (fun width ->
      Alcotest.(check int64) "scalar" 0L
        (Machine.read_int m ~addr:(Machine.user_base + 4092) ~width))
    [ 1; 2; 4; 8 ]

let test_straddling_scalar () =
  let m = Machine.create () in
  let addr = Machine.stack_base + Machine.page_size - 3 in
  Machine.write_int m ~addr ~width:8 0x8877665544332211L;
  Alcotest.(check int64) "8-byte round trip" 0x8877665544332211L
    (Machine.read_int m ~addr ~width:8);
  Alcotest.(check string) "little-endian across the edge" "\x11\x22\x33\x44\x55\x66\x77\x88"
    (Bytes.to_string (Machine.read m ~addr ~len:8));
  Alcotest.(check int64) "4 bytes across the edge" 0x55443322L
    (Machine.read_int m ~addr:(addr + 1) ~width:4);
  Machine.write_int m ~addr:(Machine.stack_base + Machine.page_size - 1) ~width:2 0xfffeL;
  Alcotest.(check int64) "2 bytes across the edge" (-2L)
    (Machine.read_int m ~addr:(Machine.stack_base + Machine.page_size - 1) ~width:2)

(* In-page scalar accesses allocate only read_int's boxed result (3
   words); region dispatch allocates nothing. *)
let test_scalar_paths_allocate_only_results () =
  let m = Machine.create () in
  let addr = Machine.heap_base + 64 in
  Machine.write_int m ~addr ~width:8 1L;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Machine.write_int m ~addr ~width:8 7L;
    ignore (Sys.opaque_identity (Machine.read_int m ~addr ~width:4))
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_op > 3.5 then
    Alcotest.failf "%.1f minor words per write_int + read_int" per_op

(* Bytes allocated on the OCaml heap by [f]. *)
let allocated f =
  let a0 = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. a0

let test_create_is_cheap () =
  let keep x = ignore (Sys.opaque_identity x) in
  List.iter
    (fun (name, f) ->
      let b = allocated f in
      if b >= 1048576. then Alcotest.failf "%s allocated %.0f bytes" name b)
    [
      ("Machine.create", fun () -> keep (Machine.create ()));
      ("Devices.create", fun () -> keep (Devices.create ()));
      ("Svaos.create", fun () -> keep (Svaos.create ()));
    ]

let test_zero_fill_allocates_no_frame () =
  let m = Machine.create () in
  let len = 64 * Machine.page_size in
  let zero = allocated (fun () -> Machine.fill m ~addr:Machine.heap_base ~len '\000') in
  if zero >= float_of_int Machine.page_size then
    Alcotest.failf "zero fill of untouched pages allocated %.0f bytes" zero;
  let ones = allocated (fun () -> Machine.fill m ~addr:Machine.heap_base ~len '\001') in
  if ones < float_of_int len then
    Alcotest.failf "non-zero fill allocated only %.0f bytes" ones

(* ---------- CPU state (Table 1) ---------- *)

let test_cpu_save_restore () =
  let m = Machine.create () in
  let cpu = Cpu.create () in
  Cpu.scramble cpu ~seed:7;
  let saved = Cpu.create () in
  saved.Cpu.gpr <- Array.copy cpu.Cpu.gpr;
  saved.Cpu.pc <- cpu.Cpu.pc;
  saved.Cpu.flags <- cpu.Cpu.flags;
  Cpu.save_integer cpu m ~addr:Machine.heap_base;
  Cpu.scramble cpu ~seed:99;
  Alcotest.(check bool) "scrambled differs" false (Cpu.equal_integer cpu saved);
  Cpu.load_integer cpu m ~addr:Machine.heap_base;
  Alcotest.(check bool) "restored" true (Cpu.equal_integer cpu saved)

let test_fp_lazy_save () =
  let m = Machine.create () in
  let cpu = Cpu.create () in
  cpu.Cpu.fp_dirty <- false;
  Alcotest.(check bool) "clean fp not saved" false
    (Cpu.save_fp cpu m ~addr:Machine.heap_base ~always:false);
  Alcotest.(check bool) "always saves" true
    (Cpu.save_fp cpu m ~addr:Machine.heap_base ~always:true);
  cpu.Cpu.fpr.(3) <- 2.5;
  cpu.Cpu.fp_dirty <- true;
  Alcotest.(check bool) "dirty fp saved" true
    (Cpu.save_fp cpu m ~addr:Machine.heap_base ~always:false);
  cpu.Cpu.fpr.(3) <- 0.0;
  Cpu.load_fp cpu m ~addr:Machine.heap_base;
  Alcotest.(check (float 0.0)) "fp restored" 2.5 cpu.Cpu.fpr.(3)

(* ---------- MMU ---------- *)

let test_mmu_translate () =
  let mmu = Mmu.create () in
  let sp = Mmu.new_space mmu in
  Mmu.activate mmu sp;
  let vpn = Machine.user_base / Machine.page_size in
  let ppn = vpn + 4 in
  Mmu.map_page sp ~vpn ~ppn ~prot:{ Mmu.p_read = true; p_write = false; p_user = true };
  let va = Machine.user_base + 12 in
  Alcotest.(check int) "translated" ((ppn * Machine.page_size) + 12)
    (Mmu.translate mmu ~addr:va ~write:false);
  (* kernel addresses pass through *)
  Alcotest.(check int) "kernel identity" Machine.heap_base
    (Mmu.translate mmu ~addr:Machine.heap_base ~write:true);
  (* write to read-only page *)
  (match Mmu.translate mmu ~addr:va ~write:true with
  | _ -> Alcotest.fail "write to RO page should fault"
  | exception Mmu.Mmu_fault _ -> ());
  (* unmapped page *)
  match Mmu.translate mmu ~addr:(va + Machine.page_size) ~write:false with
  | _ -> Alcotest.fail "unmapped page should fault"
  | exception Mmu.Mmu_fault _ -> ()

let test_mmu_svm_frame_refused () =
  let mmu = Mmu.create () in
  let sp = Mmu.new_space mmu in
  match
    Mmu.map_page sp
      ~vpn:(Machine.user_base / Machine.page_size)
      ~ppn:(Machine.svm_base / Machine.page_size)
      ~prot:{ Mmu.p_read = true; p_write = true; p_user = true }
  with
  | () -> Alcotest.fail "mapping an SVM frame must be refused"
  | exception Mmu.Mmu_fault _ -> ()

let test_mmu_clone () =
  let mmu = Mmu.create () in
  let sp = Mmu.new_space mmu in
  let vpn = Machine.user_base / Machine.page_size in
  for i = 0 to 9 do
    Mmu.map_page sp ~vpn:(vpn + i) ~ppn:(vpn + i)
      ~prot:{ Mmu.p_read = true; p_write = true; p_user = true }
  done;
  let copy = Mmu.clone_space mmu sp in
  Alcotest.(check int) "pages copied" 10 (Mmu.page_count copy);
  Mmu.unmap_page copy ~vpn;
  Alcotest.(check int) "copy mutated" 9 (Mmu.page_count copy);
  Alcotest.(check int) "original intact" 10 (Mmu.page_count sp)

(* ---------- devices ---------- *)

let test_disk () =
  let d = Devices.create () in
  let block = Bytes.make 512 'z' in
  Devices.disk_write d ~block:5 block;
  Alcotest.(check bytes) "roundtrip" block (Devices.disk_read d ~block:5);
  Alcotest.(check bytes) "unwritten block reads zeros" (Bytes.make 512 '\000')
    (Devices.disk_read d ~block:6);
  (* blocks that straddle frames, on a disk that is not a whole number
     of frames *)
  let odd = Devices.create ~disk_blocks:5 ~block_size:1000 () in
  let last = Bytes.init 1000 (fun i -> Char.chr (i land 0xff)) in
  Devices.disk_write odd ~block:4 last;
  Alcotest.(check bytes) "last block roundtrip" last (Devices.disk_read odd ~block:4);
  match Devices.disk_read d ~block:999999 with
  | _ -> Alcotest.fail "oob block"
  | exception Invalid_argument _ -> ()

let test_nic_queues () =
  let d = Devices.create () in
  Devices.nic_inject d { Devices.fr_proto = 17; fr_payload = Bytes.of_string "a" };
  Devices.nic_inject d { Devices.fr_proto = 2; fr_payload = Bytes.of_string "b" };
  (match Devices.nic_recv d with
  | Some fr -> Alcotest.(check int) "fifo order" 17 fr.Devices.fr_proto
  | None -> Alcotest.fail "no frame");
  Devices.nic_send d { Devices.fr_proto = 17; fr_payload = Bytes.of_string "x" };
  Devices.nic_send d { Devices.fr_proto = 17; fr_payload = Bytes.of_string "y" };
  let tx = Devices.nic_take_tx d in
  Alcotest.(check int) "two sent" 2 (List.length tx);
  Alcotest.(check string) "oldest first" "x"
    (Bytes.to_string (List.hd tx).Devices.fr_payload);
  Alcotest.(check int) "drained" 0 (List.length (Devices.nic_take_tx d))

(* ---------- SVA-OS ---------- *)

let test_svaos_icontext_roundtrip () =
  let sys = Svaos.create () in
  Cpu.scramble sys.Svaos.cpu ~seed:3;
  let sp = Machine.stack_base + 1024 in
  let icp = Svaos.icontext_create sys ~sp ~was_privileged:true in
  Alcotest.(check bool) "privileged" true (Svaos.was_privileged sys ~icp);
  (* save the context as integer state, load it back *)
  let isp = Machine.stack_base + 8192 in
  Svaos.icontext_save sys ~icp ~isp;
  Svaos.icontext_load sys ~icp ~isp;
  Svaos.icontext_destroy sys ~icp;
  Alcotest.(check pass) "balanced" () ()

let test_svaos_icontext_tamper_detected () =
  let sys = Svaos.create () in
  let sp = Machine.stack_base + 1024 in
  let icp = Svaos.icontext_create sys ~sp ~was_privileged:false in
  (* the kernel scribbles over the integrity tag *)
  Machine.with_svm_mode sys.Svaos.machine (fun () ->
      Machine.write_int sys.Svaos.machine ~addr:icp ~width:8 0L);
  match Svaos.was_privileged sys ~icp with
  | _ -> Alcotest.fail "tampered icontext accepted"
  | exception Failure _ -> ()

let test_svaos_state_buffer_validated () =
  let sys = Svaos.create () in
  (* mediated mode refuses to spill processor state into userspace *)
  match Svaos.save_integer sys ~buffer:Machine.user_base with
  | _ -> Alcotest.fail "state spill into userspace accepted"
  | exception Failure _ -> ()

let test_svaos_ipush () =
  let sys = Svaos.create () in
  let icp =
    Svaos.icontext_create sys ~sp:(Machine.stack_base + 512) ~was_privileged:false
  in
  Alcotest.(check bool) "no pending" true (Svaos.ipush_pending sys ~icp = None);
  Svaos.ipush_function sys ~icp ~fn:0xB00040 ~arg:9L;
  (match Svaos.ipush_pending sys ~icp with
  | Some (fn, arg) ->
      Alcotest.(check int) "fn" 0xB00040 fn;
      Alcotest.(check int64) "arg" 9L arg
  | None -> Alcotest.fail "pending lost");
  Alcotest.(check bool) "consumed" true (Svaos.ipush_pending sys ~icp = None);
  Svaos.icontext_destroy sys ~icp

let test_svaos_modes () =
  let sys = Svaos.create ~mode:Svaos.Native_inline () in
  (* native mode skips buffer validation *)
  Svaos.save_integer sys ~buffer:(Machine.heap_base + 64);
  Svaos.set_mode sys Svaos.Sva_mediated;
  Svaos.save_integer sys ~buffer:(Machine.heap_base + 64);
  Alcotest.(check bool) "ops counted" true (sys.Svaos.ops_count >= 2)

let () =
  Alcotest.run "sva_hw"
    [
      ( "machine",
        [
          Alcotest.test_case "read/write" `Quick test_machine_rw;
          Alcotest.test_case "unmapped faults" `Quick test_machine_fault_unmapped;
          Alcotest.test_case "region straddle" `Quick test_machine_region_straddle;
          Alcotest.test_case "SVM region protected" `Quick test_svm_region_protected;
          Alcotest.test_case "blit/fill" `Quick test_blit_and_fill;
          Alcotest.test_case "untouched page reads zero" `Quick
            test_untouched_page_reads_zero;
          Alcotest.test_case "page-straddling scalar" `Quick test_straddling_scalar;
          Alcotest.test_case "in-page scalars allocate only results" `Quick
            test_scalar_paths_allocate_only_results;
          Alcotest.test_case "create allocates < 1 MiB" `Quick test_create_is_cheap;
          Alcotest.test_case "zero fill allocates no frame" `Quick
            test_zero_fill_allocates_no_frame;
          QCheck_alcotest.to_alcotest prop_sparse_matches_eager;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "integer save/restore" `Quick test_cpu_save_restore;
          Alcotest.test_case "lazy FP save" `Quick test_fp_lazy_save;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate" `Quick test_mmu_translate;
          Alcotest.test_case "SVM frame refused" `Quick test_mmu_svm_frame_refused;
          Alcotest.test_case "clone" `Quick test_mmu_clone;
        ] );
      ( "devices",
        [
          Alcotest.test_case "disk" `Quick test_disk;
          Alcotest.test_case "nic queues" `Quick test_nic_queues;
        ] );
      ( "svaos",
        [
          Alcotest.test_case "icontext roundtrip" `Quick test_svaos_icontext_roundtrip;
          Alcotest.test_case "icontext tamper" `Quick test_svaos_icontext_tamper_detected;
          Alcotest.test_case "state buffer validated" `Quick
            test_svaos_state_buffer_validated;
          Alcotest.test_case "ipush" `Quick test_svaos_ipush;
          Alcotest.test_case "modes" `Quick test_svaos_modes;
        ] );
    ]

module Boot = Ukern.Boot

(* syscall numbers (ksrc_init.ml) *)
let sys_getpid = 1
let sys_getrusage = 2
let sys_gettimeofday = 3
let sys_open = 4
let sys_close = 5
let sys_read = 6
let sys_write = 7
let sys_pipe = 8
let sys_fork = 9
let sys_execve = 10
let sys_sbrk = 11
let sys_sigaction = 12
let sys_socket = 14
let sys_bind = 15
let sys_sendto = 16
let sys_recvfrom = 17
let sys_lseek = 20
let sys_netpoll = 22

(* user memory layout used by the host-side "applications" *)
let off_path = 0 (* 64 bytes of path scratch *)
let off_small = 512 (* small result structs *)
let off_req = 1024 (* request scratch *)
let off_buf = 65536 (* large I/O buffer (up to 128KB + slack) *)

type ctx = {
  t : Boot.t;
  mutable scratch_fd : int64;
  mutable data_fd : int64;
  mutable pipe_rfd : int64;
  mutable pipe_wfd : int64;
  mutable http_sd : int64;
  mutable exec_budget : int;
}

let kernel c = c.t

let sc c num args =
  let r = Boot.syscall c.t num args in
  r

let check name r =
  if Int64.compare r 0L < 0 then
    failwith (Printf.sprintf "workload setup: %s failed (%Ld)" name r)

let uaddr c off = Boot.user_addr c.t off

let open_file c name =
  Boot.write_user c.t off_path (name ^ "\000");
  sc c sys_open [ uaddr c off_path; 1L ]

(* Write [data] to an open fd at the current position, 2KB per syscall. *)
let write_all c fd data =
  let len = String.length data in
  let pos = ref 0 in
  while !pos < len do
    let chunk = min 2048 (len - !pos) in
    Boot.write_user c.t off_buf (String.sub data !pos chunk);
    let w = sc c sys_write [ fd; uaddr c off_buf; Int64.of_int chunk ] in
    check "write" w;
    pos := !pos + chunk
  done

let data_file_bytes = 128 * 1024

let exec_image =
  (* UKEX header: magic, entry_vpn = 8, npages = 1, dump_len = 0 *)
  let b = Bytes.create 16 in
  Bytes.set_int32_le b 0 0x554b4558l;
  Bytes.set_int32_le b 4 8l;
  Bytes.set_int32_le b 8 1l;
  Bytes.set_int32_le b 12 0l;
  Bytes.to_string b ^ String.make 256 '\x90'

let prepare t =
  let c =
    {
      t;
      scratch_fd = -1L;
      data_fd = -1L;
      pipe_rfd = -1L;
      pipe_wfd = -1L;
      http_sd = -1L;
      exec_budget = 4000;
    }
  in
  (* scratch file for the write benchmark *)
  c.scratch_fd <- open_file c "bench.scratch";
  check "open scratch" c.scratch_fd;
  (* 128KB data file for read bandwidth *)
  c.data_fd <- open_file c "bench.data";
  check "open data" c.data_fd;
  let pattern =
    String.init data_file_bytes (fun i -> Char.chr (0x20 + (i mod 64)))
  in
  write_all c c.data_fd pattern;
  (* the benchmark pipe *)
  let r = sc c sys_pipe [ uaddr c off_small ] in
  check "pipe" r;
  let fds = Boot.read_user t off_small 8 in
  c.pipe_rfd <- Int64.of_int (Char.code fds.[0]);
  c.pipe_wfd <- Int64.of_int (Char.code fds.[4]);
  (* the exec image *)
  let img_fd = open_file c "binimg" in
  check "open binimg" img_fd;
  write_all c img_fd exec_image;
  check "close binimg" (sc c sys_close [ img_fd ]);
  c

(* ---------- Table 7 latency ops ---------- *)

let op_getpid c = ignore (sc c sys_getpid [])

let op_getrusage c = ignore (sc c sys_getrusage [ uaddr c off_small ])

let op_gettimeofday c = ignore (sc c sys_gettimeofday [ uaddr c off_small ])

let op_open_close c =
  let fd = open_file c "bench.scratch" in
  ignore (sc c sys_close [ fd ])

let op_sbrk c = ignore (sc c sys_sbrk [ 0L ])

let op_sigaction c = ignore (sc c sys_sigaction [ 5L; 0x1234L ])

let op_write c =
  ignore (sc c sys_lseek [ c.scratch_fd; 0L; 0L ]);
  ignore (sc c sys_write [ c.scratch_fd; uaddr c off_small; 1L ])

let op_pipe_latency c =
  ignore (sc c sys_write [ c.pipe_wfd; uaddr c off_small; 1L ]);
  ignore (sc c sys_read [ c.pipe_rfd; uaddr c off_small; 1L ])

let op_fork c = ignore (sc c sys_fork [])

let op_fork_exec c =
  if c.exec_budget <= 0 then ()
  else begin
    c.exec_budget <- c.exec_budget - 1;
    ignore (sc c sys_fork []);
    Boot.write_user c.t off_path "binimg\000";
    ignore (sc c sys_execve [ uaddr c off_path ])
  end

(* Paper Table 7 reference overheads: [| SVA gcc; SVA llvm; SVA Safe |]. *)
let latency_ops =
  [
    ("getpid", [| 21.1; 21.1; 28.9 |], op_getpid, 400);
    ("getrusage", [| 39.7; 27.0; 42.9 |], op_getrusage, 300);
    ("gettimeofday", [| 47.5; 52.5; 55.7 |], op_gettimeofday, 300);
    ("open/close", [| 14.8; 27.3; 386.0 |], op_open_close, 150);
    ("sbrk", [| 20.8; 26.4; 26.4 |], op_sbrk, 400);
    ("sigaction", [| 14.0; 14.0; 123.0 |], op_sigaction, 400);
    ("write", [| 39.4; 38.0; 54.9 |], op_write, 200);
    ("pipe", [| 62.8; 62.2; 280.0 |], op_pipe_latency, 150);
    ("fork", [| 24.9; 23.3; 74.5 |], op_fork, 60);
    ("fork/exec", [| 17.7; 20.6; 54.2 |], op_fork_exec, 40);
  ]

(* ---------- Table 8 bandwidth ops ---------- *)

let op_file_read c bytes =
  ignore (sc c sys_lseek [ c.data_fd; 0L; 0L ]);
  let left = ref bytes in
  while !left > 0 do
    let n = min 8192 !left in
    let r = sc c sys_read [ c.data_fd; uaddr c off_buf; Int64.of_int n ] in
    if Int64.compare r 0L <= 0 then failwith "file read stalled";
    left := !left - Int64.to_int r
  done

let op_pipe_stream c bytes =
  let left = ref bytes in
  while !left > 0 do
    let n = min 2048 !left in
    let w = sc c sys_write [ c.pipe_wfd; uaddr c off_buf; Int64.of_int n ] in
    ignore (sc c sys_read [ c.pipe_rfd; uaddr c (off_buf + 8192); Int64.of_int n ]);
    if Int64.compare w 0L <= 0 then failwith "pipe stalled";
    left := !left - Int64.to_int w
  done

let bandwidth_ops =
  [
    ("file read (32k)", [| 0.80; 1.07; 1.01 |], (fun c -> op_file_read c 32768), 32768, 8);
    ("file read (64k)", [| 0.69; 0.99; 0.80 |], (fun c -> op_file_read c 65536), 65536, 6);
    ("file read (128k)", [| 5.15; 6.10; 8.36 |], (fun c -> op_file_read c 131072), 131072, 4);
    ("pipe (32k)", [| 29.4; 31.2; 66.4 |], (fun c -> op_pipe_stream c 32768), 32768, 6);
    ("pipe (64k)", [| 29.1; 31.0; 66.5 |], (fun c -> op_pipe_stream c 65536), 65536, 5);
    ("pipe (128k)", [| 12.5; 17.4; 51.4 |], (fun c -> op_pipe_stream c 131072), 131072, 4);
  ]

(* ---------- simulated-SMP parallel job mix ---------- *)

(* One job = one pass over an embarrassingly parallel syscall mix.  Every
   job performs exactly the same work, so per-job modeled cost is
   constant and the scheduler's makespan is governed by load balance
   alone — the scaling gate then measures the scheduler, not workload
   skew.  fork/exec and open/close are excluded: they mutate kernel
   tables and would give later jobs different costs. *)
let smp_job_mix c =
  op_getpid c;
  op_getrusage c;
  op_gettimeofday c;
  op_sbrk c;
  op_sigaction c;
  op_write c;
  op_pipe_latency c

let smp_jobs c n = List.init n (fun _ () -> smp_job_mix c)

(* ---------- thttpd-style server ---------- *)

let http_port = 80

let http_setup c =
  (* www files *)
  let small_fd = open_file c "www.311" in
  check "open www.311" small_fd;
  write_all c small_fd (String.make 311 'a');
  check "close" (sc c sys_close [ small_fd ]);
  let big_fd = open_file c "www.85k" in
  check "open www.85k" big_fd;
  write_all c big_fd (String.make (85 * 1024) 'b');
  check "close" (sc c sys_close [ big_fd ]);
  (* the server socket *)
  c.http_sd <- sc c sys_socket [ 17L ];
  check "socket" c.http_sd;
  check "bind" (sc c sys_bind [ c.http_sd; Int64.of_int http_port ])

(* Discard transmitted frames, returning how many there were (keeps the
   simulated wire from growing). *)
let drain_tx c = List.length (Boot.sent_frames c.t)

(* One request: client frame -> netpoll -> recvfrom -> open/read file ->
   sendto chunks -> close. *)
let serve_http_request c ~file ~cgi =
  (* client side: [port:4][request] *)
  let req = Bytes.create 4 in
  Bytes.set_int32_le req 0 (Int32.of_int http_port);
  Boot.inject_frame c.t ~proto:17 (Bytes.to_string req ^ "GET " ^ file);
  ignore (sc c sys_netpoll []);
  let r = sc c sys_recvfrom [ c.http_sd; uaddr c off_req; 256L ] in
  if Int64.compare r 0L < 0 then failwith "recvfrom failed";
  let reqs = Boot.read_user c.t off_req (Int64.to_int r) in
  let fname =
    match String.index_opt reqs ' ' with
    | Some i -> String.sub reqs (i + 1) (String.length reqs - i - 1)
    | None -> failwith "bad request"
  in
  (* cgi: the handler forks a worker (paper's cgi test) *)
  if cgi then ignore (sc c sys_fork []);
  let fd = open_file c fname in
  if Int64.compare fd 0L < 0 then failwith ("404 " ^ fname);
  let served = ref 0 in
  let rec pump () =
    let r = sc c sys_read [ fd; uaddr c off_buf; 4096L ] in
    let n = Int64.to_int r in
    if n > 0 then begin
      (* transmit in MTU-sized datagrams *)
      let sent = ref 0 in
      while !sent < n do
        let chunk = min 1400 (n - !sent) in
        ignore
          (sc c sys_sendto
             [ c.http_sd; uaddr c (off_buf + !sent); Int64.of_int chunk; 9999L ]);
        sent := !sent + chunk
      done;
      served := !served + n;
      pump ()
    end
  in
  pump ();
  ignore (sc c sys_close [ fd ]);
  ignore (drain_tx c);
  !served

let op_scp_chunk c =
  let r = sc c sys_read [ c.data_fd; uaddr c off_buf; 4096L ] in
  let n = Int64.to_int r in
  if n <= 0 then ignore (sc c sys_lseek [ c.data_fd; 0L; 0L ])
  else begin
    let sent = ref 0 in
    while !sent < n do
      let chunk = min 1400 (n - !sent) in
      ignore
        (sc c sys_sendto
           [ c.http_sd; uaddr c (off_buf + !sent); Int64.of_int chunk; 2222L ]);
      sent := !sent + chunk
    done;
    ignore (drain_tx c)
  end

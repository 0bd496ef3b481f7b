(** HBench-OS-style kernel operation drivers (Section 7.1.2).

    Each operation performs one iteration of the corresponding
    microbenchmark against a booted kernel: the latency set of Table 7
    (getpid ... fork/exec) and the bandwidth set of Table 8 (file read
    and pipe at 32k/64k/128k).  Setup work (scratch files, pipes, file
    content) happens once in {!prepare}. *)

type ctx

val prepare : Ukern.Boot.t -> ctx
(** Create the scratch file, the benchmark pipe, the 128KB data file and
    the tiny exec image the operations use. *)

val kernel : ctx -> Ukern.Boot.t

(** {2 Table 7 latency operations — one call = one benchmarked op} *)

val op_getpid : ctx -> unit
val op_getrusage : ctx -> unit
val op_gettimeofday : ctx -> unit
val op_open_close : ctx -> unit
val op_sbrk : ctx -> unit
val op_sigaction : ctx -> unit
val op_write : ctx -> unit
val op_pipe_latency : ctx -> unit
(** One-byte round trip through a pipe. *)

val op_fork : ctx -> unit
val op_fork_exec : ctx -> unit

val latency_ops : (string * float array * (ctx -> unit) * int) list
(** [(name, paper overheads [|gcc; llvm; safe|] %, op, reps-per-batch)] —
    the Table 7 rows with the paper's reference numbers. *)

(** {2 Table 8 bandwidth operations} *)

val op_file_read : ctx -> int -> unit
(** Read the given number of bytes from the data file (chunked). *)

val op_pipe_stream : ctx -> int -> unit
(** Stream the given number of bytes through the pipe. *)

val bandwidth_ops : (string * float array * (ctx -> unit) * int * int) list
(** [(name, paper reductions, op, bytes-per-op, reps)] — Table 8 rows. *)

(** {2 Simulated-SMP parallel job mix} *)

val smp_jobs : ctx -> int -> (unit -> unit) list
(** [smp_jobs ctx n] — [n] identical jobs for {!Ukern.Boot.run_smp},
    each one pass over an embarrassingly parallel syscall mix (getpid,
    getrusage, gettimeofday, sbrk, sigaction, write, one-byte pipe round
    trip).  Constant per-job cost, so N-CPU makespan measures the
    scheduler's load balance rather than workload skew. *)

(** {2 Server and application models (Tables 5 and 6)} *)

val serve_http_request : ctx -> file:string -> cgi:bool -> int
(** One thttpd-style request: the host-side client sends a request frame;
    the "server process" polls, receives, reads the file and transmits
    the response.  Returns bytes served. *)

val http_setup : ctx -> unit
(** Create www files (311B and 85KB) and the server socket. *)

val op_scp_chunk : ctx -> unit
(** One scp-like unit: read 4KB from the data file and transmit it. *)

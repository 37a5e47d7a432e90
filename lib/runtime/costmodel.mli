(** Cost model of the simulated multicore (all values in simulated
    cycles), set by hand so the *relative* behaviour of the paper's eight
    workloads is preserved (DESIGN.md §7). The [Atomic.t] cells are the
    knobs the ablation benchmarks sweep; atomics make them safe to read
    from the parallel evaluation harness's worker domains. *)

module Ir = Commset_ir.Ir

(* instruction costs *)
val instr_cost : Ir.instr_desc -> float
val terminator_cost : float

(* synchronization *)
type lock_flavor = Mutex | Spin | Libsafe

(** Cost of an uncontended acquire / release. *)
val acquire_base : lock_flavor -> float

val release_base : lock_flavor -> float

(** Contended-handoff model: mutexes pay an OS sleep/wakeup
    ([mutex_wakeup]); spin locks pay cache-line bouncing, a base plus a
    per-waiter term that grows with the number of spinners. *)
val mutex_wakeup : float

val spin_handoff_base : float
val spin_handoff_per_waiter : float Atomic.t

(** Handoff latency of a library-internal critical section. *)
val libsafe_handoff : float

(** Extra latency before a blocked thread obtains a released lock. *)
val handoff_penalty : lock_flavor -> n_waiters:int -> float

(* transactions *)
val tx_begin_cost : float
val tx_commit_cost : float
val tx_abort_penalty : float
val tx_max_retries : int

(** Read/write-set instrumentation slows code inside a transaction. *)
val tx_instrumentation_factor : float Atomic.t

(* pipeline queues *)
val queue_push_cost : float
val queue_pop_cost : float
val queue_capacity : int Atomic.t

(** Nanoseconds of wall time per simulated cycle, default 1.0. Nothing
    in the library reads it. It is kept only for the repository
    benchmark's no-burns guard ([bench/perf]), which sets it to 0 and
    checks it before timing, until that benchmark drops the guard. *)
val exec_ns_per_cycle : unit -> float

val set_exec_ns_per_cycle : float -> unit

(** Relative predicted-vs-measured speedup gap accepted by the strict
    fidelity gate ([run --strict]) on non-oversubscribed machines.
    Initialized from [COMMSET_FIDELITY_BAND] (default 0.5) on first
    read; malformed values raise CS013. *)
val fidelity_band : unit -> float

(* builtin cost helpers *)
val per_byte : float
val md5_cost_per_byte : float
val trace_cost_per_byte : float
val file_open_cost : float
val file_close_cost : float
val file_read_base : float
val file_write_base : float
val write_per_byte : float
val print_cost : float
val rng_cost : float
val hist_cost : float
val alloc_base : float
val alloc_per_slot : float
val collection_op_cost : float
val db_read_cost : float
val packet_dequeue_cost : float
val log_write_base : float

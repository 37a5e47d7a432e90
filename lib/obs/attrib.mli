(** Per-iteration execution attribution for the real/codegen engines.

    The real execution backend ({!Commset_exec.Exec}) creates one
    {!t} per run and one {!worker} per worker domain. Workers charge
    wall time to causes as it is spent — dispatch-queue wait (empty
    SPSC ring), per-commset lock wait, frontier wait, builtin time —
    and close every iteration with {!iter_end}, which derives the
    residual as {e compute}:

    {v compute = iteration wall − (lock + frontier + builtin) v}

    so per-iteration conservation holds by construction (up to the
    clamp at zero when clock jitter makes the measured parts exceed
    the wall). Waits that happen {e inside} a builtin (the frontier
    await and machine-mutex acquisition of ordered builtins) are
    charged to their own cause and subtracted from the builtin's
    elapsed time, so causes never double-count.

    Accumulators are per-worker mutable scalars and unboxed float
    arrays — no shared-heap traffic on the hot path; the only
    cross-domain structures are the per-cause {!Metrics.histogram}s
    (atomics) fed once per iteration. Overhead is a handful of clock
    reads per iteration; the bench harness gates it at ≤5% of run
    wall time.

    Everything is skipped when [enabled:false]: accumulation entry
    points check {!on} (a plain immutable field read) and take no
    clock readings. *)

type t
type worker

(** [create ~enabled ~lock_names ~builtin_names ~jobs ~iterations] —
    [lock_names] are the per-commset lock labels (index-aligned with the
    emitter's lock table); [builtin_names] the runtime builtin names,
    indexed by the slot {!add_builtin} takes (the builtin's dense id);
    [iterations] the loop's iteration count
    (from the trace), which bounds each worker's timeline sample buffer
    below the fixed 4096-sample cap. *)
val create :
  enabled:bool ->
  lock_names:string array ->
  builtin_names:string array ->
  jobs:int ->
  iterations:int ->
  t

val enabled : t -> bool

(** The accumulator of worker [wi] (0-based, [wi < jobs]). Each worker
    record must only be written by its own domain. *)
val worker : t -> int -> worker

(** Whether this worker's accumulators are live (same as the [enabled]
    flag of the owning {!t}; cheap enough to check per event). *)
val on : worker -> bool

(** {2 Worker-side accumulation (all durations in monotonic-clock ns)} *)

(** Time spent blocked on an empty dispatch ring (between iterations). *)
val add_dispatch : worker -> float -> unit

(** Time spent spinning on the iteration frontier. *)
val add_frontier : worker -> float -> unit

(** [add_lock w li dt] — one acquisition of lock [li] that took [dt] ns
    (0. for uncontended fast-path acquires); [li] may index one past
    [lock_names] for the machine mutex pseudo-lock. *)
val add_lock : worker -> int -> float -> unit

(** Running total of waits charged so far that can nest inside a
    builtin (frontier + lock); sample before and after a builtin call
    and subtract the delta from its elapsed time. *)
val inner_waits : worker -> float

(** [add_builtin w slot ~ns ~cost] — one call of the builtin at
    [builtin_names.(slot)]: [ns] net wall time (inner waits already
    subtracted), [cost] its charged cost in simulated cycles. *)
val add_builtin : worker -> int -> ns:float -> cost:float -> unit

(** One compiled-code charge flush through the codegen ABI
    ([Abi.cg_charge]). *)
val charge_flush : worker -> unit

(** [iter_begin w t_ns] / [iter_end w t_ns] bracket one dispatched
    iteration; [iter_end] folds the scratch accumulators into totals,
    derives the compute residual and feeds the per-cause histograms. *)
val iter_begin : worker -> float -> unit

val iter_end : worker -> float -> unit

(** Total simulated cycles this worker retired (set once, after the
    worker's loop exits). *)
val set_charged : worker -> float -> unit

(** {2 Coordinator-side accumulation} *)

(** Time the coordinator spent blocked pushing into a full ring. *)
val add_coord_dispatch : t -> float -> unit

(** {2 Summary} *)

type cause = {
  c_name : string;
  c_total_ns : float;
  c_count : int;  (** observations behind the quantiles *)
  c_p50_ns : float;
  c_p95_ns : float;
  c_p99_ns : float;
}

type lock_stat = {
  l_name : string;
  l_acquires : int;
  l_wait_ns : float;
}

type builtin_stat = {
  b_name : string;
  b_calls : int;
  b_wall_ns : float;  (** net of inner waits *)
  b_cost_cycles : float;
}

type coord = {
  k_wall_ns : float;  (** parallel-section wall time *)
  k_dispatch_wait_ns : float;  (** blocked pushing into full rings *)
  k_utilization : float;  (** (wall − dispatch wait) / wall *)
  k_merge_ns : float;
}

(** One per-worker timeline sample for Perfetto counter tracks:
    cumulative ns charged to each cause as of [s_t_ns]. *)
type sample = {
  s_t_ns : float;
  s_dispatch : float;
  s_lock : float;
  s_frontier : float;
  s_builtin : float;
  s_compute : float;
}

type summary = {
  a_jobs : int;
  a_iterations : int;
  a_iter_wall_ns : float;  (** Σ over workers of iteration wall time *)
  a_charged_cycles : float;
  a_dispatch_ns : float;
  a_lock_ns : float;
  a_frontier_ns : float;
  a_builtin_ns : float;
  a_compute_ns : float;
  a_causes : cause list;  (** dispatch, lock, frontier, builtin, compute, merge *)
  a_locks : lock_stat list;  (** index-aligned with [lock_names] + machine pseudo-lock *)
  a_builtins : builtin_stat list;  (** only builtins that were called *)
  a_conservation_error : float;
      (** |lock + frontier + builtin + compute − iter wall| / iter wall *)
  a_coord : coord;
  a_charge_flushes : int;
  a_samples : (int * sample array) list;  (** per worker index *)
}

(** Aggregate all workers. Call from the coordinator after workers have
    joined. [None] when the layer was created with [enabled:false]. *)
val summarize : t -> coord_wall_ns:float -> merge_ns:float -> summary option

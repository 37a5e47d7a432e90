(** Busy-wait primitives for the real multicore backend: an adaptive
    backoff and a test-and-test-and-set spin lock.

    Both are tuned for the two machines we actually run on. On a
    multicore box a waiter stays on the CPU ({!Domain.cpu_relax}) for a
    couple hundred rounds — the expected wait for a short critical
    section or a draining queue slot is well under a microsecond. On an
    oversubscribed or single-core box the partner domain cannot run
    until the OS preempts us, so after the spin budget the waiter yields
    its timeslice with a short [nanosleep]; without that fallback a
    producer blocked on a full queue would burn its entire quantum
    spinning against a consumer that is not running. *)

(** Spin rounds before a waiter starts yielding to the OS scheduler
    (200). *)
val spin_rounds : int

(** Base yielding quantum once the spin budget is spent (50 µs). *)
val sleep_s : float

(** Base-quantum sleeps before the backoff escalates (40, ~2 ms at the
    base quantum). *)
val idle_after : int

(** Sleep-quantum ceiling of the long-idle tier (20 ms): the worst-case
    wakeup latency of a parked waiter. *)
val sleep_cap_s : float

(** One waiter's backoff state; create one per blocking episode. *)
type backoff

val backoff : unit -> backoff

(** One backoff step: {!Domain.cpu_relax} for the first {!spin_rounds}
    calls, then sleeps. The first {!idle_after} sleeps use the base
    quantum {!sleep_s} (short blocking episodes behave exactly as
    before); after that the waiter is long-idle and the quantum doubles
    per sleep up to {!sleep_cap_s} — an idle daemon worker parks at ~0%
    CPU with wakeup latency bounded by the cap. *)
val once : backoff -> unit

(** Forget accumulated idleness: the next {!once} is back at the
    responsive tier. Call after a successful wait when reusing one
    backoff across episodes (long-lived worker loops). *)
val reset : backoff -> unit

(** The sleep quantum the next spent-budget {!once} would pay (tests
    pin the escalation schedule through this). *)
val current_sleep_s : backoff -> float

(** Test-and-test-and-set spin lock over a [bool Atomic.t]. *)
type lock

val lock_create : unit -> lock

(** Non-blocking acquire attempt. *)
val try_acquire : lock -> bool

(** Blocking acquire; [on_contend] fires once per episode in which the
    first attempt failed (the real counterpart of the simulator's
    contended-acquire statistic). *)
val acquire : ?on_contend:(unit -> unit) -> lock -> unit

val release : lock -> unit

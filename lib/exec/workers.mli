(** A persistent warm pool of worker domains for request serving: the
    domains are spawned once and reused for every task until
    {!shutdown} — never re-created per request.

    Each worker owns one bounded SPSC task ring fed by the single
    coordinator domain ({!submit} must only ever be called from one
    domain at a time; the serve daemon's accept/generator loop is that
    coordinator). An idle worker parks on its empty ring through the
    adaptive backoff's long-idle tier ({!Spin}), so an idle pool sits
    at ~0% CPU while wakeup latency stays bounded by
    {!Spin.sleep_cap_s}.

    Tasks are arbitrary closures; an exception escaping a task is
    caught, counted ([w_task_errors]) and logged — one poisoned request
    must not take the daemon down. Ordering: tasks submitted to the
    same worker run in submission order; across workers there is no
    order. *)

type t

(** [spawn ~jobs] starts [jobs] worker domains (at least 1), each
    parked on an empty task ring of [ring] slots (default 256). *)
val spawn : ?ring:int -> jobs:int -> unit -> t

val size : t -> int

(** Enqueue a task on the least-loaded ring (ties broken round-robin).
    Blocks with backoff when every ring is full — the daemon's
    admission bound — counting one backpressure episode. Raises
    [Invalid_argument] after {!shutdown}. *)
val submit : t -> (unit -> unit) -> unit

(** Tasks currently queued across all rings (approximate: racy reads). *)
val pending : t -> int

type stats = {
  w_executed : int;  (** tasks completed across all workers *)
  w_task_errors : int;  (** tasks that raised (caught and dropped) *)
  w_backpressure : int;  (** submit episodes that blocked on full rings *)
}

val stats : t -> stats

(** Drain and stop: every queued task still runs, then each worker
    exits and is joined. Idempotent; [submit] afterwards raises. *)
val shutdown : t -> unit

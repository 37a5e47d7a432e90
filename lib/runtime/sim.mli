(** Discrete-event simulator of the multicore target. Threads execute
    segment arrays; locks model the paper's synchronization modes, queues
    the bounded lock-free inter-stage channels, and transactional
    segments the optimistic runtimes (TM, and speculative commutativity
    with a runtime predicate check). Threads are processed in
    virtual-time order, which preserves causality for all resource
    interactions; a scheduled thread runs ahead over its consecutive
    thread-local segments ([Compute] and [Emit]), which moves no shared
    step. *)

type lock_spec = { lflavor : Costmodel.lock_flavor; lname : string }

(** Runtime commutativity information attached to a speculative
    transaction: the member's identity and the predicate actuals of each
    dynamic instance it covers. *)
type spec_info = {
  sp_member : string;
  sp_keys : (string * Value.t list) list list;
}

type seg =
  | Compute of { costs : float array; tag : string }
      (** a run of consecutive costs; exactly equivalent to one
          single-cost [Compute] per element *)
  | Acquire of int
  | Release of int
  | Push of int
  | Pop of int
  | Emit of string
  | Tx of {
      cost : float;
      reads : string list;
      writes : string list;
      outputs : string list;
      tag : string;
      spec : spec_info option;
    }

module Sset : Set.S with type elt = string

(** The transaction commit log, keyed by commit time, so that validating
    a transaction window [(start, stop)] only examines the commits that
    can actually overlap it (commit times are not monotone in log order —
    the min-time scheduler interleaves threads). Footprints are stored as
    string sets. Exposed so the simulator tests can cross-check the
    indexed conflict query against a naive reference implementation. *)
module Commit_index : sig
  type t

  val empty : t
  val is_empty : t -> bool

  (** [add idx ~time ~thread ~reads ~writes ~spec] records a commit. *)
  val add :
    t ->
    time:float ->
    thread:int ->
    reads:string list ->
    writes:string list ->
    spec:spec_info option ->
    t

  (** [prune idx ~min_time] drops every commit at or before [min_time];
    safe once every unfinished thread's clock has reached [min_time],
    because a conflict requires a commit time strictly inside a window
    that starts at some thread's current clock. *)
  val prune : t -> min_time:float -> t

  (** Number of commits currently held. *)
  val size : t -> int

  (** [conflicts idx ~commutes ~thread ~start ~stop ~reads ~writes ~spec]
    holds when some commit by another thread, with commit time strictly
    inside [(start, stop)], has a write set intersecting [reads ∪ writes]
    or a read set intersecting [writes] — unless both sides carry
    [spec_info] and [commutes] proves they commute. *)
  val conflicts :
    t ->
    commutes:(spec_info -> spec_info -> bool) option ->
    thread:int ->
    start:float ->
    stop:float ->
    reads:Sset.t ->
    writes:Sset.t ->
    spec:spec_info option ->
    bool
end

type t

type result = {
  makespan : float;
  outputs : (float * string) list;  (** commit-time ordered *)
  thread_busy : float array;
  timelines : (float * float * string) list array;
  lock_contended : int;
  tx_aborts : int;
  lock_wait : float;
      (** total virtual cycles threads spent blocked waiting for locks *)
  queue_wait : float;
      (** total virtual cycles threads spent blocked on full/empty queues *)
}

(** [create ~locks ~n_queues programs] builds a machine with one thread
    per segment array (the arrays are not copied). [spec_commutes], when
    given, forgives transaction footprint overlaps between transactions
    whose [spec_info]s commute. *)
val create :
  ?record_timeline:bool ->
  ?spec_commutes:(spec_info -> spec_info -> bool) ->
  locks:lock_spec array ->
  n_queues:int ->
  seg array array ->
  t

(** Run to completion; detects deadlock (raises a diagnostic). *)
val run : t -> result

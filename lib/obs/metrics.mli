(** Process-wide metrics registry: named counters, gauges and
    histograms, all [Atomic]-backed so any domain can update them
    without locks.

    Metrics whose increments are data-driven (tasks executed, simulator
    aborts, interpreter steps) end up with the same final value for any
    [COMMSET_JOBS]: integer atomic additions commute. Time-derived
    gauges (busy/idle seconds) naturally vary run to run and carry no
    determinism promise.

    Creation ([counter] / [gauge] / [histogram]) takes a registry lock
    and is meant for module-initialization time; updates are single
    atomic operations and safe on hot-ish paths (per chunk, per
    simulation run — not per interpreter instruction; accumulate locally
    and flush once instead). *)

(** Monotonically increasing integer counter. *)
type counter

(** [counter name] returns the counter registered under [name], creating
    it on first use. Counter and gauge names share one namespace; asking
    for an existing name with a different kind raises
    [Invalid_argument]. *)
val counter : ?doc:string -> string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** Float accumulator / last-value cell. [gauge_add] is a CAS loop (and
    therefore not bit-deterministic across domain interleavings — float
    addition does not commute in the last ulp); [gauge_set] overwrites. *)
type gauge

val gauge : ?doc:string -> string -> gauge
val gauge_add : gauge -> float -> unit
val gauge_set : gauge -> float -> unit

(** Log₂-bucketed histogram of non-negative float observations. Bucket
    [i] counts observations [v] with [2^(i-32) <= v < 2^(i-31)]
    (observations of [0.] land in bucket 0, huge values clamp to the
    last bucket), so one histogram spans nanoseconds to hours. *)
type histogram

val histogram : ?doc:string -> string -> histogram
val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

(** A standalone histogram outside the registry — same atomics-backed
    representation, but private to the caller (the attribution layer
    keeps per-run histograms this way so [reset] of the global registry
    cannot race a run in progress). *)
val hist_make : unit -> histogram

(** [hist_quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) by
    linear interpolation inside the log₂ bucket holding rank
    [q · count]: exact for distributions uniform within each bucket,
    always within the bucket (a factor of 2) otherwise. [0.] on an
    empty histogram. *)
val hist_quantile : histogram -> float -> float

(** Snapshot of every registered metric, sorted by name: counters and
    gauges as [(name, value)]; histograms contribute [name ^ ".count"]
    and [name ^ ".sum"]. *)
val snapshot : unit -> (string * float) list

(** Machine-readable dump: [{ "metrics": [ { "name": ..., "kind":
    "counter" | "gauge" | "histogram", ... }, ... ] }]. Accepted by
    {!Json_strict.parse}. *)
val to_json : unit -> string

(** Zero every registered metric (tests and benchmark legs). *)
val reset : unit -> unit

(** The daemon's compile-once plan cache: an LRU map from content hash
    to compiled program with single-flight deduplication — when N
    requests for the same (previously unseen) workload arrive
    concurrently, exactly one caller runs the compile while the other
    N−1 block on a condition variable and reuse its result.

    Values are arbitrary ['v] (the daemon stores
    {!Commset_pipeline.Pipeline.t}); the cache never inspects them.
    Compile failures are not cached: the flight's owner re-raises
    the exception, the slot is vacated, and each waiter (and any later
    request for the same key) retries the compile itself — one at a
    time, so a deterministically bad source fails each request without
    poisoning the cache.

    All operations are safe from any domain. *)

type 'v t

(** [create ~capacity] holds at most [capacity] (≥ 1) ready entries;
    inserting beyond that evicts the least-recently-used entry. *)
val create : capacity:int -> 'v t

(** [find_or_compile t ~key ~compile] returns [(v, hit)] where [hit]
    is [true] iff the value was already cached (including the waiters
    of someone else's successful in-flight compile — they did not
    compile). Re-raises the compile's exception on failure. *)
val find_or_compile : 'v t -> key:string -> compile:(unit -> 'v) -> 'v * bool

(** Is [key] cached and ready right now? *)
val mem : 'v t -> string -> bool

type stats = {
  pc_hits : int;  (** lookups served from cache (incl. flight waiters) *)
  pc_misses : int;  (** lookups that ran the compile themselves *)
  pc_evictions : int;  (** ready entries dropped by LRU pressure *)
  pc_waits : int;  (** single-flight episodes: callers that blocked on
                       another caller's compile *)
  pc_failures : int;  (** compiles that raised *)
  pc_entries : int;  (** ready entries resident now *)
  pc_capacity : int;
}

val stats : 'v t -> stats

(** The serve daemon's core: one coordinator domain admitting requests
    — from the built-in open-loop generator ({!Gen}), a Unix-domain
    socket ({!Proto}), or both — into a persistent warm pool of worker
    domains ({!Commset_exec.Workers}), compiling each distinct workload
    exactly once through the single-flight plan cache ({!Plancache}).

    Per request the daemon records a [serve.request] flight-recorder
    span, observes queue-wait / service / total latency into log₂
    histograms, and — every [s_equiv_every]-th request per service —
    judges the response stream by the compile's one output rule
    ({!Commset_pipeline.Pipeline.judge}). A request runs
    {!Commset_exec.Exec.run_seq}. The plan cache keys an inline source
    by its content hash and a by-name workload by its name and content
    hash: a by-name compile runs with the workload's set-up, an inline
    one with none, so the two never share a service.

    Shutdown ({!request_stop}, wired to SIGINT/SIGTERM by the CLI) is
    graceful: admission stops, every already-queued request still runs
    to completion ([r_drained]), the pool joins, and the report is
    returned for at-exit flushing. *)

module P = Commset_pipeline.Pipeline

(** Resolve a workload name to [(source, setup)] — the CLI passes the
    registry; tests pass a stub. *)
type lookup = string -> (string * P.setup, string) result

type config = {
  s_jobs : int;  (** warm pool worker domains *)
  s_cache_capacity : int;  (** plan-cache entries *)
  s_equiv_every : int;  (** Equiv-check every Nth request per service; 0 = never *)
  s_threads : int;  (** thread count services are planned for *)
  s_lookup : lookup;
}

val default_config : lookup:lookup -> config

(** A self-test load: [l_requests] arrivals drawn from the open-loop
    generator. *)
type load = { l_spec : Gen.spec; l_requests : int }

type latency = { p50_us : float; p95_us : float; p99_us : float; mean_us : float }

type workload_report = {
  wr_name : string;
  wr_key : string;
      (** plan-cache key: [name:hash] by name, the content hash inline *)
  wr_requests : int;
  wr_compile_s : float;
  wr_best_plan : string option;
  wr_predicted : float option;  (** simulated speedup of the best plan *)
}

type report = {
  r_offered : int;  (** requests admitted *)
  r_served : int;  (** completed successfully *)
  r_failed : int;  (** completed with an error response *)
  r_duration_s : float;  (** first admission → drain complete *)
  r_throughput_rps : float;
  r_offered_rate_rps : float option;  (** the generator's configured mean *)
  r_jobs : int;
  r_cores : int;
  r_oversubscribed : bool;  (** [cores < jobs + 1] *)
  r_queue : latency;
  r_service : latency;
  r_total : latency;
  r_equiv_every : int;
  r_equiv_checked : int;
  r_equiv_failures : int;
  r_equiv_first_failure : string option;
  r_cache : Plancache.stats;
  r_pool : Commset_exec.Workers.stats;
  r_workloads : workload_report list;  (** sorted by name *)
  r_drained : bool;  (** every admitted request completed *)
  r_stopped_by : string;  (** ["completed"] or ["signal"] *)
  r_seed : int option;
  r_burst : float option;
  r_mix : (string * float) list;
  r_services : (string * P.service) list;
      (** every compiled service by name — not serialized by
          {!report_json}; the CLI's [--strict] fidelity gate probes
          these after the drain *)
}

(** Run the daemon until the load is exhausted (selftest), the socket
    loop is stopped (daemon mode), or {!request_stop} fires. At least
    one of [load] / [socket] must be given. [socket] is a filesystem
    path for the Unix-domain listener; it is unlinked on shutdown.
    Raises [Invalid_argument] when neither source of requests is
    given. *)
val run : ?load:load -> ?socket:string -> config -> report

(** Ask the running {!run} loop to stop admitting and drain — safe
    from a signal handler (one atomic store). *)
val request_stop : unit -> unit

(** The report as one JSON object, the shape [ci/serve-schema.json]
    pins; the CLI prints it and the benchmark embeds it. *)
val report_json : report -> Commset_obs.Json_strict.t

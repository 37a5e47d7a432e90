(** The real multicore execution backend: runs a parallelization plan on
    actual OCaml 5 domains instead of the discrete-event simulator. Both
    engines execute the prepared program itself — the measured walls are
    the program's own work, never a replay of the cost model.

    {b Real engine} (default): the coordinator domain runs the whole
    program and dispatches every target-loop iteration's live register
    file to worker domains, which execute the full iteration body
    against the shared machine, with commset locks, an iteration
    frontier for value-carrying dependences and per-domain buffering of
    order-free updates ({!Realexec}). When
    {!Commset_runtime.Precompile.plan_real} rejects the loop shape, the
    run raises a CS014 diagnostic carrying the reason.

    {b Codegen engine} ([Codegen_engine], [--engine=codegen]): the real
    engine with the iteration body compiled to native OCaml
    ({!Commset_codegen.Codegen}) instead of interpreted — same
    coordinator/worker split, locks, frontier and buffering, with
    straight-line compiled code inside each iteration. When translation,
    the toolchain or dynlinking fails, the run degrades to the
    interpreted real engine and reports why in [x_engine_reason].

    Every run performs a mandatory output-equivalence check: a fresh
    sequential execution of the prepared program is the reference (and
    the real engine's timed sequential leg; a compiled run times its
    own compiled sequential leg), and the parallel output must match it
    exactly — up to multiset order for outputs the commset annotations
    declare commutative ({!Equiv}).

    TM and speculative plans are rejected ({!supported}): software
    transactions exist only in the simulator's optimistic model; there
    is no STM to run them on.

    Observability: the run, the sequential reference, the coordinator,
    every worker and the merge are wrapped in flight-recorder spans
    (category ["exec"]); the [exec.*] metrics record runs, contended
    acquires, queue and frontier waits, buffered updates, worker
    instructions retired and merge-phase timings (real concurrency
    measurements, no cross-run determinism promise). *)

module Plan = Commset_transforms.Plan
module Sync = Commset_transforms.Sync
module Pdg = Commset_pdg.Pdg
module R = Commset_runtime

(** Which realization executes the plan's target loop. *)
type engine = Real_engine | Codegen_engine

(** Every engine under its CLI flag value (["real"], ["codegen"]). *)
val engines : (string * engine) list

val engine_name : engine -> string

(** Worker-domain count to use when the caller does not pin one:
    [Domain.recommended_domain_count () - 1] (one domain is the
    coordinator), at least 1. *)
val default_jobs : unit -> int

type stats = {
  x_label : string;  (** the executed plan's label *)
  x_engine : string;
      (** engine that actually ran: ["codegen"] or ["real"] (after a
          codegen fallback this differs from the requested engine) *)
  x_threads : int;  (** worker domains occupied *)
  x_wall_seq_s : float;
      (** sequential leg on the same engine: the fresh interpreted run for
          the real engine; for codegen, the backbone driving the compiled
          body inline on one domain *)
  x_wall_par_s : float;  (** parallel leg, spawn/join barriers excluded *)
  x_measured_speedup : float;  (** [x_wall_seq_s /. x_wall_par_s] *)
  x_verdict : Equiv.verdict;
  x_lock_contended : int;
  x_queue_full_waits : int;  (** blocking episodes on full queues/rings *)
  x_queue_empty_waits : int;  (** blocking episodes on empty queues/rings *)
  x_iterations : int;  (** loop iterations executed (see [Realexec.r_iterations]) *)
  x_frontier_waits : int;  (** frontier blocking episodes *)
  x_buffered_updates : int;  (** updates buffered per-domain *)
  x_steps : int;  (** instructions retired, all domains *)
  x_merge_s : float;  (** merge-phase seconds *)
  x_outputs : string list;  (** the parallel run's full output stream *)
  x_engine_reason : string option;
      (** when [x_engine] differs from the requested engine: why the
          codegen run fell back (toolchain, body shape) *)
  x_codegen_cache_hit : bool;
      (** codegen engine: compiled body reused from the cache *)
  x_codegen_compile_s : float;
      (** codegen engine: compiler seconds spent this run (0 on hits) *)
  x_attrib : Commset_obs.Attrib.summary option;
      (** per-cause attribution of worker iteration wall time and
          coordinator utilization ({!Commset_obs.Attrib}); [None] with
          [~attrib:false] *)
}

(** Can this plan run on the real backend? [Error reason] for TM and
    speculative variants. *)
val supported : Plan.t -> (unit, string) result

(** Execute [plan] on real domains. [engine] defaults to [Real_engine];
    [jobs] (worker domains) defaults to {!default_jobs}. Raises a CS014
    {!Diag.Error} for unsupported plans and for target loops
    {!Commset_runtime.Precompile.plan_real} refuses (the message carries
    its reason), and an internal error if the fresh sequential
    reference diverges from the recorded trace. [pdg], [trace] and
    [sync] must come from the same compilation as [prepared]; [locks]
    is the plan's lock registry from its emission
    ({!Commset_transforms.Emit.t}); [setup] prepares each fresh
    machine. [attrib] (default [true]) controls the per-iteration
    attribution layer; pass [false] for zero-overhead measurement
    runs. *)
val run :
  ?engine:engine ->
  ?jobs:int ->
  ?attrib:bool ->
  plan:Plan.t ->
  pdg:Pdg.t ->
  trace:R.Trace.t ->
  locks:R.Sim.lock_spec array ->
  sync:Sync.t ->
  prepared:R.Precompile.t ->
  setup:(R.Machine.t -> unit) ->
  unit ->
  stats

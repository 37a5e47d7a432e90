(** The real multicore execution backend: runs a compiled program, either
    sequentially ({!run_seq}) or under a parallelization plan on actual
    OCaml 5 domains instead of the discrete-event simulator ({!run}).
    Both engines execute the prepared program itself — the measured
    walls are the program's own work, never a replay of the cost model.

    {b Real engine} (default): the coordinator domain executes the whole
    prepared program but only the target loop's control backbone
    ({!Commset_runtime.Precompile.plan_real}), dispatching each
    iteration's live register file over an SPSC ring to one of [jobs]
    worker domains, which execute the full iteration body against the
    shared machine and global slots. When [plan_real] rejects the loop
    shape, the run raises a CS014 diagnostic carrying the reason.

    {b Codegen engine} ([Codegen_engine], [--engine=codegen]): the real
    engine with the iteration body compiled to native OCaml
    ({!Commset_codegen.Codegen}) instead of interpreted — same
    coordinator/worker split, locks, frontier and buffering, with
    straight-line compiled code inside each iteration. When translation,
    the toolchain or dynlinking fails, the run degrades to the
    interpreted real engine and reports why in [x_engine_reason].

    Correctness is layered:

    - {e commset locks}: workers acquire each node's ranked commset
      locks (the same lock specs the emitter registers) at node entry
      and release them at node exit — mutual exclusion for annotated
      commutative members;
    - {e machine mutex}: every builtin that touches a shared machine
      resource runs under one spin lock, except entry-local operations
      on handles allocated by the same iteration (private bitmaps run
      lock-free on a cached payload);
    - {e iteration frontier}: value-carrying dependences — carried
      memory dependences through globals/heap (annotated or not) and
      order-sensitive builtins (RNG, DB cursor, packet queue, shared
      bitmaps) — execute in iteration order behind an advancing
      frontier. Expected per-iteration event counts derived from the
      trace release the frontier as early as the last ordered event of
      an iteration, so downstream compute overlaps (DOACROSS); loops
      with uncountable ordered nodes release only at iteration end;
    - {e update buffering}: order-free update families (stats,
      histogram, vector, log) whose results are not read inside the
      loop are buffered per-domain and replayed in iteration order at
      loop exit — the merged state is bit-identical to sequential
      execution, float accumulation order included;
    - {e output routing}: worker output lines are buffered per-domain
      with monotonic timestamps and merged at loop exit; the mandatory
      equivalence check then judges the full stream.

    Where each layer applies is resolved before the workers start:
    {!analyse} maps every instruction to its node only when that node
    holds locks or takes part in the frontier (an {e action node}), and
    every builtin gets one route (free, machine-mutexed, ordered,
    private bitmap or buffered) in a table indexed by its id. A worker
    pays one array read per instruction and per builtin call, and
    synchronizes only where the plan put synchronization. Nothing else
    runs in the timed window, so a measured speedup is bounded by the
    worker count like any real one. TM and speculative plans are
    rejected ({!supported}): there is no STM to run them on.

    Observability: the run, the sequential reference, the coordinator,
    every worker and the merge are wrapped in flight-recorder spans
    (category ["exec"]); the [exec.*] metrics record runs, contended
    acquires, queue and frontier waits, buffered updates, worker
    instructions retired and merge-phase timings (real concurrency
    measurements, no cross-run determinism promise). {!run_seq}, the
    daemon's per-request path, records nothing. *)

module Plan = Commset_transforms.Plan
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
  x_lock_contended : int;  (** commset-lock + machine-mutex contention *)
  x_queue_full_waits : int;  (** coordinator blocked on full rings *)
  x_queue_empty_waits : int;  (** workers blocked on empty rings *)
  x_iterations : int;
      (** iterations executed: dispatched to workers, plus those a
          re-entered target loop runs inline once the workers retired *)
  x_frontier_waits : int;  (** frontier blocking episodes *)
  x_buffered_updates : int;  (** commutative updates buffered per-domain *)
  x_steps : int;  (** instructions retired, all domains *)
  x_merge_s : float;  (** merge-phase (replay + output) seconds *)
  x_outputs : string list;  (** the parallel run's full merged output stream *)
  x_engine_reason : string option;
      (** when [x_engine] differs from the requested engine: why the
          codegen run fell back (toolchain, body shape) *)
  x_codegen_cache_hit : bool;
      (** codegen engine: compiled body reused from the cache *)
  x_codegen_compile_s : float;
      (** codegen engine: compiler seconds spent this run (0 on hits) *)
  x_attrib : Commset_obs.Attrib.summary option;
      (** per-cause attribution of worker-iteration wall time (dispatch
          wait, per-commset lock wait, frontier wait, builtin, compute)
          plus coordinator utilization ({!Commset_obs.Attrib}); [None]
          with [~attrib:false] *)
}

(** Can this plan run on the real backend? [Error reason] for TM and
    speculative variants. *)
val supported : Plan.t -> (unit, string) result

(** What one sequential run ({!run_seq}) gives back. *)
type seq = {
  seq_outputs : string list;  (** the output stream *)
  seq_wall_s : float;  (** wall seconds of the run, set-up excluded *)
  seq_cycles : float;  (** the cost model's simulated cycle total *)
}

(** The sequential entry: a fresh machine, [setup] applied, one fast-loop
    {!Commset_runtime.Precompile.run_main} of the prepared program.
    Safe to call concurrently from any number of domains — the prepared
    program is shared read-only and each call owns its executor and
    machine. *)
val run_seq : prepared:R.Precompile.t -> setup:(R.Machine.t -> unit) -> seq

(** Merge per-worker buffers (each newest-first, as accumulated) into
    replay order: concatenation of the reversed buffers, stable-sorted
    on the key. Because the sort is stable and — for iteration-keyed
    update buffers — every iteration belongs to exactly one worker, the
    result is independent of how iterations were distributed over
    workers: always the exact sequential order. Exposed for the
    order-insensitivity property test. *)
val merge_order : compare:('k -> 'k -> int) -> ('k * 'a) list array -> ('k * 'a) list

(** The name of the route a worker runs a builtin by when its update
    family is, or is not, buffered. Exposed for the builtin-facts golden. *)
val describe_route : buffered:bool -> R.Builtins.t -> string

(** Where a plan puts synchronization, resolved once per run before any
    worker starts. *)
type ordering = {
  o_ordered : bool array;  (** nid -> entry/exit participates in the frontier *)
  o_entry_await : bool array;  (** nid -> await the frontier at node entry *)
  o_node_locks : int array array;  (** nid -> commset lock indices, rank order *)
  o_action : int array;
      (** iid -> its node when that is an {e action node} — one that
          holds commset locks, is frontier-ordered or awaits the
          frontier at entry — and -1 otherwise. Workers transition only
          at action boundaries: entering or leaving any other node would
          only move the current-node marker. *)
  o_expected : int array;  (** iteration -> expected ordered-event count *)
  o_counting : bool;  (** false: release only at iteration end (uncounted mode) *)
}

(** The ordering of [plan]'s target loop; [locks] is the plan's lock
    registry. Exposed for the action-map property test. *)
val analyse :
  plan:Plan.t ->
  pdg:Pdg.t ->
  trace:R.Trace.t ->
  locks:R.Sim.lock_spec array ->
  rt:R.Precompile.rtarget ->
  ordering

(** {!run} without the sequential reference, for the tests that drive
    the engine under a set-up the reference would trap on: [plan]'s
    target loop on [jobs] worker domains plus a coordinator, on a fresh
    machine built by [setup]. With [Codegen_engine] the body is first
    compiled, with node transitions only at the action boundaries of
    [o_action], and the compiled sequential leg runs before the
    parallel one; its outputs and wall seconds come back beside the
    stats ([None] after a fallback to the interpreted body). The stats'
    [x_wall_seq_s] and [x_measured_speedup] are [nan] and [x_verdict]
    is [Mismatch]: only {!run} judges a run. Raises what {!run} raises
    for a refused loop, and whatever a worker iteration raises (after
    joining all domains). *)
val engine_leg :
  ?engine:engine ->
  ?attrib:bool ->
  plan:Plan.t ->
  pdg:Pdg.t ->
  trace:R.Trace.t ->
  locks:R.Sim.lock_spec array ->
  prepared:R.Precompile.t ->
  setup:(R.Machine.t -> unit) ->
  jobs:int ->
  unit ->
  stats * (string list * float) option

(** Execute [plan] on real domains. [engine] defaults to [Real_engine];
    [jobs] (worker domains) defaults to {!default_jobs}. Runs the
    sequential reference ({!run_seq}; the real engine's timed
    sequential leg), then {!engine_leg}, and fills the three
    reference-dependent fields; [judge] — the compile's one output
    rule — gives the verdict on the parallel output stream. Raises a
    CS014 {!Diag.Error} for
    unsupported plans and for target loops [plan_real] refuses, and an
    internal error if the fresh sequential reference diverges from the
    recorded trace. [pdg] and [trace] must come from the same
    compilation as [prepared]; [locks] is the plan's lock registry from
    its emission ({!Commset_transforms.Emit.t}); [setup] prepares each
    fresh machine. [attrib] (default [true]) controls the per-iteration
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
  judge:(string list -> Equiv.verdict) ->
  prepared:R.Precompile.t ->
  setup:(R.Machine.t -> unit) ->
  unit ->
  stats

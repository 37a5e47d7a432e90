(** True parallel execution of the prepared program on OCaml 5 domains —
    the real backend's engine. The coordinator domain executes the whole
    prepared program but only the target loop's control backbone
    ({!Commset_runtime.Precompile.plan_real}), dispatching each
    iteration's live register file over an SPSC ring to one of [jobs]
    worker domains, which execute the full iteration body against the
    shared machine and global slots.

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
      equivalence check ({!Equiv}) then compares the full stream
      against a fresh sequential run.

    Where each layer applies is resolved before the workers start:
    {!analyse} maps every instruction to its node only when that node
    holds locks or takes part in the frontier (an {e action node}), and
    every builtin gets one route (free, machine-mutexed, ordered,
    private bitmap or buffered) in a table indexed by its id. A worker
    pays one array read per instruction and per builtin call, and
    synchronizes only where the plan put synchronization.

    Nothing else runs in the timed window: the wall time is the
    program's own work plus the synchronization above, so a measured
    speedup is bounded by the worker count like any real one. *)

module Plan = Commset_transforms.Plan
module Pdg = Commset_pdg.Pdg
module R = Commset_runtime

type result = {
  r_outputs : string list;  (** the full merged output stream *)
  r_wall_par_s : float;  (** parallel leg, spawn excluded *)
  r_iterations : int;
      (** iterations executed: dispatched to workers, plus those a
          re-entered target loop runs inline once the workers retired *)
  r_frontier_waits : int;  (** blocking episodes on the frontier *)
  r_lock_contended : int;  (** commset-lock + machine-mutex contention *)
  r_queue_full_waits : int;  (** coordinator blocked on full rings *)
  r_queue_empty_waits : int;  (** workers blocked on empty rings *)
  r_buffered : int;  (** commutative updates buffered per-domain *)
  r_steps : int;  (** instructions retired across all domains *)
  r_merge_s : float;  (** merge-phase (replay + output) seconds *)
  r_seq_codegen : (string list * float) option;
      (** when a compiled body ran: outputs and wall seconds of the
          codegen engine's sequential leg — the backbone driving the
          compiled body inline on one domain, timed before the parallel
          leg *)
  r_engine : string;
      (** iteration-body engine that actually ran: ["codegen"] when a
          compiled body executed, ["real"] for the interpreter *)
  r_codegen_fallback : string option;
      (** why a requested codegen run degraded to the interpreter *)
  r_codegen_cache_hit : bool;  (** compiled body came from the cache *)
  r_codegen_compile_s : float;  (** compiler seconds spent this run *)
  r_attrib : Commset_obs.Attrib.summary option;
      (** per-cause attribution of worker-iteration wall time (dispatch
          wait, per-commset lock wait, frontier wait, builtin, compute)
          plus coordinator utilization; [None] with [~attrib:false] *)
}

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

(** Execute [plan]'s target loop for real on [jobs] worker domains plus
    a coordinator. [Error reason] when the loop shape defeats the
    coordinator/worker split ({!Commset_runtime.Precompile.plan_real});
    {!Exec.run} turns it into a CS014 diagnostic. [locks] is the plan's
    lock registry from its emission; [pdg], [trace] and [locks] must
    come from the same compilation as [prepared]. Raises whatever a
    worker iteration raises (after joining all domains).

    With [~codegen:true] the iteration body is first translated and
    compiled to native code ({!Commset_codegen.Codegen}), with node
    transitions only at the action boundaries of [o_action], and
    workers run the compiled body instead of
    {!Commset_runtime.Precompile.run_iteration}; the compiled
    sequential leg ([r_seq_codegen]) runs first. Translation, toolchain
    or load failures degrade to the interpreted body with the reason in
    [r_codegen_fallback].

    [~attrib] (default [true]) controls the per-iteration attribution
    layer ({!Commset_obs.Attrib}): per-worker cause accumulators fed by
    a few clock reads per iteration and per wait episode, summarized in
    [r_attrib]. Pass [false] to measure the engine with zero
    attribution overhead (the bench harness's overhead gate does). *)
val run :
  ?codegen:bool ->
  ?attrib:bool ->
  plan:Plan.t ->
  pdg:Pdg.t ->
  trace:R.Trace.t ->
  locks:R.Sim.lock_spec array ->
  prepared:R.Precompile.t ->
  setup:(R.Machine.t -> unit) ->
  jobs:int ->
  unit ->
  (result, string) Stdlib.result

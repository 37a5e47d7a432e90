(** Emission: turn a plan plus the sequential trace into per-thread
    segment arrays for the discrete-event simulator — the multi-threaded
    code-generation step of the paper's compiler at trace granularity
    (round-robin iterations for DOALL; per-stage threads, replicated loop
    control, and bounded queues for the pipelines; locks / transactions /
    library-internal serialization per synchronization variant).

    The trace is first lowered into a plan-independent form ({!lower}):
    every node instance becomes a pre-built segment array, with
    consecutive compute and builtin costs folded into one run-length
    [Compute]. Lower once per evaluation and share the result read-only
    across the plans; per-plan {!emit} is then an index walk that
    resolves lock ids and transaction footprints once per node. It walks
    twice, counting each thread's segments and then filling arrays of
    exactly that length. *)

module Pdg = Commset_pdg.Pdg
module Trace = Commset_runtime.Trace
module Sim = Commset_runtime.Sim

(** The trace lowered for emission. Immutable once built, so one value
    may be shared across domains. *)
type lowered

(** [lower ~pdg trace] — [pdg] is the PDG the trace was recorded
    against; its node names tag the segments. The plain PDG of the same
    compilation has the same nodes and names, so one lowering serves
    the plans of both. *)
val lower : pdg:Pdg.t -> Trace.t -> lowered

type t = {
  threads : Sim.seg array array;  (** per-thread program *)
  locks : Sim.lock_spec array;
      (** lock registry, ids in first-use order along the emission walk *)
  n_queues : int;
}

val emit : plan:Plan.t -> pdg:Pdg.t -> lowered -> t

(** Run an emitted plan on the simulator. The makespan covers the loop
    only; add the trace's [other_cost] for the whole program. *)
val simulate : ?record_timeline:bool -> plan:Plan.t -> t -> Sim.result

(** The reference recorders: the per-event trace recorder (one
    [Acompute] rewrite per cost event, hashtable-probed execs) and the
    hashtable profiler (one [(function, label)] entry per block), kept as
    the differential oracle of {!Commset_runtime.Trace.record} and
    {!Commset_runtime.Profile.analyze}; no library code runs them. *)

module R := Commset_runtime

(** Run the prepared program once on the hooked loop and record the
    trace of the PDG's target loop, event by event. *)
val trace :
  ?machine:R.Machine.t -> R.Precompile.t -> Commset_pdg.Pdg.t -> R.Trace.t

(** Cost folds over the lists in execution order (a [List.rev] each). *)
val exec_cost : R.Trace.node_exec -> float

val iteration_cost : R.Trace.iteration -> float

val loop_cost : R.Trace.t -> float

(** Profile the prepared program on the block-grained path into a
    [(function, label)] hashtable and rank its loops by inclusive
    cost. *)
val profile : ?machine:R.Machine.t -> R.Precompile.t -> R.Profile.t

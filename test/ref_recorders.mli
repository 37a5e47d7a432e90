(** The reference recorders, each on the reference interpreter's full
    event stream ({!Interp.hooks}): the per-event trace recorder (one
    [Acompute] rewrite per cost event, hashtable-probed execs), the
    hashtable profiler (one [(function, label)] entry per block) and the
    verifier's replay-instance recorder in its own run, kept as the
    differential oracle of the compile's one run
    ({!Commset_runtime.Profile.run}), the trace built from its log
    ({!Commset_runtime.Trace.of_log}) and {!Commset_verify.Dynamic.tap};
    no library code runs them. *)

module R := Commset_runtime

(** Run the program once on the reference interpreter and record the
    trace of the PDG's target loop, event by event. *)
val trace :
  ?machine:R.Machine.t -> R.Precompile.t -> Commset_pdg.Pdg.t -> R.Trace.t

(** Cost folds over the lists in execution order (a [List.rev] each). *)
val exec_cost : R.Trace.node_exec -> float

val iteration_cost : R.Trace.iteration -> float

val loop_cost : R.Trace.t -> float

(** Profile the program on the reference interpreter into a
    [(function, label)] hashtable and rank its loops by inclusive
    cost. *)
val profile : ?machine:R.Machine.t -> R.Precompile.t -> R.Profile.t

(** Run the program once on the reference interpreter, from a machine
    [setup] prepares, and record member instances as the verifier's
    recording run did before it moved into the compile's run: at most eight
    per member, the first [max_snapshots] with a machine and globals
    snapshot (globals in the interpreter's table order). A run that
    traps or exhausts its fuel keeps what it recorded. *)
val dynamic :
  max_snapshots:int ->
  R.Precompile.t ->
  md:Commset_core.Metadata.t ->
  setup:(R.Machine.t -> unit) ->
  Commset_verify.Dynamic.inv list

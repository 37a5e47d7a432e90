(** Per-iteration execution traces of a target loop: the compile's one
    sequential run, replayed from its event log, attributes every
    simulated cycle, builtin call, output line and predicate actual to
    the PDG node that produced it; the parallel simulator replays these
    traces under a parallelization plan. *)

module Ir = Commset_ir.Ir
module Pdg = Commset_pdg.Pdg

type atom =
  | Acompute of float
  | Abuiltin of { bi : Builtins.t; cost : float }  (** one call and the cost it charged *)
  | Aout of string

(** Predicate actuals observed for one dynamic member instance. *)
type actuals =
  | Aregion_sets of (string * Value.t list) list  (** set -> actual values *)
  | Acall_args of string * Value.t list  (** callee, argument values *)

type node_exec = {
  nid : int;
  mutable atoms : atom list;  (** reverse order *)
  mutable eactuals : actuals list;  (** reverse order, one per instance *)
}

type iteration = {
  mutable execs : node_exec list;  (** reverse order of first execution *)
  exec_tbl : (int, node_exec) Hashtbl.t;
}

type t = {
  iterations : iteration array;
  other_cost : float;  (** cycles outside the target loop *)
  outputs_before : string list;
  outputs_after : string list;
  seq_outputs : string list;  (** full sequential output, in order *)
  seq_total : float;  (** total sequential cycles *)
}

(** The stored lists in execution order (each a [List.rev]). *)
val exec_atoms : node_exec -> atom list

val exec_actuals : node_exec -> actuals list
val iteration_execs : iteration -> node_exec list
val atom_cost : atom -> float

(** The cost folds add in execution order, walking the stored lists
    without reversing them, and allocate nothing per atom or exec. *)
val exec_cost : node_exec -> float

val iteration_cost : iteration -> float
val n_iterations : t -> int

(** Total cost of all loop iterations. *)
val loop_cost : t -> float

(** Build the trace of the PDG's target loop by replaying the event log
    of the compile's one run ({!Profile.run}); the program does not run
    again. The recorder works once per logged block entry and once per
    builtin, call and return: each block is split into segments (one
    node's instructions up to the next call or node change) whose
    integer costs are presummed; costs outside the loop's nodes are
    added one by one, in reference order. *)
val of_log : Precompile.t -> Pdg.t -> Profile.log -> t

(** Update the node weights of every PDG in the list in place from the
    trace (profile-guided pipeline balancing, §4.5); the node means are
    computed once for all of them. *)
val apply_weights : t -> Pdg.t list -> unit

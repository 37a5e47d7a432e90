(** Per-iteration execution traces of a target loop: one sequential run
    attributes every simulated cycle, builtin call, output line and
    predicate actual to the PDG node that produced it; the parallel
    simulator replays these traces under a parallelization plan. *)

module Ir = Commset_ir.Ir
module Pdg = Commset_pdg.Pdg

type atom =
  | Acompute of float
  | Abuiltin of {
      bname : string;
      cost : float;
      resources : string list;
      thread_safe : bool;
      tm_safe : bool;
    }
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

val exec_atoms : node_exec -> atom list
val exec_actuals : node_exec -> actuals list
val iteration_execs : iteration -> node_exec list
val atom_cost : atom -> float
val exec_cost : node_exec -> float
val iteration_cost : iteration -> float
val n_iterations : t -> int

(** Average simulated cost of one instance of a node, for pipeline
    balancing. *)
val node_mean_cost : t -> int -> float

(** Total cost of all loop iterations. *)
val loop_cost : t -> float

(** Run the prepared program once sequentially (instrumented engine) and
    record the trace of the PDG's target loop. *)
val record : ?machine:Machine.t -> Precompile.t -> Pdg.t -> t * Machine.t

(** Update PDG node weights in place from the trace (profile-guided
    pipeline balancing, §4.5). *)
val apply_weights : t -> Pdg.t -> unit

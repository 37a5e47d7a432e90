(** Runtime profiler: attributes inclusive simulated cycles to each basic
    block (callee time counted at the call site) and ranks the program's
    loops by execution share — the hot-loop selection step of the paper's
    workflow. *)

module Ir = Commset_ir.Ir

type loop_report = {
  lr_func : string;
  lr_header : Ir.label;
  lr_cost : float;
  lr_fraction : float;  (** share of total program cycles *)
  lr_depth : int;
}

type t = { reports : loop_report list; total : float }

(** Profile the prepared program (a block-grained observed run) and rank
    its loops by inclusive cost. Block costs accumulate in one float
    array per function, indexed by label and found once per call: per
    block there is no hashing or string comparison, and the only
    allocation is the boxed reading of {!Precompile.total_cost}. *)
val analyze : ?machine:Machine.t -> Precompile.t -> t

(** The hottest outermost loop — the parallelization target. *)
val hottest : t -> loop_report option

(** Control-flow graph view of an IR function: predecessor maps, reverse
    post-order, and reachability — shared by the dataflow analyses. *)

module Ir = Commset_ir.Ir

type t = {
  func : Ir.func;
  labels : Ir.label list;  (** reachable labels in reverse post-order *)
  preds : (Ir.label, Ir.label list) Hashtbl.t;
  rpo_index : (Ir.label, int) Hashtbl.t;
}

val of_func : Ir.func -> t
val successors : t -> Ir.label -> Ir.label list
val predecessors : t -> Ir.label -> Ir.label list
val reachable_labels : t -> Ir.label list
val rpo_index : t -> Ir.label -> int

(** [can_reach t ~avoiding src dst]: is there a non-empty path from [src]
    to [dst] that never enters a label in [avoiding]? *)
val can_reach : t -> avoiding:Ir.label list -> Ir.label -> Ir.label -> bool

(** Strongly connected components of a PDG and the DAG-SCC used by the
    DSWP family (§4.4–4.5). The edge list is a parameter so callers can
    pass {!Pdg.effective_edges} (commutativity annotations applied). *)

type t = {
  comps : int list array;  (** component id -> member node ids *)
  comp_of : int array;  (** node id -> component id *)
  dag_succs : int list array;  (** component DAG edges *)
  topo : int list;  (** component ids in topological order *)
  carried_internal : bool array;
      (** component id -> has a loop-carried edge among its own members *)
}

(** Component ids are numbered in topological order (sources first). *)
val compute : Pdg.t -> edges:Pdg.edge list -> t

val members : t -> int -> int list
val component_of : t -> int -> int
val has_carried_dep : t -> int -> bool
val component_weight : Pdg.t -> t -> int -> float

(** Components whose members are all loop-control nodes. *)
val is_loop_control : Pdg.t -> t -> int -> bool

(** Program dependence graph of one target loop.

    Nodes are single IR instructions, branch terminators, or whole
    commutative regions (the unit of atomicity, standing in for the
    paper's outlined member functions). Edges carry register, memory or
    control dependences, a loop-carried flag, and — after Algorithm 1 —
    a commutativity annotation. *)

module Ir = Commset_ir.Ir
module Effects = Commset_analysis.Effects

type node_kind =
  | Ninstr of Ir.instr
  | Nbranch of Ir.label * Ir.operand  (** branch terminator of a block *)
  | Nregion of Ir.region * Ir.instr list  (** region super-node with its instructions *)

type node = {
  nid : int;
  kind : node_kind;
  nlabel : Ir.label;  (** block of the instr / branch / region entry *)
  rw : Effects.rw;  (** summarized memory effects *)
  mutable weight : float;  (** profile weight (simulated cycles per iteration) *)
  mutable loop_control : bool;
}

type dep_kind =
  | Kreg of Ir.reg
  | Kmem of Effects.location list  (** conflicting locations *)
  | Kcontrol

(** [Cuco]: unconditionally commutative (ignored by the transforms);
    [Cico]: inter-iteration commutative (treated as an intra-iteration
    edge). *)
type commut = Cnone | Cuco | Cico

type edge = {
  esrc : int;
  edst : int;
  ekind : dep_kind;
  carried : bool;
  mutable commut : commut;
}

type t = {
  func : Ir.func;
  loop : Commset_analysis.Loops.loop;
  nodes : node array;
  mutable edges : edge list;
  instr_node : int option array;
      (** iid -> owning node, indexed by the target function's dense iids
          ([0, func.n_instrs)); every entry of a node is that node's one
          preallocated [Some nid] *)
}

val nodes : t -> node list
val node : t -> int -> node
val edges : t -> edge list
val node_instrs : node -> Ir.instr list
val node_region : node -> Ir.region option

(** The node owning an instruction of the target function: one
    bounds-checked array read, no hashing and no allocation. [None] for
    instructions outside the loop and for negative or out-of-range
    iids. *)
val node_of_instr : t -> int -> int option

(** Edges as the transforms see them: [Cuco] edges vanish; carried
    [Cico] edges become intra-iteration edges. *)
val effective_edges : t -> edge list

val node_name : t -> node -> string
val pp_edge : t -> Format.formatter -> edge -> unit
val pp : Format.formatter -> t -> unit

(** Program dependence graph of one target loop.

    Nodes are either single IR instructions, branch terminators, or whole
    commutative regions (the unit of atomicity, standing in for the
    paper's outlined member functions). Edges carry register, memory or
    control dependences, a loop-carried flag, and — after the COMMSET
    dependence analyzer has run — a commutativity annotation:
    [Uco] (unconditionally commutative, ignored by the transforms) or
    [Ico] (inter-iteration commutative, treated as an intra-iteration
    edge). *)

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

let nodes t = Array.to_list t.nodes
let node t nid = t.nodes.(nid)
let edges t = t.edges

let node_instrs n =
  match n.kind with
  | Ninstr i -> [ i ]
  | Nbranch _ -> []
  | Nregion (_, instrs) -> instrs

let node_region n = match n.kind with Nregion (r, _) -> Some r | Ninstr _ | Nbranch _ -> None

let node_of_instr t iid =
  if iid >= 0 && iid < Array.length t.instr_node then Array.unsafe_get t.instr_node iid
  else None

(** Edges that remain after applying the commutativity annotations the way
    the transforms see them: [Cuco] edges vanish; carried [Cico] edges
    become intra-iteration edges. *)
let effective_edges t =
  List.filter_map
    (fun e ->
      match e.commut with
      | Cuco -> None
      | Cico -> Some { e with carried = false }
      | Cnone -> Some e)
    t.edges

let node_name t n =
  match n.kind with
  | Ninstr i -> Printf.sprintf "i%d" i.Ir.iid
  | Nbranch (l, _) -> Printf.sprintf "br:L%d" l
  | Nregion (r, _) -> (
      match r.Ir.rname with
      | Some name -> Printf.sprintf "region:%s" name
      | None -> Printf.sprintf "region:%d@L%d" r.Ir.rid r.Ir.rentry)
  |> fun s -> ignore t; s

let pp_edge t ppf e =
  let kind =
    match e.ekind with
    | Kreg r -> Printf.sprintf "reg %%%d" r
    | Kmem locs ->
        Fmt.str "mem {%a}" Fmt.(list ~sep:(any ",") Effects.pp_location) locs
    | Kcontrol -> "ctrl"
  in
  Fmt.pf ppf "%s -> %s [%s%s%s]"
    (node_name t t.nodes.(e.esrc))
    (node_name t t.nodes.(e.edst))
    kind
    (if e.carried then ", carried" else "")
    (match e.commut with Cnone -> "" | Cuco -> ", uco" | Cico -> ", ico")

let pp ppf t =
  Fmt.pf ppf "PDG of loop at L%d in %s@." t.loop.Commset_analysis.Loops.header t.func.Ir.fname;
  Array.iter
    (fun n ->
      Fmt.pf ppf "  node %d: %s%s w=%.1f %a@." n.nid (node_name t n)
        (if n.loop_control then " [loop-control]" else "")
        n.weight Effects.pp_rw n.rw)
    t.nodes;
  List.iter (fun e -> Fmt.pf ppf "  %a@." (pp_edge t) e) t.edges

(** Strongly connected components of a PDG and the DAG-SCC used by the
    DSWP family of transforms (paper §4.4–4.5). The edge list is a
    parameter so callers can pass {!Pdg.effective_edges} (commutativity
    annotations applied). *)

open Commset_support

type t = {
  comps : int list array;  (** component id -> member node ids *)
  comp_of : int array;  (** node id -> component id *)
  dag_succs : int list array;  (** component DAG edges *)
  topo : int list;  (** component ids in topological order *)
  carried_internal : bool array;
      (** component id -> has a loop-carried edge among its own members *)
}

let compute (pdg : Pdg.t) ~(edges : Pdg.edge list) : t =
  let g = Digraph.create () in
  Array.iter (fun n -> Digraph.add_node g n.Pdg.nid) pdg.Pdg.nodes;
  List.iter (fun e -> Digraph.add_edge g e.Pdg.esrc e.Pdg.edst) edges;
  let comps_list = Digraph.sccs g in
  let n_nodes = Array.length pdg.Pdg.nodes in
  let n_comps = List.length comps_list in
  let comps = Array.make n_comps [] in
  let comp_of = Array.make n_nodes (-1) in
  (* Tarjan emits reverse topological order; re-number so that component
     ids follow topological order (sources first) *)
  List.iteri
    (fun rev_i members ->
      let cid = n_comps - 1 - rev_i in
      comps.(cid) <- members;
      List.iter (fun nid -> comp_of.(nid) <- cid) members)
    comps_list;
  let dag = Array.make n_comps [] in
  List.iter
    (fun e ->
      let a = comp_of.(e.Pdg.esrc) and b = comp_of.(e.Pdg.edst) in
      if a <> b && not (List.mem b dag.(a)) then dag.(a) <- b :: dag.(a))
    edges;
  let carried_internal = Array.make n_comps false in
  List.iter
    (fun e ->
      if e.Pdg.carried && comp_of.(e.Pdg.esrc) = comp_of.(e.Pdg.edst) then
        carried_internal.(comp_of.(e.Pdg.esrc)) <- true)
    edges;
  (* verify the renumbering is topological; Tarjan guarantees it *)
  let topo = List.init n_comps (fun i -> i) in
  Array.iteri (fun a succs -> List.iter (fun b -> assert (a < b || a = b)) succs) dag;
  { comps; comp_of; dag_succs = dag; topo; carried_internal }

let members t cid = t.comps.(cid)
let component_of t nid = t.comp_of.(nid)
let has_carried_dep t cid = t.carried_internal.(cid)

let component_weight (pdg : Pdg.t) t cid =
  Listx.sum_float (fun nid -> pdg.Pdg.nodes.(nid).Pdg.weight) t.comps.(cid)

(** Components whose members are all loop-control nodes. *)
let is_loop_control (pdg : Pdg.t) t cid =
  List.for_all (fun nid -> pdg.Pdg.nodes.(nid).Pdg.loop_control) t.comps.(cid)

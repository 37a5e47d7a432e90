(** Control-flow graph view of an IR function: predecessor maps, reverse
    post-order, and reachability — shared by the dataflow analyses. *)

module Ir = Commset_ir.Ir

type t = {
  func : Ir.func;
  labels : Ir.label list;  (** reachable labels in reverse post-order *)
  preds : (Ir.label, Ir.label list) Hashtbl.t;
  rpo_index : (Ir.label, int) Hashtbl.t;
}

let of_func (func : Ir.func) =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs label =
    if not (Hashtbl.mem visited label) then begin
      Hashtbl.add visited label ();
      List.iter dfs (Ir.successors (Ir.block func label));
      order := label :: !order
    end
  in
  dfs func.Ir.entry;
  let labels = !order in
  let preds = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace preds l []) labels;
  List.iter
    (fun l ->
      List.iter
        (fun s ->
          if Hashtbl.mem visited s then
            Hashtbl.replace preds s (l :: Hashtbl.find preds s))
        (Ir.successors (Ir.block func l)))
    labels;
  List.iter (fun l -> Hashtbl.replace preds l (List.sort_uniq compare (Hashtbl.find preds l))) labels;
  let rpo_index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace rpo_index l i) labels;
  { func; labels; preds; rpo_index }

let successors t label = Ir.successors (Ir.block t.func label)
let predecessors t label = Option.value ~default:[] (Hashtbl.find_opt t.preds label)
let reachable_labels t = t.labels
let rpo_index t label = Hashtbl.find t.rpo_index label

(** [can_reach t ~avoiding src dst]: is there a non-empty path from [src]
    to [dst] that never enters a label in [avoiding]? *)
let can_reach t ~avoiding src dst =
  let seen = Hashtbl.create 16 in
  let rec go l =
    if Hashtbl.mem seen l || List.mem l avoiding then false
    else begin
      Hashtbl.add seen l ();
      l = dst || List.exists go (successors t l)
    end
  in
  List.exists go (successors t src)

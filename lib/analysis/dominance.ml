(** Dominator and post-dominator trees (Cooper–Harvey–Kennedy iterative
    algorithm over reverse post-order). Post-dominance is computed on the
    reverse CFG with a virtual exit joining every [Ret] block. *)

module Ir = Commset_ir.Ir

type t = {
  idom : (Ir.label, Ir.label) Hashtbl.t;  (** immediate dominator; entry absent *)
  root : Ir.label;
}

(* generic CHK over an explicit graph *)
let compute_generic ~root ~nodes ~preds =
  (* nodes must be in reverse post-order starting with root *)
  let index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace index n i) nodes;
  let idom = Hashtbl.create 16 in
  Hashtbl.replace idom root root;
  let intersect a b =
    let rec walk a b =
      if a = b then a
      else if Hashtbl.find index a > Hashtbl.find index b then walk (Hashtbl.find idom a) b
      else walk a (Hashtbl.find idom b)
    in
    walk a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if n <> root then begin
          let processed = List.filter (Hashtbl.mem idom) (preds n) in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if Hashtbl.find_opt idom n <> Some new_idom then begin
                Hashtbl.replace idom n new_idom;
                changed := true
              end
        end)
      nodes
  done;
  Hashtbl.remove idom root;
  { idom; root }

let compute (cfg : Cfg.t) =
  compute_generic ~root:cfg.Cfg.func.Ir.entry ~nodes:(Cfg.reachable_labels cfg)
    ~preds:(Cfg.predecessors cfg)

let idom t label = if label = t.root then None else Hashtbl.find_opt t.idom label

let rec dominates t a b =
  (* does a dominate b? (reflexive) *)
  if a = b then true
  else match idom t b with None -> false | Some d -> dominates t a d

(** All dominators of [label], from itself up to the root. *)
let dominators t label =
  let rec up acc l = match idom t l with None -> List.rev (l :: acc) | Some d -> up (l :: acc) d in
  up [] label

(* ------------------------------------------------------------------ *)
(* Post-dominance                                                      *)
(* ------------------------------------------------------------------ *)

type post = { pdom : t; virtual_exit : Ir.label }

let compute_post (cfg : Cfg.t) =
  let labels = Cfg.reachable_labels cfg in
  let virtual_exit = -1 in
  let exits =
    List.filter
      (fun l -> match (Ir.block cfg.Cfg.func l).Ir.term with Ir.Ret _ -> true | _ -> false)
      labels
  in
  (* reverse graph: successors become predecessors *)
  let rsuccs l = if l = virtual_exit then exits else Cfg.predecessors cfg l in
  let rpreds l =
    if l = virtual_exit then []
    else
      let s = Cfg.successors cfg l in
      if List.mem l exits then virtual_exit :: s else s
  in
  (* reverse post-order of the reverse graph from the virtual exit *)
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      List.iter dfs (rsuccs l);
      order := l :: !order
    end
  in
  dfs virtual_exit;
  let pdom = compute_generic ~root:virtual_exit ~nodes:!order ~preds:rpreds in
  { pdom; virtual_exit }

let post_dominates p a b = dominates p.pdom a b

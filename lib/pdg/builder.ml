(** PDG construction for one target loop (paper §4.3).

    Register dependences come from loop-restricted reaching definitions,
    memory dependences from effect-summary conflicts (with the paper's
    conservative loop-carried rule: any pair of conflicting accesses to
    shared state yields carried edges in both directions, with
    privatized locations exempt), and control dependences from the
    post-dominance criterion. Commutative regions are super-nodes. *)

module Ir = Commset_ir.Ir
module A = Commset_analysis
module Effects = A.Effects

type input = {
  func : Ir.func;
  cfg : A.Cfg.t;
  dom : A.Dominance.t;
  post : A.Dominance.post;
  loop : A.Loops.loop;
  effects : Effects.t;
  lookup : Effects.lookup;
  priv : A.Privatization.t;
  induction : A.Induction.t;
  reaching : A.Reaching.t;
}

let in_loop (inp : input) l = List.mem l inp.loop.A.Loops.body

(* the region (entered inside the loop) that governs a block, if any:
   the outermost such region on the block's region stack *)
let governing_region (inp : input) (b : Ir.block) =
  let entered_in_loop rid =
    match Ir.find_region inp.func rid with
    | Some r -> in_loop inp r.Ir.rentry
    | None -> false
  in
  let candidates = List.filter entered_in_loop b.Ir.bregions in
  match List.rev candidates with [] -> None | outermost :: _ -> Some outermost

(* ------------------------------------------------------------------ *)
(* Nodes                                                               *)
(* ------------------------------------------------------------------ *)

(* Nodes in creation order, plus the dense iid -> node map: every
   instruction of a node points at the node's one [Some nid]. *)
let build_nodes (inp : input) =
  let nodes = ref [] in
  let instr_node = Array.make inp.func.Ir.n_instrs None in
  let region_node : (int, int option) Hashtbl.t = Hashtbl.create 8 in
  let next = ref 0 in
  let fresh () =
    let n = !next in
    incr next;
    n
  in
  let instr_rw i = Effects.instr_rw inp.effects ~fname:inp.func.Ir.fname i in
  let loop_blocks =
    List.filter (in_loop inp) inp.func.Ir.block_order
  in
  List.iter
    (fun l ->
      let b = Ir.block inp.func l in
      match governing_region inp b with
      | Some rid ->
          let owner =
            match Hashtbl.find_opt region_node rid with
            | Some owner -> owner
            | None ->
                let nid = fresh () in
                let owner = Some nid in
                Hashtbl.replace region_node rid owner;
                let region =
                  match Ir.find_region inp.func rid with
                  | Some r -> r
                  | None -> assert false
                in
                nodes :=
                  {
                    Pdg.nid;
                    kind = Pdg.Nregion (region, []);
                    nlabel = region.Ir.rentry;
                    rw = Effects.rw_empty;
                    weight = 0.;
                    loop_control = false;
                  }
                  :: !nodes;
                owner
          in
          List.iter (fun i -> instr_node.(i.Ir.iid) <- owner) b.Ir.instrs
      | None ->
          List.iter
            (fun i ->
              let nid = fresh () in
              instr_node.(i.Ir.iid) <- Some nid;
              nodes :=
                {
                  Pdg.nid;
                  kind = Pdg.Ninstr i;
                  nlabel = l;
                  rw = instr_rw i;
                  weight = 1.;
                  loop_control = false;
                }
                :: !nodes)
            b.Ir.instrs;
          (match b.Ir.term with
          | Ir.Branch (op, _, _) ->
              let nid = fresh () in
              nodes :=
                {
                  Pdg.nid;
                  kind = Pdg.Nbranch (l, op);
                  nlabel = l;
                  rw = Effects.rw_empty;
                  weight = 1.;
                  loop_control = false;
                }
                :: !nodes
          | Ir.Jump _ | Ir.Ret _ -> ()))
    loop_blocks;
  let arr = Array.of_list (List.rev !nodes) in
  Array.iteri (fun i n -> assert (n.Pdg.nid = i)) arr;
  (* fill region nodes: collect member instructions and summarize effects *)
  let arr =
    Array.map
      (fun n ->
        match n.Pdg.kind with
        | Pdg.Nregion (r, _) ->
            let instrs =
              List.concat_map
                (fun l ->
                  let b = Ir.block inp.func l in
                  if governing_region inp b = Some r.Ir.rid then b.Ir.instrs else [])
                loop_blocks
            in
            let rw =
              List.fold_left
                (fun acc i -> Effects.rw_union acc (instr_rw i))
                Effects.rw_empty instrs
            in
            {
              n with
              Pdg.kind = Pdg.Nregion (r, instrs);
              rw;
              weight = float_of_int (List.length instrs);
            }
        | _ -> n)
      arr
  in
  (arr, instr_node)

(* ------------------------------------------------------------------ *)
(* Loop-control marking                                                *)
(* ------------------------------------------------------------------ *)

let mark_loop_control (inp : input) (pdg : Pdg.t) =
  let nodes = pdg.Pdg.nodes in
  let header = inp.loop.A.Loops.header in
  (* the header branch and every header instruction feeding it *)
  let header_block = Ir.block inp.func header in
  Array.iter
    (fun n ->
      match n.Pdg.kind with
      | Pdg.Nbranch (l, _) when l = header -> n.Pdg.loop_control <- true
      | _ -> ())
    nodes;
  (match header_block.Ir.term with
  | Ir.Branch (op, _, _) ->
      (* walk backwards through header instrs that transitively feed the
         branch operand *)
      let needed = ref (match op with Ir.Reg r -> [ r ] | Ir.Const _ -> []) in
      List.iter
        (fun i ->
          let defs = Ir.instr_defs i in
          if List.exists (fun d -> List.mem d !needed) defs then begin
            (match Pdg.node_of_instr pdg i.Ir.iid with
            | Some nid -> nodes.(nid).Pdg.loop_control <- true
            | None -> ());
            needed := Ir.instr_uses i @ !needed
          end)
        (List.rev header_block.Ir.instrs)
  | _ -> ());
  (* basic induction variable updates: the Move and its feeding Binop *)
  let tbl = A.Induction.defs_table inp.func inp.loop in
  List.iter
    (fun iv ->
      match A.Induction.unique_def tbl iv.A.Induction.iv_reg with
      | Some ({ Ir.desc = Ir.Move (_, Ir.Reg t); _ } as mv) -> (
          (match Pdg.node_of_instr pdg mv.Ir.iid with
          | Some nid -> nodes.(nid).Pdg.loop_control <- true
          | None -> ());
          match A.Induction.unique_def tbl t with
          | Some bi -> (
              match Pdg.node_of_instr pdg bi.Ir.iid with
              | Some nid -> nodes.(nid).Pdg.loop_control <- true
              | None -> ())
          | None -> ())
      | _ -> ())
    (A.Induction.basic_ivs inp.induction)

(* ------------------------------------------------------------------ *)
(* Edges                                                               *)
(* ------------------------------------------------------------------ *)

let register_edges (inp : input) (pdg : Pdg.t) =
  let edges = ref [] in
  let add esrc edst ekind carried =
    if esrc <> edst || carried then
      edges := { Pdg.esrc; edst; ekind; carried; commut = Pdg.Cnone } :: !edges
  in
  let handle_use dst_nid ~intra_defs ~carried_defs reg =
    List.iter
      (fun def_iid ->
        match Pdg.node_of_instr pdg def_iid with
        | Some src_nid -> add src_nid dst_nid (Pdg.Kreg reg) false
        | None -> ())
      intra_defs;
    List.iter
      (fun def_iid ->
        match Pdg.node_of_instr pdg def_iid with
        | Some src_nid -> add src_nid dst_nid (Pdg.Kreg reg) true
        | None -> ())
      carried_defs
  in
  Array.iter
    (fun n ->
      match n.Pdg.kind with
      | Pdg.Ninstr i ->
          List.iter
            (fun r ->
              handle_use n.Pdg.nid
                ~intra_defs:(A.Reaching.intra_defs inp.reaching ~use_iid:i.Ir.iid ~reg:r)
                ~carried_defs:(A.Reaching.carried_defs inp.reaching ~use_iid:i.Ir.iid ~reg:r)
                r)
            (Ir.instr_uses i)
      | Pdg.Nbranch (l, op) ->
          List.iter
            (fun r ->
              handle_use n.Pdg.nid
                ~intra_defs:(A.Reaching.intra_defs_at_end inp.reaching ~label:l ~reg:r)
                ~carried_defs:(A.Reaching.carried_defs_at_end inp.reaching ~label:l ~reg:r)
                r)
            (Ir.operand_uses op)
      | Pdg.Nregion (r, instrs) ->
          List.iter
            (fun i ->
              List.iter
                (fun reg ->
                  handle_use n.Pdg.nid
                    ~intra_defs:(A.Reaching.intra_defs inp.reaching ~use_iid:i.Ir.iid ~reg)
                    ~carried_defs:(A.Reaching.carried_defs inp.reaching ~use_iid:i.Ir.iid ~reg)
                    reg)
                (Ir.instr_uses i))
            instrs;
          (* terminators of region-member blocks *)
          List.iter
            (fun l ->
              let b = Ir.block inp.func l in
              if governing_region inp b = Some r.Ir.rid then
                List.iter
                  (fun reg ->
                    handle_use n.Pdg.nid
                      ~intra_defs:(A.Reaching.intra_defs_at_end inp.reaching ~label:l ~reg)
                      ~carried_defs:(A.Reaching.carried_defs_at_end inp.reaching ~label:l ~reg)
                      reg)
                  (Ir.term_uses b.Ir.term))
            inp.loop.A.Loops.body)
    pdg.Pdg.nodes;
  !edges

(* can n1 execute before n2 within a single iteration? *)
let intra_precedes (inp : input) (n1 : Pdg.node) (n2 : Pdg.node) =
  if n1.Pdg.nlabel = n2.Pdg.nlabel then begin
    (* same block: compare instruction positions; a branch is last *)
    let b = Ir.block inp.func n1.Pdg.nlabel in
    let pos (n : Pdg.node) =
      match n.Pdg.kind with
      | Pdg.Nbranch _ -> max_int
      | Pdg.Ninstr i ->
          (match Commset_support.Listx.index_of (fun j -> j.Ir.iid = i.Ir.iid) b.Ir.instrs with
          | Some p -> p
          | None -> 0)
      | Pdg.Nregion _ -> 0
    in
    pos n1 < pos n2
  end
  else
    A.Cfg.can_reach inp.cfg
      ~avoiding:[ inp.loop.A.Loops.header ]
      n1.Pdg.nlabel n2.Pdg.nlabel

let memory_edges (inp : input) (nodes : Pdg.node array) =
  let edges = ref [] in
  let nonprivate locs =
    List.filter (fun l -> not (A.Privatization.location_is_private inp.priv l)) locs
  in
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let n1 = nodes.(i) and n2 = nodes.(j) in
      if i <> j then begin
        let locs = Effects.LocSet.elements (Effects.conflict_locs n1.Pdg.rw n2.Pdg.rw) in
        if locs <> [] && Effects.conflict n1.Pdg.rw n2.Pdg.rw then begin
          if intra_precedes inp n1 n2 then
            edges :=
              { Pdg.esrc = i; edst = j; ekind = Pdg.Kmem locs; carried = false; commut = Pdg.Cnone }
              :: !edges;
          (* conservative loop-carried rule, privatized locations exempt *)
          let carried_locs = nonprivate locs in
          if carried_locs <> [] then
            edges :=
              {
                Pdg.esrc = i;
                edst = j;
                ekind = Pdg.Kmem carried_locs;
                carried = true;
                commut = Pdg.Cnone;
              }
              :: !edges
        end
      end
      else begin
        (* self dependence: the node conflicts with its own next instance *)
        let self_locs =
          Effects.LocSet.elements
            (Effects.LocSet.filter
               (fun l ->
                 Effects.sets_conflict (Effects.LocSet.singleton l)
                   (Effects.LocSet.union n1.Pdg.rw.Effects.reads n1.Pdg.rw.Effects.writes))
               n1.Pdg.rw.Effects.writes)
        in
        let self_locs = nonprivate self_locs in
        if self_locs <> [] then
          edges :=
            {
              Pdg.esrc = i;
              edst = i;
              ekind = Pdg.Kmem self_locs;
              carried = true;
              commut = Pdg.Cnone;
            }
            :: !edges
      end
    done
  done;
  !edges

let control_edges (inp : input) (nodes : Pdg.node array) =
  let edges = ref [] in
  (* block -> nodes living there (regions: all member blocks) *)
  let nodes_of_block = Hashtbl.create 32 in
  Array.iter
    (fun (n : Pdg.node) ->
      match n.Pdg.kind with
      | Pdg.Nregion (r, _) ->
          List.iter
            (fun l ->
              let b = Ir.block inp.func l in
              if governing_region inp b = Some r.Ir.rid then
                Hashtbl.add nodes_of_block l n.Pdg.nid)
            inp.loop.A.Loops.body
      | _ -> Hashtbl.add nodes_of_block n.Pdg.nlabel n.Pdg.nid)
    nodes;
  Array.iter
    (fun (n : Pdg.node) ->
      match n.Pdg.kind with
      | Pdg.Nbranch (x, _) ->
          let succs = A.Cfg.successors inp.cfg x in
          let controlled =
            List.filter
              (fun z ->
                in_loop inp z
                && List.exists
                     (fun y -> A.Dominance.post_dominates inp.post z y)
                     succs
                && not (A.Dominance.post_dominates inp.post z x))
              (A.Cfg.reachable_labels inp.cfg)
          in
          List.iter
            (fun z ->
              List.iter
                (fun nid ->
                  if nid <> n.Pdg.nid then
                    edges :=
                      {
                        Pdg.esrc = n.Pdg.nid;
                        edst = nid;
                        ekind = Pdg.Kcontrol;
                        carried = false;
                        commut = Pdg.Cnone;
                      }
                      :: !edges)
                (Hashtbl.find_all nodes_of_block z))
            controlled;
          (* the loop-governing branch controls the next iteration *)
          if x = inp.loop.A.Loops.header then
            edges :=
              {
                Pdg.esrc = n.Pdg.nid;
                edst = n.Pdg.nid;
                ekind = Pdg.Kcontrol;
                carried = true;
                commut = Pdg.Cnone;
              }
              :: !edges
      | _ -> ())
    nodes;
  !edges

let dedup_edges edges =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (e : Pdg.edge) ->
      let key = (e.Pdg.esrc, e.edst, e.carried, match e.ekind with
        | Pdg.Kreg r -> `R r
        | Pdg.Kmem _ -> `M
        | Pdg.Kcontrol -> `C)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    edges

let build (inp : input) : Pdg.t =
  let nodes, instr_node = build_nodes inp in
  let pdg = { Pdg.func = inp.func; loop = inp.loop; nodes; edges = []; instr_node } in
  mark_loop_control inp pdg;
  let edges =
    register_edges inp pdg @ memory_edges inp nodes @ control_edges inp nodes
  in
  pdg.Pdg.edges <- List.rev (dedup_edges edges);
  pdg

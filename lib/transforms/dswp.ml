(** The DSWP family of transforms (paper §4.5).

    The annotated PDG's DAG-SCC is linearized with a priority topological
    sort (replicable components first whenever available, so parallel
    work clusters into contiguous runs), then partitioned into pipeline
    stages:

    - DSWP: up to [threads] sequential stages balanced by profile weight;
    - PS-DSWP: maximal runs of replicable SCCs form parallel stages that
      share the threads left over by the sequential stages. A second
      variant additionally forces synchronization-heavy SCCs into
      sequential stages (the paper's kmeans insight: a highly contended
      commutative update runs better as a sequential stage than under
      locks), and the performance estimator picks the winner.

    Loop-control SCCs are excluded from stages — they are replicated into
    every pipeline thread, like the transforms' induction-variable
    duplication. *)

module Pdg = Commset_pdg.Pdg
module Scc = Commset_pdg.Scc
open Commset_support

type comp = {
  cid : int;
  cnodes : int list;
  cweight : float;
  creplicable : bool;
  clocked : bool;  (** contains a node that must hold locks *)
}

(* priority topological order over non-loop-control components:
   emit replicable components first whenever the DAG allows *)
let priority_topo (scc : Scc.t) (comps : comp list) =
  let by_id = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace by_id c.cid c) comps;
  let indeg = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace indeg c.cid 0) comps;
  Array.iteri
    (fun a succs ->
      if Hashtbl.mem by_id a then
        List.iter
          (fun b ->
            if Hashtbl.mem by_id b then Hashtbl.replace indeg b (1 + Hashtbl.find indeg b))
          succs)
    scc.Scc.dag_succs;
  let ready = ref (List.filter (fun c -> Hashtbl.find indeg c.cid = 0) comps) in
  let order = ref [] in
  while !ready <> [] do
    (* prefer replicable; tie-break on DAG id for determinism *)
    let pick =
      List.fold_left
        (fun best c ->
          match best with
          | None -> Some c
          | Some b ->
              if (c.creplicable && not b.creplicable)
                 || (c.creplicable = b.creplicable && c.cid < b.cid)
              then Some c
              else Some b)
        None !ready
    in
    match pick with
    | None -> ()
    | Some c ->
        ready := List.filter (fun c' -> c'.cid <> c.cid) !ready;
        order := c :: !order;
        List.iter
          (fun b ->
            if Hashtbl.mem by_id b then begin
              let d = Hashtbl.find indeg b - 1 in
              Hashtbl.replace indeg b d;
              if d = 0 then ready := Hashtbl.find by_id b :: !ready
            end)
          scc.Scc.dag_succs.(c.cid)
  done;
  List.rev !order

let components (pdg : Pdg.t) (sync : Sync.t) (scc : Scc.t) : comp list =
  List.filter_map
    (fun cid ->
      if Scc.is_loop_control pdg scc cid then None
      else
        Some
          {
            cid;
            cnodes = Scc.members scc cid;
            cweight = Scc.component_weight pdg scc cid;
            creplicable = not (Scc.has_carried_dep scc cid);
            clocked = List.exists (fun nid -> Sync.locks_of sync nid <> []) (Scc.members scc cid);
          })
    scc.Scc.topo

(* group a linearized component sequence into runs of equal class *)
let runs ~(classify : comp -> bool) (order : comp list) : (bool * comp list) list =
  List.fold_left
    (fun acc c ->
      let cls = classify c in
      match acc with
      | (cls', run) :: rest when cls' = cls -> (cls', c :: run) :: rest
      | _ -> (cls, [ c ]) :: acc)
    [] order
  |> List.rev_map (fun (cls, run) -> (cls, List.rev run))

(* Merge *parallel* stages that carry a negligible share of the profile
   weight into an adjacent stage (the lighter neighbour) — a tiny
   replicable run of bookkeeping SCCs is not worth a pipeline stage, and
   folding it into a neighbouring sequential stage collapses
   [P|S|P|S|P] chains into the paper's compact 2-3 stage pipelines.
   Sequential stages are never merged away: folding them into a parallel
   stage would force the whole merged stage sequential. A stage is small
   below 8% of the total weight. *)
let merge_small_stages (stages : (bool * comp list) list) =
  let threshold = 0.08 in
  let weight comps = Listx.sum_float (fun c -> c.cweight) comps in
  let total = Listx.sum_float (fun (_, comps) -> weight comps) stages in
  let rec step stages =
    if List.length stages <= 1 then stages
    else begin
      let arr = Array.of_list stages in
      let n = Array.length arr in
      let smallest = ref (-1) in
      Array.iteri
        (fun i (parallel, comps) ->
          if parallel && weight comps < threshold *. total then
            match !smallest with
            | -1 -> smallest := i
            | j ->
                let _, cj = arr.(j) in
                if weight comps < weight cj then smallest := i)
        arr;
      match !smallest with
      | -1 -> stages
      | i ->
          (* merge into the lighter adjacent neighbour *)
          let target =
            if i = 0 then 1
            else if i = n - 1 then n - 2
            else begin
              let _, prev = arr.(i - 1) and _, next = arr.(i + 1) in
              if weight prev <= weight next then i - 1 else i + 1
            end
          in
          let lo = min i target and hi = max i target in
          let p1, c1 = arr.(lo) and p2, c2 = arr.(hi) in
          let merged = (p1 && p2, c1 @ c2) in
          let rest =
            Array.to_list arr
            |> List.mapi (fun j s -> (j, s))
            |> List.filter_map (fun (j, s) ->
                   if j = lo then Some merged else if j = hi then None else Some s)
          in
          step rest
    end
  in
  step stages

(* allocate threads: one per sequential stage, the rest split across
   parallel stages *)
let allocate_threads ~threads (stages : (bool * comp list) list) : Plan.stage list option =
  let n_seq = List.length (List.filter (fun (p, _) -> not p) stages) in
  let n_par = List.length stages - n_seq in
  if List.length stages < 2 || threads < List.length stages then None
  else begin
    let spare = threads - n_seq in
    if n_par > 0 && spare < n_par then None
    else
      let per_par = if n_par = 0 then 0 else spare / n_par in
      let extra = if n_par = 0 then 0 else spare mod n_par in
      let par_seen = ref 0 in
      Some
        (List.map
           (fun (parallel, comps) ->
             let sthreads =
               if not parallel then 1
               else begin
                 let t = per_par + if !par_seen < extra then 1 else 0 in
                 incr par_seen;
                 max 1 t
               end
             in
             {
               Plan.snodes = List.concat_map (fun c -> c.cnodes) comps;
               sparallel = parallel;
               sthreads = (if parallel then sthreads else 1);
             })
           stages)
  end

let mk_plan ~threads ~uses_commset ~variant (sync : Sync.t) stages ~label ~series =
  {
    Plan.shape = Plan.Sdswp stages;
    threads;
    variant;
    node_locks = sync.Sync.node_locks;
    uses_commset;
    label;
    series;
    spec_ctx = None;
  }

let variant_list (sync : Sync.t) (trace : Commset_runtime.Trace.t) stages =
  (* locks matter only if a parallel stage contains locked nodes *)
  let locked_in_parallel =
    List.exists
      (fun (s : Plan.stage) ->
        s.Plan.sthreads > 1
        && List.exists (fun nid -> Sync.locks_of sync nid <> []) s.Plan.snodes)
      stages
  in
  if not locked_in_parallel then [ Plan.Lib ]
  else begin
    let base = [ Plan.Mutex; Plan.Spin ] in
    if Sync.tm_applicable sync trace then base @ [ Plan.Tm ] else base
  end

(** DSWP: balanced sequential pipeline with at most [threads] stages. *)
let dswp_plans (pdg : Pdg.t) (sync : Sync.t) (scc : Scc.t) trace ~threads ~uses_commset :
    Plan.t list =
  let comps = components pdg sync scc in
  if List.length comps < 2 || threads < 2 then []
  else begin
    let order = priority_topo scc comps in
    let total = Listx.sum_float (fun c -> c.cweight) comps in
    let n_stages = min threads (List.length comps) in
    let target = total /. float_of_int n_stages in
    (* greedy chunking over the linearized order *)
    let stages = ref [] and cur = ref [] and cur_w = ref 0. in
    List.iter
      (fun c ->
        if !cur <> [] && !cur_w +. c.cweight > target *. 1.15
           && List.length !stages + 1 < n_stages then begin
          stages := List.rev !cur :: !stages;
          cur := [ c ];
          cur_w := c.cweight
        end
        else begin
          cur := c :: !cur;
          cur_w := !cur_w +. c.cweight
        end)
      order;
    if !cur <> [] then stages := List.rev !cur :: !stages;
    let stages = List.rev !stages in
    if List.length stages < 2 then []
    else begin
      let pstages =
        List.map
          (fun comps ->
            { Plan.snodes = List.concat_map (fun c -> c.cnodes) comps; sparallel = false; sthreads = 1 })
          stages
      in
      let prefix = if uses_commset then "Comm-" else "" in
      List.map
        (fun v ->
          mk_plan ~threads ~uses_commset ~variant:v sync pstages
            ~label:
              (Printf.sprintf "%sDSWP[%d] + %s" prefix (List.length pstages)
                 (Plan.sync_variant_to_string v))
            ~series:(Printf.sprintf "%sDSWP + %s" prefix (Plan.sync_variant_to_string v)))
        (variant_list sync trace pstages)
    end
  end

(** PS-DSWP: replicable runs become parallel stages. Returns the plain
    variant and the "contended updates to a sequential stage" variant. *)
let psdswp_plans (pdg : Pdg.t) (sync : Sync.t) (scc : Scc.t) trace ~threads ~uses_commset :
    Plan.t list =
  let comps = components pdg sync scc in
  if comps = [] || threads < 2 then []
  else begin
    let order = priority_topo scc comps in
    let build classify tag =
      let rs = merge_small_stages (runs ~classify order) in
      match allocate_threads ~threads rs with
      | Some stages when List.exists (fun s -> s.Plan.sthreads > 1) stages ->
          let prefix = if uses_commset then "Comm-" else "" in
          let shape_tag =
            String.concat "|"
              (List.map
                 (fun (s : Plan.stage) ->
                   if s.Plan.sthreads > 1 then Printf.sprintf "DOALL:%d" s.Plan.sthreads else "S")
                 stages)
          in
          List.map
            (fun v ->
              mk_plan ~threads ~uses_commset ~variant:v sync stages
                ~label:
                  (Printf.sprintf "%sPS-DSWP[%s]%s + %s" prefix shape_tag tag
                     (Plan.sync_variant_to_string v))
                ~series:
                  (Printf.sprintf "%sPS-DSWP%s + %s" prefix tag
                     (Plan.sync_variant_to_string v)))
            (variant_list sync trace stages)
      | _ -> []
    in
    (* v1: parallel = replicable; v2: parallel = replicable and lock-free.
       Drop v2 when it produces the same stage structure as v1. *)
    let v1 = build (fun c -> c.creplicable) "" in
    let v2 = build (fun c -> c.creplicable && not c.clocked) " (seq-sync)" in
    let stage_sig (p : Plan.t) =
      match p.Plan.shape with
      | Plan.Sdswp stages ->
          List.map (fun (s : Plan.stage) -> (List.sort compare s.Plan.snodes, s.Plan.sthreads)) stages
      | Plan.Sdoall -> []
    in
    let v1_sigs = List.map stage_sig v1 in
    let v2 = List.filter (fun p -> not (List.mem (stage_sig p) v1_sigs)) v2 in
    v1 @ v2
  end

(** All pipeline plans. *)
let plans pdg sync scc trace ~threads ~uses_commset =
  dswp_plans pdg sync scc trace ~threads ~uses_commset
  @ psdswp_plans pdg sync scc trace ~threads ~uses_commset

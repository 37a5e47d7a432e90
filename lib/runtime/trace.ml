(** Per-iteration execution traces of a target loop.

    The trace recorder runs the program sequentially once and attributes
    every simulated cycle, builtin call, and output line to the PDG node
    that produced it (costs inside callees are attributed to the calling
    node, like the paper's outlined member functions). The parallel
    simulator then replays these traces under a parallelization plan. *)

module Ir = Commset_ir.Ir
module Pdg = Commset_pdg.Pdg

type atom =
  | Acompute of float
  | Abuiltin of { bi : Builtins.t; cost : float }  (** one call and the cost it charged *)
  | Aout of string

(** predicate actuals observed for one dynamic member instance *)
type actuals =
  | Aregion_sets of (string * Value.t list) list  (** set -> actual values *)
  | Acall_args of string * Value.t list  (** callee, argument values *)

type node_exec = {
  nid : int;
  mutable atoms : atom list;  (** reverse order *)
  mutable eactuals : actuals list;  (** predicate actuals, one per dynamic instance, reverse order *)
}

type iteration = {
  mutable execs : node_exec list;  (** reverse order of first execution *)
  exec_tbl : (int, node_exec) Hashtbl.t;
}

type t = {
  iterations : iteration array;
  other_cost : float;  (** cycles outside the target loop *)
  outputs_before : string list;
  outputs_after : string list;
  seq_outputs : string list;  (** full sequential output, in order *)
  seq_total : float;  (** total sequential cycles *)
}

let exec_atoms e = List.rev e.atoms
let exec_actuals e = List.rev e.eactuals
let iteration_execs it = List.rev it.execs

let atom_cost = function
  | Acompute c -> c
  | Abuiltin { cost; _ } -> cost
  | Aout _ -> 0.

let exec_cost e = List.fold_left (fun acc a -> acc +. atom_cost a) 0. (exec_atoms e)

let iteration_cost it =
  List.fold_left (fun acc e -> acc +. exec_cost e) 0. (iteration_execs it)

let n_iterations t = Array.length t.iterations

(** Average simulated cost of one instance of every node below
    [n_nodes], for pipeline balancing. One pass over the trace; a node
    appears at most once per iteration, so each node's instance costs
    are summed in iteration order. *)
let node_mean_costs t ~n_nodes =
  let total = Array.make n_nodes 0. and n = Array.make n_nodes 0 in
  Array.iter
    (fun it ->
      List.iter
        (fun e ->
          let nid = e.nid in
          if nid >= 0 && nid < n_nodes then begin
            total.(nid) <- total.(nid) +. exec_cost e;
            n.(nid) <- n.(nid) + 1
          end)
        it.execs)
    t.iterations;
  Array.mapi (fun nid s -> if n.(nid) = 0 then 0. else s /. float_of_int n.(nid)) total

(** Cost of the whole loop (all iterations). *)
let loop_cost t = Array.fold_left (fun acc it -> acc +. iteration_cost it) 0. t.iterations

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

type recorder = {
  pdg : Pdg.t;
  target : string;
  tfunc : Ir.func;  (** the target function record, for physical-equality
                        checks on the per-instruction hot path *)
  header : Ir.label;
  in_body : bool array;  (** label -> block of the loop body *)
  mutable cur_nid : int;  (** -1 = outside any node *)
  mutable cur_iter : iteration option;
  mutable cur_entered : bool;
      (** the current header visit went on into the body: false for the
          visit whose test exits the loop, which is not an iteration *)
  mutable cur_exec : node_exec option;
      (** cache of the [(cur_iter, cur_nid)] exec, invalidated whenever
          either changes: cost events skip the exec-table probe *)
  mutable done_iters : iteration list;  (** reverse *)
  mutable other : float;
  mutable before : string list;  (** reverse *)
  mutable after : string list;  (** reverse *)
  mutable all_outputs : string list;  (** reverse *)
  mutable saw_loop : bool;
}

let is_target rec_ (func : Ir.func) =
  func == rec_.tfunc || String.equal func.Ir.fname rec_.target

(* the node owning a region is found through its entry block's first
   instruction *)
let region_first_iid rec_ (region : Ir.region) =
  let func = rec_.pdg.Pdg.func in
  let b = Ir.block func region.Ir.rentry in
  match b.Ir.instrs with i :: _ -> i.Ir.iid | [] -> -1

let callee_name (i : Ir.instr) =
  match Ir.callee_of i with Some c -> c | None -> "<none>"

let current_exec rec_ =
  match rec_.cur_exec with
  | Some _ as s -> s
  | None -> (
      match rec_.cur_iter with
      | Some it when rec_.cur_nid >= 0 ->
          let nid = rec_.cur_nid in
          let e =
            match Hashtbl.find_opt it.exec_tbl nid with
            | Some e -> e
            | None ->
                let e = { nid; atoms = []; eactuals = [] } in
                Hashtbl.replace it.exec_tbl nid e;
                it.execs <- e :: it.execs;
                e
          in
          rec_.cur_exec <- Some e;
          Some e
      | _ -> None)

let add_compute rec_ c =
  match current_exec rec_ with
  | Some e -> (
      match e.atoms with
      | Acompute prev :: rest -> e.atoms <- Acompute (prev +. c) :: rest
      | _ -> e.atoms <- Acompute c :: e.atoms)
  | None -> rec_.other <- rec_.other +. c

let hooks_of_recorder rec_ : Precompile.hooks =
  {
    Precompile.on_instr =
      (fun func i ->
        if is_target rec_ func then begin
          let nid =
            match Pdg.node_of_instr rec_.pdg i.Ir.iid with Some nid -> nid | None -> -1
          in
          if nid <> rec_.cur_nid then begin
            rec_.cur_nid <- nid;
            rec_.cur_exec <- None
          end
        end);
    on_block =
      (fun func l ->
        if l = rec_.header then begin
          if is_target rec_ func then begin
            rec_.saw_loop <- true;
            (* an exit-only visit of an earlier entry into the loop is
               loop overhead, like the final one *)
            (match rec_.cur_iter with
            | Some it when rec_.cur_entered -> rec_.done_iters <- it :: rec_.done_iters
            | Some it -> rec_.other <- rec_.other +. iteration_cost it
            | None -> ());
            rec_.cur_iter <- Some { execs = []; exec_tbl = Hashtbl.create 16 };
            rec_.cur_entered <- false;
            rec_.cur_exec <- None
          end
        end
        else if
          (not rec_.cur_entered)
          && l >= 0
          && l < Array.length rec_.in_body
          && rec_.in_body.(l) && is_target rec_ func
        then rec_.cur_entered <- true);
    on_base_cost = (fun c -> add_compute rec_ c);
    on_builtin =
      (fun bi cost ->
        match current_exec rec_ with
        | Some e ->
            e.atoms <- Abuiltin { bi; cost } :: e.atoms
        | None -> rec_.other <- rec_.other +. cost);
    on_output =
      (fun s ->
        rec_.all_outputs <- s :: rec_.all_outputs;
        match current_exec rec_ with
        | Some e -> e.atoms <- Aout s :: e.atoms
        | None ->
            if rec_.saw_loop then rec_.after <- s :: rec_.after
            else rec_.before <- s :: rec_.before);
    on_enter_func = (fun _ -> ());
    on_exit_func = (fun _ -> ());
    on_region_enter =
      (fun func region actuals _regs ->
        if is_target rec_ func then
          match rec_.cur_iter with
          | Some it -> (
              match Pdg.node_of_instr rec_.pdg (region_first_iid rec_ region) with
              | Some nid ->
                  let e =
                    match Hashtbl.find_opt it.exec_tbl nid with
                    | Some e -> e
                    | None ->
                        let e = { nid; atoms = []; eactuals = [] } in
                        Hashtbl.replace it.exec_tbl nid e;
                        it.execs <- e :: it.execs;
                        e
                  in
                  e.eactuals <- Aregion_sets actuals :: e.eactuals
              | None -> ())
          | None -> ());
    on_call_actuals =
      (fun i argv _enables ->
        match current_exec rec_ with
        | Some e -> e.eactuals <- Acall_args (callee_name i, argv) :: e.eactuals
        | None -> ());
  }

(** Run the program once sequentially and record the trace of the PDG's
    target loop. *)
let record ?(machine = Machine.create ()) (prepared : Precompile.t) (pdg : Pdg.t) :
    t * Machine.t =
  let tfunc = pdg.Pdg.func in
  let loop = pdg.Pdg.loop in
  let in_body =
    let a = Array.make (1 + List.fold_left max (-1) loop.Commset_analysis.Loops.body) false in
    List.iter (fun l -> if l >= 0 then a.(l) <- true) loop.Commset_analysis.Loops.body;
    a
  in
  let rec_ =
    {
      pdg;
      target = tfunc.Ir.fname;
      tfunc;
      header = loop.Commset_analysis.Loops.header;
      in_body;
      cur_nid = -1;
      cur_iter = None;
      cur_entered = false;
      cur_exec = None;
      done_iters = [];
      other = 0.;
      before = [];
      after = [];
      all_outputs = [];
      saw_loop = false;
    }
  in
  let hooks = hooks_of_recorder rec_ in
  let total = Precompile.run_main (Precompile.executor ~hooks ~machine prepared) in
  (* the final header visit (the failing test) is not a real iteration:
     fold its cost into [other] *)
  (match rec_.cur_iter with
  | Some it -> rec_.other <- rec_.other +. iteration_cost it
  | None -> ());
  let iterations = Array.of_list (List.rev rec_.done_iters) in
  ( {
      iterations;
      other_cost = rec_.other;
      outputs_before = List.rev rec_.before;
      outputs_after = List.rev rec_.after;
      seq_outputs = List.rev rec_.all_outputs;
      seq_total = total;
    },
    machine )

(** Update PDG node weights in place from the trace (profile-guided
    pipeline balancing, paper §4.5). *)
let apply_weights t (pdgs : Pdg.t list) =
  let n_nodes =
    List.fold_left (fun m (p : Pdg.t) -> max m (Array.length p.Pdg.nodes)) 0 pdgs
  in
  let means = node_mean_costs t ~n_nodes in
  List.iter
    (fun (pdg : Pdg.t) ->
      Array.iter
        (fun n ->
          let w = means.(n.Pdg.nid) in
          if w > 0. then n.Pdg.weight <- w)
        pdg.Pdg.nodes)
    pdgs

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

(* The cost folds walk the stored (reversed) lists right to left, so
   they perform the same additions in the same order as a left fold over
   the list in execution order, without building that list. A running
   sum lives in a float-only record: its field is stored unboxed. *)
type sum = { mutable sum : float }

let rec add_atoms s = function
  | [] -> ()
  | a :: earlier ->
      add_atoms s earlier;
      s.sum <- s.sum +. atom_cost a

let rec add_execs s per_exec = function
  | [] -> ()
  | e :: earlier ->
      add_execs s per_exec earlier;
      per_exec.sum <- 0.;
      add_atoms per_exec e.atoms;
      s.sum <- s.sum +. per_exec.sum

let exec_cost e =
  let s = { sum = 0. } in
  add_atoms s e.atoms;
  s.sum

let iteration_cost it =
  let s = { sum = 0. } in
  add_execs s { sum = 0. } it.execs;
  s.sum

let n_iterations t = Array.length t.iterations

(** Average simulated cost of one instance of every node below
    [n_nodes], for pipeline balancing. One pass over the trace; a node
    appears at most once per iteration, so each node's instance costs
    are summed in iteration order. *)
let node_mean_costs t ~n_nodes =
  let total = Array.make n_nodes 0. and n = Array.make n_nodes 0 in
  let per_exec = { sum = 0. } in
  let add_exec e =
    let nid = e.nid in
    if nid >= 0 && nid < n_nodes then begin
      per_exec.sum <- 0.;
      add_atoms per_exec e.atoms;
      total.(nid) <- total.(nid) +. per_exec.sum;
      n.(nid) <- n.(nid) + 1
    end
  in
  Array.iter (fun it -> List.iter add_exec it.execs) t.iterations;
  Array.mapi (fun nid s -> if n.(nid) = 0 then 0. else s /. float_of_int n.(nid)) total

(** Cost of the whole loop (all iterations). *)
let loop_cost t =
  let s = { sum = 0. } and per_iter = { sum = 0. } and per_exec = { sum = 0. } in
  Array.iter
    (fun it ->
      per_iter.sum <- 0.;
      add_execs per_iter per_exec it.execs;
      s.sum <- s.sum +. per_iter.sum)
    t.iterations;
  s.sum

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* The recorder keeps no per-event bookkeeping that allocates. The
   current iteration's execs live in a slot array indexed by node, so
   finding the exec an event belongs to is one array read. A node's
   compute since its last atom accumulates in an unboxed per-node slot
   and becomes one [Acompute] atom only when the exec's next builtin or
   output atom is pushed, or when its iteration closes. The sums are the
   same chain of additions as rewriting the exec's head [Acompute] on
   every cost event, so every atom is bit-identical to that. *)

(* The shared "no exec" value: never written to. *)
let no_exec = { nid = -1; atoms = []; eactuals = [] }

type recorder = {
  target : string;
  tfunc : Ir.func;  (** the target function record, compared physically *)
  mutable non_target : Ir.func;
      (** the last function found not to be the target by name, so a
          callee's instructions skip the name comparison *)
  header : Ir.label;
  in_body : bool array;  (** label -> block of the loop body *)
  node_of : int array;  (** iid -> owning node, -1 outside the loop *)
  slots : node_exec array;
      (** nid -> the current iteration's exec of that node, [no_exec]
          until its first event; cleared as the iteration closes *)
  pending : float array;  (** nid -> compute since the exec's last atom *)
  has_pending : bool array;
  mutable cur_nid : int;  (** -1 = outside any node *)
  mutable cur_iter : iteration option;
  mutable cur_entered : bool;
      (** the current header visit went on into the body: false for the
          visit whose test exits the loop, which is not an iteration *)
  mutable done_iters : iteration list;  (** reverse *)
  other : sum;  (** cycles outside the target loop, per event in order *)
  mutable before : string list;  (** reverse *)
  mutable after : string list;  (** reverse *)
  mutable all_outputs : string list;  (** reverse *)
  mutable saw_loop : bool;
}

let is_target rec_ (func : Ir.func) =
  func == rec_.tfunc
  || func != rec_.non_target
     && (String.equal func.Ir.fname rec_.target
        ||
        (rec_.non_target <- func;
         false))

let nid_of rec_ iid =
  if iid >= 0 && iid < Array.length rec_.node_of then Array.unsafe_get rec_.node_of iid
  else -1

(* the node owning a region is found through its entry block's first
   instruction *)
let region_first_iid rec_ (region : Ir.region) =
  let b = Ir.block rec_.tfunc region.Ir.rentry in
  match b.Ir.instrs with i :: _ -> i.Ir.iid | [] -> -1

let callee_name (i : Ir.instr) =
  match Ir.callee_of i with Some c -> c | None -> "<none>"

(* [it]'s exec of [nid], created (in first-execution order) on demand *)
let slot_exec rec_ it nid =
  let e = Array.unsafe_get rec_.slots nid in
  if e != no_exec then e
  else begin
    let e = { nid; atoms = []; eactuals = [] } in
    Hashtbl.add it.exec_tbl nid e;
    it.execs <- e :: it.execs;
    rec_.slots.(nid) <- e;
    e
  end

(* the exec events are charged to, or [no_exec] outside the loop's
   iterations or nodes *)
let current_exec rec_ =
  let nid = rec_.cur_nid in
  if nid < 0 then no_exec
  else
    let e = Array.unsafe_get rec_.slots nid in
    if e != no_exec then e
    else match rec_.cur_iter with Some it -> slot_exec rec_ it nid | None -> no_exec

(* Move [e]'s pending compute into its atom list. *)
let flush_pending rec_ e =
  let nid = e.nid in
  if Array.unsafe_get rec_.has_pending nid then begin
    e.atoms <- Acompute (Array.unsafe_get rec_.pending nid) :: e.atoms;
    Array.unsafe_set rec_.has_pending nid false
  end

(* A pending sum implies an exec of the current iteration, so the
   common case reads no exec at all. *)
let add_compute rec_ c =
  let nid = rec_.cur_nid in
  if nid >= 0 && Array.unsafe_get rec_.has_pending nid then
    Array.unsafe_set rec_.pending nid (Array.unsafe_get rec_.pending nid +. c)
  else begin
    let e = current_exec rec_ in
    if e == no_exec then rec_.other.sum <- rec_.other.sum +. c
    else begin
      (match e.atoms with
      | Acompute prev :: rest ->
          e.atoms <- rest;
          Array.unsafe_set rec_.pending nid (prev +. c)
      | _ -> Array.unsafe_set rec_.pending nid c);
      Array.unsafe_set rec_.has_pending nid true
    end
  end

(* A closing iteration: every exec's compute becomes its last atom, and
   the slots are free for the next iteration. *)
let close_iteration rec_ it =
  List.iter
    (fun e ->
      flush_pending rec_ e;
      rec_.slots.(e.nid) <- no_exec)
    it.execs

let hooks_of_recorder rec_ : Precompile.hooks =
  {
    Precompile.on_instr =
      (fun func i ->
        if is_target rec_ func then rec_.cur_nid <- nid_of rec_ i.Ir.iid);
    on_block =
      (fun func l ->
        if l = rec_.header then begin
          if is_target rec_ func then begin
            rec_.saw_loop <- true;
            (* an exit-only visit of an earlier entry into the loop is
               loop overhead, like the final one *)
            (match rec_.cur_iter with
            | Some it ->
                close_iteration rec_ it;
                if rec_.cur_entered then rec_.done_iters <- it :: rec_.done_iters
                else rec_.other.sum <- rec_.other.sum +. iteration_cost it
            | None -> ());
            rec_.cur_iter <- Some { execs = []; exec_tbl = Hashtbl.create 16 };
            rec_.cur_entered <- false
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
        let e = current_exec rec_ in
        if e == no_exec then rec_.other.sum <- rec_.other.sum +. cost
        else begin
          flush_pending rec_ e;
          e.atoms <- Abuiltin { bi; cost } :: e.atoms
        end);
    on_output =
      (fun s ->
        rec_.all_outputs <- s :: rec_.all_outputs;
        let e = current_exec rec_ in
        if e == no_exec then begin
          if rec_.saw_loop then rec_.after <- s :: rec_.after
          else rec_.before <- s :: rec_.before
        end
        else begin
          flush_pending rec_ e;
          e.atoms <- Aout s :: e.atoms
        end);
    on_enter_func = (fun _ -> ());
    on_exit_func = (fun _ -> ());
    on_region_enter =
      (fun func region actuals _regs ->
        if is_target rec_ func then
          match rec_.cur_iter with
          | Some it ->
              let nid = nid_of rec_ (region_first_iid rec_ region) in
              if nid >= 0 then begin
                let e = slot_exec rec_ it nid in
                e.eactuals <- Aregion_sets actuals :: e.eactuals
              end
          | None -> ());
    on_call_actuals =
      (fun i argv _enables ->
        let e = current_exec rec_ in
        if e != no_exec then e.eactuals <- Acall_args (callee_name i, argv) :: e.eactuals);
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
  let node_of =
    Array.map (function Some nid -> nid | None -> -1) pdg.Pdg.instr_node
  in
  let n_nodes = 1 + Array.fold_left max (-1) node_of in
  let rec_ =
    {
      target = tfunc.Ir.fname;
      tfunc;
      non_target = tfunc;
      header = loop.Commset_analysis.Loops.header;
      in_body;
      node_of;
      slots = Array.make n_nodes no_exec;
      pending = Array.make n_nodes 0.;
      has_pending = Array.make n_nodes false;
      cur_nid = -1;
      cur_iter = None;
      cur_entered = false;
      done_iters = [];
      other = { sum = 0. };
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
  | Some it ->
      close_iteration rec_ it;
      rec_.other.sum <- rec_.other.sum +. iteration_cost it
  | None -> ());
  let iterations = Array.of_list (List.rev rec_.done_iters) in
  ( {
      iterations;
      other_cost = rec_.other.sum;
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

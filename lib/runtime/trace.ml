(** Per-iteration execution traces of a target loop.

    The trace recorder replays the event log of the compile's one
    sequential run ({!Profile.run}) and attributes every simulated cycle,
    builtin call, and output line to the PDG node that produced it (costs
    inside callees are attributed to the calling node, like the paper's
    outlined member functions). The parallel simulator then replays these
    traces under a parallelization plan. *)

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

(* The recorder works once per logged block entry and once per event (a
   builtin, a call, a return), never per instruction. On a function's
   first entry, its blocks are split into segments: runs of
   instructions ending at a builtin or user call, at a change of PDG
   node, or at the block's end, with the terminator. A segment is
   accounted as it starts: inside a node, as one presummed addition to
   the node's pending compute, exact because instruction and terminator
   costs are integers (far below 2^53); outside any node, cost by cost
   into [other], as the reference adds them, since [other] also takes
   fractional builtin costs. The recorder sees nothing happen inside a
   segment, so atoms, exec order and sums are bit-identical to
   accounting per instruction.

   The current iteration's execs live in a slot array indexed by node.
   A node's compute since its last atom accumulates in an unboxed
   per-node slot and becomes one [Acompute] atom when the exec's next
   builtin or output atom is pushed, or when its iteration closes. *)

(* The shared "no exec" value: never written to. *)
let no_exec = { nid = -1; atoms = []; eactuals = [] }

(* The node of a segment with no instruction, or outside the target
   function: the current node stays, as only the target function's
   instructions move it in the reference. *)
let keep_node = -2

(* A block's segments, flat: segment [k] is its node ([seg.(4k)], -1
   outside the loop, or [keep_node]), its instruction range
   ([seg.(4k+1)], [seg.(4k+2)]), its flags ([seg.(4k+3)]) and its costs
   with the terminator's if it carries it ([sums.(k)]). *)
type block_segs = { costs : float array; seg : int array; sums : float array }

let ends_call = 1  (* at a builtin or user call: an event *)
let ends_term = 2  (* with the block's terminator *)

(* the segments of a label with no block: the run raises on entry *)
let no_block = { costs = [||]; seg = [||]; sums = [||] }

(* A function's activation: its segments by label, the current block's
   label (-1 if none) and its next segment; ints, so moving them costs no
   write barrier. *)
type frame = {
  by_label : block_segs array;
  ftarget : bool;  (** a frame of the target function *)
  mutable label : int;
  mutable next : int;
}

type recorder = {
  target : string;
  tfunc : Ir.func;
  header : Ir.label;
  in_body : bool array;  (** label -> block of the loop body *)
  node_of : int array;  (** iid -> owning node, -1 outside the loop *)
  prepared : Precompile.t;
  tables : (string, block_segs array) Hashtbl.t;  (** function -> segments by label *)
  mutable frames : frame list;  (** innermost first *)
  slots : node_exec array;
      (** nid -> the current iteration's exec of that node, [no_exec]
          until its first event; cleared as the iteration closes *)
  pending : float array;  (** nid -> compute since the exec's last atom *)
  has_pending : bool array;
  builtins : atom array;  (** builtin id -> the last [Abuiltin] atom made for it *)
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

let nid_of rec_ iid =
  if iid >= 0 && iid < Array.length rec_.node_of then Array.unsafe_get rec_.node_of iid
  else -1

(* the node owning a region is found through its entry block's first
   instruction *)
let region_first_iid rec_ (region : Ir.region) =
  let b = Ir.block rec_.tfunc region.Ir.rentry in
  match b.Ir.instrs with i :: _ -> i.Ir.iid | [] -> -1

let block_segs rec_ ~target (vb : Precompile.view_block) =
  let n = Array.length vb.Precompile.vb_instrs in
  let costs = vb.Precompile.vb_costs in
  let nid k = if target then nid_of rec_ vb.Precompile.vb_instrs.(k).Ir.iid else keep_node in
  let segs = ref [] and lo = ref 0 in
  let close hi flags =
    let sum = ref 0. in
    for k = !lo to hi - 1 do
      sum := !sum +. costs.(k)
    done;
    if flags land ends_term <> 0 then sum := !sum +. Costmodel.terminator_cost;
    segs := ((if hi > !lo then nid !lo else keep_node), !lo, hi, flags, !sum) :: !segs;
    lo := hi
  in
  for k = 0 to n - 1 do
    if k > !lo && nid k <> nid !lo then close k 0;
    match vb.Precompile.vb_instrs.(k).Ir.desc with Ir.Call _ -> close (k + 1) ends_call | _ -> ()
  done;
  close n ends_term;
  let segs = List.rev !segs in
  {
    costs;
    seg = Array.of_list (List.concat_map (fun (nid, lo, hi, flags, _) -> [ nid; lo; hi; flags ]) segs);
    sums = Array.of_list (List.map (fun (_, _, _, _, sum) -> sum) segs);
  }

(* [f]'s segments by label, built on its first entry *)
let segments_of rec_ (f : Ir.func) ~target =
  let name = f.Ir.fname in
  match Hashtbl.find rec_.tables name with
  | t -> t
  | exception Not_found ->
      let t =
        match Precompile.view_func rec_.prepared name with
        | None -> [||]
        | Some vf ->
            let slots = Hashtbl.fold (fun l _ m -> max m (l + 1)) f.Ir.blocks f.Ir.n_labels in
            let t = Array.make slots no_block in
            Array.iter
              (fun (vb : Precompile.view_block) ->
                t.(vb.Precompile.vb_label) <- block_segs rec_ ~target vb)
              vf.Precompile.vf_blocks;
            t
      in
      Hashtbl.add rec_.tables name t;
      t

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

(* Atoms are shared where their values repeat, so that the atoms a run
   keeps cost fewer objects: most compute sums between two builtins are
   small integers, and most builtins charge the same cost call after
   call. Sharing is invisible: atoms are immutable and compared by
   value. *)
let small_computes = Array.init 1024 (fun i -> Acompute (float_of_int i))

let compute_atom c =
  let i = int_of_float c in
  if i > 0 && i < 1024 && float_of_int i = c then Array.unsafe_get small_computes i
  else Acompute c

let builtin_atom rec_ (bi : Builtins.t) cost =
  match rec_.builtins.(bi.Builtins.id) with
  | Abuiltin { bi = b; cost = c } as a when b == bi && c = cost && c <> 0. -> a
  | _ ->
      let a = Abuiltin { bi; cost } in
      rec_.builtins.(bi.Builtins.id) <- a;
      a

(* Move [e]'s pending compute into its atom list. *)
let flush_pending rec_ e =
  let nid = e.nid in
  if Array.unsafe_get rec_.has_pending nid then begin
    e.atoms <- compute_atom (Array.unsafe_get rec_.pending nid) :: e.atoms;
    Array.unsafe_set rec_.has_pending nid false
  end

(* Segment [k] of [b] when its node has no pending sum: its costs
   start one, or go to [other] one by one in the reference order. *)
let account_slow rec_ b k nid =
  let e = current_exec rec_ in
  if e == no_exec then begin
    let o = rec_.other and i = 4 * k in
    for j = b.seg.(i + 1) to b.seg.(i + 2) - 1 do
      o.sum <- o.sum +. b.costs.(j)
    done;
    if b.seg.(i + 3) land ends_term <> 0 then o.sum <- o.sum +. Costmodel.terminator_cost
  end
  else begin
    (match e.atoms with
    | Acompute prev :: rest ->
        e.atoms <- rest;
        rec_.pending.(nid) <- prev +. b.sums.(k)
    | _ -> rec_.pending.(nid) <- b.sums.(k));
    rec_.has_pending.(nid) <- true
  end

(* Account [fr]'s segments up to the next event or the block's end: a
   node change is no event, so the segments it separates run back to
   back. A pending sum implies an exec of the current iteration, so the
   common case is one float add and reads no exec at all. *)
let next_segments rec_ fr =
  let l = fr.label in
  if l >= 0 then begin
    let b = Array.unsafe_get fr.by_label l in
    let seg = b.seg and sums = b.sums in
    let n = Array.length sums in
    let k = ref fr.next and go = ref true in
    while !go && !k < n do
      let i = 4 * !k in
      let snid = Array.unsafe_get seg i in
      if snid <> keep_node then rec_.cur_nid <- snid;
      let nid = rec_.cur_nid in
      if nid >= 0 && Array.unsafe_get rec_.has_pending nid then
        Array.unsafe_set rec_.pending nid
          (Array.unsafe_get rec_.pending nid +. Array.unsafe_get sums !k)
      else account_slow rec_ b !k nid;
      go := Array.unsafe_get seg (i + 3) land ends_call = 0;
      incr k
    done;
    fr.next <- !k
  end

(* A closing iteration: every exec's compute becomes its last atom, and
   the slots are free for the next iteration. *)
let close_iteration rec_ it =
  List.iter
    (fun e ->
      flush_pending rec_ e;
      rec_.slots.(e.nid) <- no_exec)
    it.execs

let on_block rec_ (_ : Ir.func) l =
  match rec_.frames with
  | [] -> ()
  | fr :: _ ->
      if fr.ftarget then begin
        if l = rec_.header then begin
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
        else if
          (not rec_.cur_entered)
          && l >= 0
          && l < Array.length rec_.in_body
          && rec_.in_body.(l)
        then rec_.cur_entered <- true
      end;
      fr.label <- (if l >= 0 && l < Array.length fr.by_label then l else -1);
      fr.next <- 0;
      next_segments rec_ fr

let on_region rec_ (_ : Ir.func) region actuals (_ : Value.t array) =
  match (rec_.frames, rec_.cur_iter) with
  | fr :: _, Some it when fr.ftarget ->
      let nid = nid_of rec_ (region_first_iid rec_ region) in
      if nid >= 0 then begin
        let e = slot_exec rec_ it nid in
        e.eactuals <- Aregion_sets actuals :: e.eactuals
      end
  | _ -> ()

let on_enter rec_ (f : Ir.func) =
  let ftarget = f == rec_.tfunc || String.equal f.Ir.fname rec_.target in
  rec_.frames <-
    { by_label = segments_of rec_ f ~target:ftarget; ftarget; label = -1; next = 0 }
    :: rec_.frames

let on_call rec_ (f : Ir.func) argv _enables =
  let e = current_exec rec_ in
  if e != no_exec then e.eactuals <- Acall_args (f.Ir.fname, argv) :: e.eactuals

(* the call ended the caller's segment: its next one starts here *)
let on_exit rec_ (_ : Ir.func) =
  match rec_.frames with
  | _ :: (caller :: _ as rest) ->
      rec_.frames <- rest;
      next_segments rec_ caller
  | _ -> rec_.frames <- []

(* a builtin ends its frame's segment *)
let on_builtin rec_ bi cost =
  let e = current_exec rec_ in
  if e == no_exec then rec_.other.sum <- rec_.other.sum +. cost
  else begin
    flush_pending rec_ e;
    e.atoms <- builtin_atom rec_ bi cost :: e.atoms
  end;
  match rec_.frames with fr :: _ -> next_segments rec_ fr | [] -> ()

let on_output rec_ s =
  rec_.all_outputs <- s :: rec_.all_outputs;
  let e = current_exec rec_ in
  if e == no_exec then begin
    if rec_.saw_loop then rec_.after <- s :: rec_.after else rec_.before <- s :: rec_.before
  end
  else begin
    flush_pending rec_ e;
    e.atoms <- Aout s :: e.atoms
  end

(* The recorder as the observer the log is replayed to. Each callback
   is a closure of its full arity: a partial application would go
   through the generic apply path and allocate on every event. *)
let observer rec_ : Precompile.observer =
  {
    on_block = (fun f l -> on_block rec_ f l);
    on_region = Some (fun f r a regs -> on_region rec_ f r a regs);
    on_enter = (fun f -> on_enter rec_ f);
    on_call = Some (fun f argv en -> on_call rec_ f argv en);
    on_exit = (fun f -> on_exit rec_ f);
    on_builtin = Some (fun bi c -> on_builtin rec_ bi c);
  }

(** Build the trace of the PDG's target loop by replaying the event log
    of the compile's one run through the recorder. *)
let of_log (prepared : Precompile.t) (pdg : Pdg.t) (log : Profile.log) : t =
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
      header = loop.Commset_analysis.Loops.header;
      in_body;
      node_of;
      prepared;
      tables = Hashtbl.create 16;
      frames = [];
      slots = Array.make n_nodes no_exec;
      pending = Array.make n_nodes 0.;
      has_pending = Array.make n_nodes false;
      builtins = Array.make (List.length Builtins.all) (Aout "");
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
  Profile.replay log (observer rec_) ~on_output:(on_output rec_);
  (* the final header visit (the failing test) is not a real iteration:
     fold its cost into [other] *)
  (match rec_.cur_iter with
  | Some it ->
      close_iteration rec_ it;
      rec_.other.sum <- rec_.other.sum +. iteration_cost it
  | None -> ());
  {
    iterations = Array.of_list (List.rev rec_.done_iters);
    other_cost = rec_.other.sum;
    outputs_before = List.rev rec_.before;
    outputs_after = List.rev rec_.after;
    seq_outputs = List.rev rec_.all_outputs;
    seq_total = Profile.log_total log;
  }

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

(** Runtime profiler: attributes inclusive simulated cycles to each basic
    block (callee time counted at the call site's block) and ranks the
    program's loops by execution share, mirroring the paper's workflow of
    focusing parallelization on hot loops identified via profiling. *)

module Ir = Commset_ir.Ir
module A = Commset_analysis

(** The open segment's start: a float-only record stores it unboxed, so
    moving it is a store, not an allocation. *)
type seg = { mutable seg_start : float }

type frame = {
  func : Ir.func;  (** compared physically with the block entry's function *)
  costs : float array;  (** the function's block costs, indexed by label *)
  mutable cur_label : Ir.label;
  seg : seg;
      (** executor total-cost reading when this frame last changed
          block: the open segment [seg_start, now) belongs to
          [cur_label] *)
}

type loop_report = {
  lr_func : string;
  lr_header : Ir.label;
  lr_cost : float;
  lr_fraction : float;  (** share of total program cycles *)
  lr_depth : int;
}

type t = { reports : loop_report list; total : float }

(* One cost slot per label the function's blocks or label counter
   name. An edge to a label with no block is followed by the executor's
   [Not_found] before that label's segment is ever flushed. *)
let label_slots (f : Ir.func) =
  Hashtbl.fold (fun l _ m -> max m (l + 1)) f.Ir.blocks (max 0 f.Ir.n_labels)

(* Inclusive attribution without a per-cost-event stack walk: the run's
   observer hears only block entries, calls and returns while the
   executor's running total advances per instruction, and each frame
   flushes the elapsed segment to its current block whenever that block
   changes (or the frame pops). A parent's open segment spans its
   callees' execution, so callee time lands at the call site's block.
   This costs O(blocks executed) array updates; the per-function cost
   arrays are found once per call (name -> array, built on a function's
   first call). *)
let record ?(machine = Machine.create ()) (prepared : Precompile.t) :
    (string, float array) Hashtbl.t * float =
  let costs : (string, float array) Hashtbl.t = Hashtbl.create 16 in
  let costs_of (f : Ir.func) =
    match Hashtbl.find costs f.Ir.fname with
    | a -> a
    | exception Not_found ->
        let a = Array.make (label_slots f) 0. in
        Hashtbl.add costs f.Ir.fname a;
        a
  in
  let ex = Precompile.executor ~machine prepared in
  let stack : frame list ref = ref [] in
  let flush fr =
    let n = Precompile.total_cost ex in
    let seg = n -. fr.seg.seg_start in
    if seg <> 0. then fr.costs.(fr.cur_label) <- seg +. fr.costs.(fr.cur_label);
    fr.seg.seg_start <- n
  in
  let total =
    Precompile.run_observed ex
      {
        Precompile.on_block =
          (fun f l ->
            match !stack with
            | fr :: _ when fr.func == f ->
                flush fr;
                fr.cur_label <- l
            | _ -> ());
        on_enter =
          (fun f ->
            stack :=
              {
                func = f;
                costs = costs_of f;
                cur_label = f.Ir.entry;
                seg = { seg_start = Precompile.total_cost ex };
              }
              :: !stack);
        on_exit =
          (fun _ ->
            match !stack with
            | [] -> ()
            | fr :: rest ->
                flush fr;
                stack := rest);
        on_region = None;
        on_call = None;
        on_builtin = None;
      }
  in
  List.iter flush !stack;
  (costs, total)

(** Profile the program and rank its loops by inclusive cost. *)
let analyze ?machine (prepared : Precompile.t) : t =
  let prog = Precompile.program prepared in
  let costs, total = record ?machine prepared in
  let reports = ref [] in
  List.iter
    (fun fname ->
      let func = Hashtbl.find prog.Ir.funcs fname in
      let cfg = A.Cfg.of_func func in
      let dom = A.Dominance.compute cfg in
      let loops = A.Loops.compute cfg dom in
      let block_cost =
        match Hashtbl.find_opt costs fname with
        | Some a -> fun label -> a.(label)
        | None -> fun _ -> 0.
      in
      List.iter
        (fun (l : A.Loops.loop) ->
          let cost = Commset_support.Listx.sum_float block_cost l.A.Loops.body in
          reports :=
            {
              lr_func = fname;
              lr_header = l.A.Loops.header;
              lr_cost = cost;
              lr_fraction = (if total > 0. then cost /. total else 0.);
              lr_depth = l.A.Loops.depth;
            }
            :: !reports)
        loops.A.Loops.loops)
    prog.Ir.func_order;
  let reports =
    List.sort (fun a b -> compare b.lr_cost a.lr_cost) !reports
  in
  { reports; total }

(** The hottest outermost loop — the parallelization target. *)
let hottest t =
  List.find_opt (fun r -> r.lr_depth = 1) t.reports

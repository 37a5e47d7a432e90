(** Runtime profiler: attributes inclusive simulated cycles to each basic
    block (callee time counted at the call site's block) and ranks the
    program's loops by execution share, mirroring the paper's workflow of
    focusing parallelization on hot loops identified via profiling. *)

module Ir = Commset_ir.Ir
module A = Commset_analysis

type frame = {
  fname : string;
  mutable cur_label : Ir.label;
  mutable seg_start : float;
      (** executor total-cost reading when this frame last changed
          block: the open segment [seg_start, now) belongs to
          [cur_label] *)
}

type block_costs = (string * Ir.label, float) Hashtbl.t

type loop_report = {
  lr_func : string;
  lr_header : Ir.label;
  lr_cost : float;
  lr_fraction : float;  (** share of total program cycles *)
  lr_depth : int;
}

type t = { reports : loop_report list; total : float }

(* Inclusive attribution without a per-cost-event stack walk: the coarse
   path fires only block-grained hooks while the executor's running
   total advances per instruction, and each frame flushes the elapsed
   segment to its current block whenever that block changes (or the
   frame pops). A parent's open segment spans its callees' execution, so
   callee time lands at the call site's block. This costs O(blocks
   executed) updates, the same as the fast path. *)
let record ?(machine = Machine.create ()) (prepared : Precompile.t) : block_costs * float =
  let costs : block_costs = Hashtbl.create 256 in
  let hooks = Interp.null_hooks () in
  let ex = Precompile.executor ~hooks ~machine prepared in
  let stack : frame list ref = ref [] in
  let flush fr =
    let n = Precompile.total_cost ex in
    let seg = n -. fr.seg_start in
    if seg <> 0. then begin
      let key = (fr.fname, fr.cur_label) in
      Hashtbl.replace costs key (seg +. Option.value ~default:0. (Hashtbl.find_opt costs key))
    end;
    fr.seg_start <- n
  in
  hooks.Interp.on_enter_func <-
    (fun f ->
      stack :=
        { fname = f.Ir.fname; cur_label = f.Ir.entry; seg_start = Precompile.total_cost ex }
        :: !stack);
  hooks.Interp.on_exit_func <-
    (fun _ ->
      match !stack with
      | [] -> ()
      | fr :: rest ->
          flush fr;
          stack := rest);
  hooks.Interp.on_block <-
    (fun f l ->
      match !stack with
      | fr :: _ when fr.fname = f.Ir.fname ->
          flush fr;
          fr.cur_label <- l
      | _ -> ());
  let total = Precompile.run_main_coarse ex in
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
      List.iter
        (fun (l : A.Loops.loop) ->
          let cost =
            Commset_support.Listx.sum_float
              (fun label -> Option.value ~default:0. (Hashtbl.find_opt costs (fname, label)))
              l.A.Loops.body
          in
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

(** The reference recorders: each records what its library counterpart
    records, on the reference interpreter's event stream, with the
    straightforward per-event bookkeeping (see the interface). *)

module Ir = Commset_ir.Ir
module Pdg = Commset_pdg.Pdg
module A = Commset_analysis
open Commset_runtime
open Trace

(* ---- trace ---------------------------------------------------------- *)

(* cost folds over the lists in execution order *)
let exec_cost e = List.fold_left (fun acc a -> acc +. atom_cost a) 0. (List.rev e.atoms)

let iteration_cost it =
  List.fold_left (fun acc e -> acc +. exec_cost e) 0. (List.rev it.execs)

let loop_cost t = Array.fold_left (fun acc it -> acc +. iteration_cost it) 0. t.iterations

type recorder = {
  pdg : Pdg.t;
  target : string;
  tfunc : Ir.func;
  header : Ir.label;
  in_body : bool array;  (** label -> block of the loop body *)
  mutable cur_nid : int;  (** -1 = outside any node *)
  mutable cur_iter : iteration option;
  mutable cur_entered : bool;
      (** the current header visit went on into the body: false for the
          visit whose test exits the loop, which is not an iteration *)
  mutable cur_exec : node_exec option;
      (** cache of the [(cur_iter, cur_nid)] exec, invalidated whenever
          either changes *)
  mutable done_iters : iteration list;  (** reverse *)
  mutable other : float;
  mutable before : string list;  (** reverse *)
  mutable after : string list;  (** reverse *)
  mutable all_outputs : string list;  (** reverse *)
  mutable saw_loop : bool;
}

let is_target r (func : Ir.func) = func == r.tfunc || String.equal func.Ir.fname r.target

let region_first_iid r (region : Ir.region) =
  let b = Ir.block r.pdg.Pdg.func region.Ir.rentry in
  match b.Ir.instrs with i :: _ -> i.Ir.iid | [] -> -1

let callee_name (i : Ir.instr) =
  match Ir.callee_of i with Some c -> c | None -> "<none>"

let find_or_add it nid =
  match Hashtbl.find_opt it.exec_tbl nid with
  | Some e -> e
  | None ->
      let e = { nid; atoms = []; eactuals = [] } in
      Hashtbl.replace it.exec_tbl nid e;
      it.execs <- e :: it.execs;
      e

let current_exec r =
  match r.cur_exec with
  | Some _ as s -> s
  | None -> (
      match r.cur_iter with
      | Some it when r.cur_nid >= 0 ->
          let e = find_or_add it r.cur_nid in
          r.cur_exec <- Some e;
          Some e
      | _ -> None)

(* every cost event rewrites the exec's head compute atom *)
let add_compute r c =
  match current_exec r with
  | Some e -> (
      match e.atoms with
      | Acompute prev :: rest -> e.atoms <- Acompute (prev +. c) :: rest
      | _ -> e.atoms <- Acompute c :: e.atoms)
  | None -> r.other <- r.other +. c

let trace_hooks r : Interp.hooks =
  {
    Interp.on_instr =
      (fun func i ->
        if is_target r func then begin
          let nid =
            match Pdg.node_of_instr r.pdg i.Ir.iid with Some nid -> nid | None -> -1
          in
          if nid <> r.cur_nid then begin
            r.cur_nid <- nid;
            r.cur_exec <- None
          end
        end);
    on_block =
      (fun func l ->
        if l = r.header then begin
          if is_target r func then begin
            r.saw_loop <- true;
            (match r.cur_iter with
            | Some it when r.cur_entered -> r.done_iters <- it :: r.done_iters
            | Some it -> r.other <- r.other +. iteration_cost it
            | None -> ());
            r.cur_iter <- Some { execs = []; exec_tbl = Hashtbl.create 16 };
            r.cur_entered <- false;
            r.cur_exec <- None
          end
        end
        else if
          (not r.cur_entered)
          && l >= 0
          && l < Array.length r.in_body
          && r.in_body.(l) && is_target r func
        then r.cur_entered <- true);
    on_base_cost = (fun c -> add_compute r c);
    on_builtin =
      (fun bi cost ->
        match current_exec r with
        | Some e -> e.atoms <- Abuiltin { bi; cost } :: e.atoms
        | None -> r.other <- r.other +. cost);
    on_output =
      (fun s ->
        r.all_outputs <- s :: r.all_outputs;
        match current_exec r with
        | Some e -> e.atoms <- Aout s :: e.atoms
        | None ->
            if r.saw_loop then r.after <- s :: r.after else r.before <- s :: r.before);
    on_enter_func = (fun _ -> ());
    on_exit_func = (fun _ -> ());
    on_region_enter =
      (fun func region actuals _regs ->
        if is_target r func then
          match r.cur_iter with
          | Some it -> (
              match Pdg.node_of_instr r.pdg (region_first_iid r region) with
              | Some nid ->
                  let e = find_or_add it nid in
                  e.eactuals <- Aregion_sets actuals :: e.eactuals
              | None -> ())
          | None -> ());
    on_call_actuals =
      (fun i argv _enables ->
        match current_exec r with
        | Some e -> e.eactuals <- Acall_args (callee_name i, argv) :: e.eactuals
        | None -> ());
  }

let trace ?(machine = Machine.create ()) prepared (pdg : Pdg.t) : Trace.t =
  let loop = pdg.Pdg.loop in
  let in_body =
    let a = Array.make (1 + List.fold_left max (-1) loop.A.Loops.body) false in
    List.iter (fun l -> if l >= 0 then a.(l) <- true) loop.A.Loops.body;
    a
  in
  let r =
    {
      pdg;
      target = pdg.Pdg.func.Ir.fname;
      tfunc = pdg.Pdg.func;
      header = loop.A.Loops.header;
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
  let total =
    Interp.run_main (Interp.create ~hooks:(trace_hooks r) ~machine (Precompile.program prepared))
  in
  (* the final header visit is not an iteration *)
  (match r.cur_iter with Some it -> r.other <- r.other +. iteration_cost it | None -> ());
  {
    iterations = Array.of_list (List.rev r.done_iters);
    other_cost = r.other;
    outputs_before = List.rev r.before;
    outputs_after = List.rev r.after;
    seq_outputs = List.rev r.all_outputs;
    seq_total = total;
  }

(* ---- profile -------------------------------------------------------- *)

type frame = { fname : string; mutable cur_label : Ir.label; mutable seg_start : float }

(* each frame flushes its open segment to its current block whenever the
   block changes or the frame pops *)
let block_costs ?(machine = Machine.create ()) prepared =
  let costs : (string * Ir.label, float) Hashtbl.t = Hashtbl.create 256 in
  let hooks = Interp.null_hooks () in
  let interp = Interp.create ~hooks ~machine (Precompile.program prepared) in
  let stack = ref [] in
  let flush fr =
    let n = interp.Interp.total_cost in
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
        { fname = f.Ir.fname; cur_label = f.Ir.entry; seg_start = interp.Interp.total_cost }
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
  let total = Interp.run_main interp in
  List.iter flush !stack;
  (costs, total)

let profile ?machine prepared : Profile.t =
  let prog = Precompile.program prepared in
  let costs, total = block_costs ?machine prepared in
  let reports = ref [] in
  List.iter
    (fun fname ->
      let func = Hashtbl.find prog.Ir.funcs fname in
      let cfg = A.Cfg.of_func func in
      let loops = A.Loops.compute cfg (A.Dominance.compute cfg) in
      List.iter
        (fun (l : A.Loops.loop) ->
          let cost =
            Commset_support.Listx.sum_float
              (fun label -> Option.value ~default:0. (Hashtbl.find_opt costs (fname, label)))
              l.A.Loops.body
          in
          reports :=
            {
              Profile.lr_func = fname;
              lr_header = l.A.Loops.header;
              lr_cost = cost;
              lr_fraction = (if total > 0. then cost /. total else 0.);
              lr_depth = l.A.Loops.depth;
            }
            :: !reports)
        loops.A.Loops.loops)
    prog.Ir.func_order;
  {
    Profile.reports =
      List.sort (fun a b -> compare b.Profile.lr_cost a.Profile.lr_cost) !reports;
    total;
  }

(* ---- replay instances ------------------------------------------------- *)

module Metadata = Commset_core.Metadata
module Dynamic = Commset_verify.Dynamic

let rec deep_value = function
  | Value.Varray a -> Value.Varray (Array.map deep_value a)
  | v -> v

let max_recorded = 8

let dynamic ~max_snapshots prepared ~(md : Metadata.t) ~(setup : Machine.t -> unit) :
    Dynamic.inv list =
  let prog = Precompile.program prepared in
  let machine = Machine.create () in
  setup machine;
  let hooks = Interp.null_hooks () in
  let interp = Interp.create ~hooks ~machine prog in
  let seq = ref 0 in
  let recorded : (Metadata.member, int) Hashtbl.t = Hashtbl.create 16 in
  let snapped : (Metadata.member, int) Hashtbl.t = Hashtbl.create 16 in
  let invs = ref [] in
  let add member actuals body =
    let n = Option.value ~default:0 (Hashtbl.find_opt recorded member) in
    if n < max_recorded then begin
      Hashtbl.replace recorded member (n + 1);
      let ns = Option.value ~default:0 (Hashtbl.find_opt snapped member) in
      let isnap =
        if ns < max_snapshots then begin
          Hashtbl.replace snapped member (ns + 1);
          Some
            ( Machine.clone machine,
              Hashtbl.fold (fun k v acc -> (k, deep_value v) :: acc) interp.Interp.globals [] )
        end
        else None
      in
      incr seq;
      invs :=
        {
          Dynamic.imember = member;
          iactuals = actuals;
          ibody = body;
          iseq = !seq;
          isnap;
        }
        :: !invs
    end
  in
  (* named-block membership is established at the call site: carry the
     enables of the innermost active user call down to region entries *)
  let pending = ref None in
  let stack = ref [] in
  hooks.Interp.on_call_actuals <-
    (fun i argv enables ->
      match Ir.callee_of i with
      | None -> ()
      | Some callee -> (
          pending := Some (callee, enables);
          match (Metadata.interface_refs md callee, Ir.find_func prog callee) with
          | [], _ | _, None -> ()
          | refs, Some f ->
              let actuals =
                List.map
                  (fun (sname, idxs) ->
                    (sname, List.filter_map (fun k -> List.nth_opt argv k) idxs))
                  refs
              in
              add (Metadata.Mfun callee) actuals (Dynamic.Bfun { bfunc = f; bargs = argv })));
  hooks.Interp.on_enter_func <-
    (fun f ->
      let en = match !pending with Some (c, en) when c = f.Ir.fname -> en | _ -> [] in
      pending := None;
      stack := (f.Ir.fname, en) :: !stack);
  hooks.Interp.on_exit_func <- (fun _ -> match !stack with _ :: tl -> stack := tl | [] -> ());
  hooks.Interp.on_region_enter <-
    (fun func region actuals regs ->
      let body () = Dynamic.Bregion { bfunc = func; bregion = region; bregs = Array.copy regs } in
      (match region.Ir.rname with
      | Some bname -> (
          match !stack with
          | (fn, enables) :: _ when fn = func.Ir.fname -> (
              match List.assoc_opt bname enables with
              | Some set_actuals when set_actuals <> [] ->
                  add (Metadata.Mnamed (func.Ir.fname, bname)) set_actuals (body ())
              | _ -> ())
          | _ -> ())
      | None -> ());
      if actuals <> [] || region.Ir.rname = None then
        add (Metadata.Mregion (func.Ir.fname, region.Ir.rid)) actuals (body ()));
  (try ignore (Interp.run_main interp)
   with Precompile.Out_of_fuel | Commset_support.Diag.Error _ -> ());
  List.rev !invs

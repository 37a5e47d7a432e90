(** The synchronization engine (paper §4.6).

    Assigns each commset a lock ranked by its registration order (the
    global acquire order that, together with the acyclic COMMSET graph
    and acyclic pipeline queues, guarantees deadlock freedom), and
    computes for each PDG node the commsets whose locks it must hold.

    A commset needs no compiler lock when:
    - it is marked COMMSETNOSYNC, or
    - every shared effect of every member instance comes from builtins
      that are internally thread-safe (the paper's Lib mode — libc I/O,
      the malloc free-list); those calls serialize inside the "library"
      instead. *)

module Ir = Commset_ir.Ir
module Pdg = Commset_pdg.Pdg
module Effects = Commset_analysis.Effects
module Metadata = Commset_core.Metadata
module Trace = Commset_runtime.Trace
module Builtins = Commset_runtime.Builtins

type set_sync = {
  ss_name : string;
  ss_rank : int;
  ss_nosync : bool;
  ss_lib_safe : bool;  (** all member effects come from thread-safe builtins *)
}

type t = {
  md : Metadata.t;
  set_sync : (string, set_sync) Hashtbl.t;
  node_locks : (int, string list) Hashtbl.t;  (** compiler-locked sets per node, rank order *)
  node_sets_all : (int, string list) Hashtbl.t;  (** all sets per node *)
}

(* does every shared effect of this node instance come from thread-safe
   builtins? judged from the recorded trace atoms *)
let node_lib_safe (trace : Trace.t) nid =
  let ok = ref true in
  Array.iter
    (fun it ->
      match Hashtbl.find_opt it.Trace.exec_tbl nid with
      | Some e ->
          List.iter
            (fun a ->
              match a with
              | Trace.Abuiltin { bi; _ }
                when (not bi.Builtins.thread_safe) && bi.Builtins.resources <> [] ->
                  ok := false
              | _ -> ())
            (Trace.exec_atoms e)
      | None -> ())
    trace.Trace.iterations;
  !ok

(* does the node also touch shared state outside builtins (globals or
   shared heap)? then library-internal locks cannot cover it *)
let node_touches_shared_memory (pdg : Pdg.t) priv nid =
  let n = pdg.Pdg.nodes.(nid) in
  let shared loc =
    match loc with
    | Effects.Lglobal _ | Effects.Lheap _ | Effects.Lunknown ->
        not (Commset_analysis.Privatization.location_is_private priv loc)
    | Effects.Lext _ -> false
  in
  Effects.LocSet.exists shared n.Pdg.rw.Effects.writes
  || Effects.LocSet.exists shared
       (Effects.LocSet.inter n.Pdg.rw.Effects.reads n.Pdg.rw.Effects.writes)

let compute (md : Metadata.t) (pdg : Pdg.t) (trace : Trace.t)
    (priv : Commset_analysis.Privatization.t) : t =
  let caller = pdg.Pdg.func.Ir.fname in
  let node_sets_all = Hashtbl.create 32 in
  Array.iter
    (fun n ->
      let sets = Metadata.node_sets md ~caller n in
      if sets <> [] then Hashtbl.replace node_sets_all n.Pdg.nid sets)
    pdg.Pdg.nodes;
  (* decide lib-safety per set: every member node instance must be
     lib-safe and must not touch shared non-builtin memory *)
  let set_sync = Hashtbl.create 16 in
  List.iter
    (fun (info : Metadata.set_info) ->
      let member_nodes =
        Array.to_list pdg.Pdg.nodes
        |> List.filter (fun n ->
               match Hashtbl.find_opt node_sets_all n.Pdg.nid with
               | Some sets -> List.mem info.Metadata.sname sets
               | None -> false)
      in
      let lib_safe =
        member_nodes <> []
        && List.for_all
             (fun n ->
               node_lib_safe trace n.Pdg.nid
               && not (node_touches_shared_memory pdg priv n.Pdg.nid))
             member_nodes
      in
      Hashtbl.replace set_sync info.Metadata.sname
        {
          ss_name = info.Metadata.sname;
          ss_rank = info.Metadata.rank;
          ss_nosync = info.Metadata.nosync;
          ss_lib_safe = lib_safe;
        })
    (Metadata.sets_in_rank_order md);
  (* per-node compiler locks: the node's sets minus nosync and lib-safe
     sets, in global rank order *)
  let node_locks = Hashtbl.create 32 in
  Hashtbl.iter
    (fun nid sets ->
      let locked =
        List.filter
          (fun s ->
            match Hashtbl.find_opt set_sync s with
            | Some ss -> (not ss.ss_nosync) && not ss.ss_lib_safe
            | None -> true)
          sets
      in
      let ranked =
        List.sort
          (fun a b ->
            compare (Hashtbl.find set_sync a).ss_rank (Hashtbl.find set_sync b).ss_rank)
          locked
      in
      if ranked <> [] then Hashtbl.replace node_locks nid ranked)
    node_sets_all;
  { md; set_sync; node_locks; node_sets_all }

let locks_of t nid = Option.value ~default:[] (Hashtbl.find_opt t.node_locks nid)

let any_compiler_locks t = Hashtbl.length t.node_locks > 0

(** Are all locked nodes TM-safe (no irrevocable builtins), judged from
    the trace? *)
let tm_applicable t (trace : Trace.t) =
  let ok = ref (any_compiler_locks t) in
  Hashtbl.iter
    (fun nid _ ->
      Array.iter
        (fun it ->
          match Hashtbl.find_opt it.Trace.exec_tbl nid with
          | Some e ->
              List.iter
                (fun a ->
                  match a with
                  | Trace.Abuiltin { bi; _ } when not bi.Builtins.tm_safe -> ok := false
                  | Trace.Aout _ -> ok := false (* output cannot roll back *)
                  | _ -> ())
                (Trace.exec_atoms e)
          | None -> ())
        trace.Trace.iterations)
    t.node_locks;
  !ok

(** Empty synchronization assignment, used for the non-COMMSET baseline
    plans (no relaxed edges, hence no atomicity obligations). *)
let none (md : Metadata.t) : t =
  {
    md;
    set_sync = Hashtbl.create 1;
    node_locks = Hashtbl.create 1;
    node_sets_all = Hashtbl.create 1;
  }

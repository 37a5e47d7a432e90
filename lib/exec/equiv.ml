(** Commutativity-aware output equivalence; see the interface. *)

module Trace = Commset_runtime.Trace
module Sync = Commset_transforms.Sync

type verdict = Exact | Commutative_equal | Mismatch

let verdict_to_string = function
  | Exact -> "exact (deterministic)"
  | Commutative_equal -> "multiset-equal"
  | Mismatch -> "MISMATCH"

let verdict_name = function
  | Exact -> "exact"
  | Commutative_equal -> "multiset-equal"
  | Mismatch -> "MISMATCH"

let commutative_outputs ~(sync : Sync.t) ~(trace : Trace.t) =
  let tbl : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun it ->
      List.iter
        (fun (e : Trace.node_exec) ->
          if Hashtbl.mem sync.Sync.node_sets_all e.Trace.nid then
            List.iter
              (function Trace.Aout s -> Hashtbl.replace tbl s () | _ -> ())
              (Trace.exec_atoms e))
        (Trace.iteration_execs it))
    trace.Trace.iterations;
  fun s -> Hashtbl.mem tbl s

let check ~commutative ~(reference : string list) ~(actual : string list) : verdict =
  if List.equal String.equal reference actual then Exact
  else
    let split = List.partition commutative in
    let ref_comm, ref_ord = split reference in
    let act_comm, act_ord = split actual in
    if
      List.equal String.equal ref_ord act_ord
      && List.equal String.equal
           (List.sort String.compare ref_comm)
           (List.sort String.compare act_comm)
    then Commutative_equal
    else Mismatch

(** Data-mining example: the two MineBench-derived workloads (GETI and
    ECLAT) side by side, showing the determinism/performance trade-off the
    paper discusses — a pipelined schedule with a sequential output stage
    keeps the printed itemsets in order, while DOALL commits them out of
    order (multiset-equal output) — plus the synchronization-mode spread
    (mutex vs spin vs TM) that Table 2 reports. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module T = Commset_transforms

let show name =
  let w = Option.get (Commset_workloads.Registry.find name) in
  let c = P.compile ~name ~setup:w.W.setup w.W.source in
  Printf.printf "=== %s (%s) ===\n" w.W.paper_name w.W.description;
  Printf.printf "features: %s; paper best: %s at %.1fx\n"
    (String.concat "," (P.features_used c))
    w.W.paper_best_scheme w.W.paper_best_speedup;
  let runs = P.evaluate c ~threads:8 in
  List.iter
    (fun (r : P.run) ->
      Printf.printf "  %-52s %5.2fx  output %s\n" r.P.plan.T.Plan.label r.P.speedup
        (Commset_exec.Equiv.verdict_to_string r.P.fidelity))
    runs;
  (* determinism check: which schedules preserved the sequential output
     order exactly, and which only as a multiset? *)
  let exact, multiset =
    List.partition (fun r -> r.P.fidelity = P.Exact) runs
  in
  Printf.printf "  -> %d schedule(s) deterministic, %d out-of-order (set semantics)\n\n"
    (List.length exact) (List.length multiset)

let () =
  show "geti";
  show "eclat"

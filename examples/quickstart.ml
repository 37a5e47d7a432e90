(** Quickstart: the whole COMMSET pipeline on the paper's running example.

    Run with [dune exec examples/quickstart.exe]. Walks through:
    annotated source (paper Figure 1) → compile → annotated PDG →
    parallelization plans → simulated speedups and output fidelity. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module T = Commset_transforms

let () =
  let w = Option.get (Commset_workloads.Registry.find "md5sum") in

  print_endline "=== Figure 1: md5sum extended with COMMSET pragmas ===";
  print_endline w.W.source;

  (* compile: frontend, metadata manager, well-formedness, profiling,
     PDG construction and Algorithm 1 *)
  let c = P.compile ~name:"md5sum" ~setup:w.W.setup w.W.source in
  Printf.printf "=== Compilation ===\n";
  Printf.printf "COMMSET annotations: %d, features: %s\n"
    (P.count_annotations w.W.source)
    (String.concat "," (P.features_used c));
  Printf.printf "hottest loop: %.0f%% of execution\n" (100. *. P.loop_fraction c);
  Printf.printf "Algorithm 1: %d edges uco, %d edges ico\n" c.P.target.P.n_uco
    c.P.target.P.n_ico;
  Printf.printf "applicable transforms: %s\n\n"
    (String.concat ", " (P.applicable_transforms c));

  (* every plan at 8 threads, simulated *)
  print_endline "=== Plans on the simulated 8-core machine ===";
  List.iter
    (fun (r : P.run) ->
      Printf.printf "  %-44s %5.2fx  output %s\n" r.P.plan.T.Plan.label r.P.speedup
        (Commset_exec.Equiv.verdict_to_string r.P.fidelity))
    (P.evaluate c ~threads:8);

  (* the deterministic-output variant: one fewer SELF annotation flips the
     compiler from DOALL to a pipelined schedule (paper Figure 3) *)
  let det = List.assoc "deterministic" w.W.variants in
  let cd = P.compile ~name:"md5sum-deterministic" ~setup:w.W.setup det in
  print_endline "\n=== One fewer annotation: deterministic output ===";
  List.iter
    (fun (r : P.run) ->
      Printf.printf "  %-44s %5.2fx  output %s\n" r.P.plan.T.Plan.label r.P.speedup
        (Commset_exec.Equiv.verdict_to_string r.P.fidelity))
    (Commset_support.Listx.take 2 (P.evaluate cd ~threads:8))

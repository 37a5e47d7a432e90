(** Prints one line per executed plan — every workload, every plan
    [Pipeline.executable_plans] returns at one worker, on the real and
    the codegen engine — with the work the run did: instructions
    retired, iterations dispatched, buffered updates, per-lock acquire
    counts (commset locks and the machine mutex) and per-builtin call
    counts. At one worker all of these are deterministic, and none of
    them may move when the engines get faster. [dune runtest] diffs
    this against [exec.expected]. *)

module P = Commset_pipeline.Pipeline
module T = Commset_transforms
module Exec = Commset_exec.Exec
module Attrib = Commset_obs.Attrib
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry

let line name engine i (plan : T.Plan.t) (x : Exec.stats) =
  let locks, builtins =
    match x.Exec.x_attrib with
    | None -> ("-", "-")
    | Some a ->
        ( String.concat ";"
            (List.map
               (fun (l : Attrib.lock_stat) ->
                 Printf.sprintf "%s:%d" l.Attrib.l_name l.Attrib.l_acquires)
               a.Attrib.a_locks),
          String.concat ";"
            (List.map
               (fun (b : Attrib.builtin_stat) ->
                 Printf.sprintf "%s:%d" b.Attrib.b_name b.Attrib.b_calls)
               a.Attrib.a_builtins) )
  in
  Printf.printf "%s|%s|#%d|%s|steps=%d|iterations=%d|buffered=%d|locks=%s|builtins=%s\n" name
    (Exec.engine_name engine) i plan.T.Plan.label x.Exec.x_steps x.Exec.x_iterations
    x.Exec.x_buffered_updates locks builtins

let () =
  List.iter
    (fun (w : W.t) ->
      let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
      List.iter
        (fun engine ->
          List.iteri
            (fun i plan ->
              line w.W.wname engine i plan (P.run_parallel ~engine ~jobs:1 c plan).P.xstats)
            (P.executable_plans c ~threads:1))
        [ Exec.Real_engine; Exec.Codegen_engine ])
    Registry.all

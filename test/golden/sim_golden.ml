(** Prints one line per simulated plan — every workload and annotation
    variant, threads 1 to 8, every plan [Pipeline.plans] returns — with
    the simulator's makespan, per-thread busy cycles, contended
    acquires, transaction aborts and lock/queue wait totals (floats as
    exact [%h] hex), a digest of the commit-ordered outputs, and at 4
    threads a digest of the per-thread timelines. [dune runtest] diffs
    this against [sim.expected]. *)

module P = Commset_pipeline.Pipeline
module T = Commset_transforms
module R = Commset_runtime
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry

let digest_lines f xs =
  let b = Buffer.create 4096 in
  List.iter (f b) xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let line src threads i (plan : T.Plan.t) (r : R.Sim.result) ~timeline =
  let busy =
    String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") r.R.Sim.thread_busy))
  in
  let out = digest_lines (fun b (t, s) -> Printf.bprintf b "%h %s\n" t s) r.R.Sim.outputs in
  let tl =
    if not timeline then "-"
    else
      digest_lines
        (fun b (th, ivs) ->
          List.iter (fun (s, e, tag) -> Printf.bprintf b "%d %h %h %s\n" th s e tag) ivs)
        (List.mapi (fun th ivs -> (th, ivs)) (Array.to_list r.R.Sim.timelines))
  in
  Printf.printf
    "%s|t=%d|#%d|%s|makespan=%h|busy=%s|contended=%d|aborts=%d|lock_wait=%h|queue_wait=%h|out=%s|timeline=%s\n"
    src threads i plan.T.Plan.label r.R.Sim.makespan busy r.R.Sim.lock_contended
    r.R.Sim.tx_aborts r.R.Sim.lock_wait r.R.Sim.queue_wait out tl

let () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (src, text) ->
          let c = P.compile ~name:src ~setup:w.W.setup text in
          let lowered = T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace in
          for threads = 1 to 8 do
            let timeline = threads = 4 in
            List.iteri
              (fun i (plan : T.Plan.t) ->
                let pdg =
                  if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain
                in
                let emitted = T.Emit.emit ~plan ~pdg lowered in
                line src threads i plan
                  (T.Emit.simulate ~record_timeline:timeline ~plan emitted)
                  ~timeline)
              (P.plans c ~threads)
          done)
        ((w.W.wname, w.W.source)
        :: List.map (fun (v, s) -> (w.W.wname ^ "/" ^ v, s)) w.W.variants))
    Registry.all

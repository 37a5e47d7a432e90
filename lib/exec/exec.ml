(** The real multicore execution backend; see the interface for the
    architecture and DESIGN.md §13–14 for the predicted-vs-measured
    methodology. *)

module Plan = Commset_transforms.Plan
module Sync = Commset_transforms.Sync
module Emit = Commset_transforms.Emit
module Pdg = Commset_pdg.Pdg
module R = Commset_runtime
module Recorder = Commset_obs.Recorder
module Metrics = Commset_obs.Metrics
module Clock = Commset_obs.Clock
module Diag = Commset_support.Diag

let src_log = Logs.Src.create "commset.exec" ~doc:"Real multicore execution backend"

module Log = (val Logs.src_log src_log : Logs.LOG)

let m_runs = Metrics.counter ~doc:"real-backend plan executions" "exec.runs"

let m_contended =
  Metrics.counter ~doc:"real contended lock acquires" "exec.lock_contended"

let m_full_waits =
  Metrics.counter ~doc:"blocking episodes on full SPSC queues" "exec.queue_full_waits"

let m_empty_waits =
  Metrics.counter ~doc:"blocking episodes on empty SPSC queues" "exec.queue_empty_waits"

let g_wall_par = Metrics.gauge ~doc:"parallel-leg seconds (last run)" "exec.wall_par_s"
let g_wall_seq = Metrics.gauge ~doc:"sequential-leg seconds (last run)" "exec.wall_seq_s"

type engine = Real_engine | Codegen_engine

let engines = [ ("real", Real_engine); ("codegen", Codegen_engine) ]
let engine_name e = fst (List.find (fun (_, e') -> e' = e) engines)

type stats = {
  x_label : string;
  x_engine : string;
  x_threads : int;
  x_wall_seq_s : float;
  x_wall_par_s : float;
  x_measured_speedup : float;
  x_verdict : Equiv.verdict;
  x_lock_contended : int;
  x_queue_full_waits : int;
  x_queue_empty_waits : int;
  x_iterations : int;
  x_frontier_waits : int;
  x_buffered_updates : int;
  x_steps : int;
  x_merge_s : float;
  x_outputs : string list;
  x_engine_reason : string option;
  x_codegen_cache_hit : bool;
  x_codegen_compile_s : float;
  x_attrib : Commset_obs.Attrib.summary option;
}

let supported (plan : Plan.t) =
  match plan.Plan.variant with
  | Plan.Tm ->
      Error "TM plans run as software transactions, which only the simulator models"
  | Plan.Spec ->
      Error
        "speculative plans need the simulator's runtime conflict detection and rollback"
  | Plan.Mutex | Plan.Spin | Plan.Lib -> Ok ()

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(** The equivalence reference and the measured sequential leg: a fresh
    sequential execution of the prepared program on a fresh machine
    (not merely the recorded trace — the reference the user cares about
    is what the sequential program actually prints today). Its wall time
    is the baseline the parallel leg's speedup is measured against. *)
let seq_reference ~(prepared : R.Precompile.t) ~setup : string list * float =
  Recorder.with_span ~cat:"exec" "exec.seq_reference" @@ fun () ->
  let machine = R.Machine.create () in
  setup machine;
  let t0 = Clock.now_ns () in
  ignore (R.Precompile.run_main (R.Precompile.executor ~machine prepared) : float);
  let wall = (Clock.now_ns () -. t0) /. 1e9 in
  (R.Machine.outputs machine, wall)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(engine = Real_engine) ?jobs ?(attrib = true) ~(plan : Plan.t) ~(pdg : Pdg.t)
    ~(trace : R.Trace.t) ~(sync : Sync.t) ~(prepared : R.Precompile.t) ~setup () :
    stats =
  (match supported plan with
  | Ok () -> ()
  | Error why ->
      Diag.error ~code:"CS014" "plan '%s' cannot run on the real backend: %s"
        plan.Plan.label why);
  Recorder.with_span ~cat:"exec" "exec.run" @@ fun () ->
  Metrics.incr m_runs;
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let reference, wall_seq_s = seq_reference ~prepared ~setup in
  (* both are sequential runs of the same deterministic program; a
     divergence means the compilation artifacts are out of sync *)
  if not (List.equal String.equal reference trace.R.Trace.seq_outputs) then
    Diag.error
      "internal: fresh sequential reference diverged from the recorded trace of '%s'"
      plan.Plan.label;
  let emitted = Emit.emit ~plan ~pdg ~trace in
  let r =
    match
      Realexec.run
        ~codegen:(engine = Codegen_engine)
        ~attrib ~plan ~pdg ~trace ~emitted ~prepared ~setup ~jobs ()
    with
    | Ok r -> r
    | Error why ->
        Diag.error ~code:"CS014"
          "plan '%s' cannot run on the real backend: the target loop defeats the \
           coordinator/worker split: %s"
          plan.Plan.label why
  in
  let verdict =
    Equiv.check
      ~commutative:(Equiv.commutative_outputs ~sync ~trace)
      ~reference ~actual:r.Realexec.r_outputs
  in
  if r.Realexec.r_iterations <> R.Trace.n_iterations trace then
    Log.warn (fun m ->
        m "plan '%s': dispatched %d iteration(s), trace recorded %d" plan.Plan.label
          r.Realexec.r_iterations (R.Trace.n_iterations trace));
  let stats =
    {
      x_label = plan.Plan.label;
      x_engine = r.Realexec.r_engine;
      x_threads = jobs;
      x_wall_seq_s = wall_seq_s;
      x_wall_par_s = r.Realexec.r_wall_par_s;
      x_measured_speedup = wall_seq_s /. Float.max 1e-9 r.Realexec.r_wall_par_s;
      x_verdict = verdict;
      x_lock_contended = r.Realexec.r_lock_contended;
      x_queue_full_waits = r.Realexec.r_queue_full_waits;
      x_queue_empty_waits = r.Realexec.r_queue_empty_waits;
      x_iterations = r.Realexec.r_iterations;
      x_frontier_waits = r.Realexec.r_frontier_waits;
      x_buffered_updates = r.Realexec.r_buffered;
      x_steps = r.Realexec.r_steps;
      x_merge_s = r.Realexec.r_merge_s;
      x_outputs = r.Realexec.r_outputs;
      x_engine_reason = r.Realexec.r_codegen_fallback;
      x_codegen_cache_hit = r.Realexec.r_codegen_cache_hit;
      x_codegen_compile_s = r.Realexec.r_codegen_compile_s;
      x_attrib = r.Realexec.r_attrib;
    }
  in
  Metrics.add m_contended stats.x_lock_contended;
  Metrics.add m_full_waits stats.x_queue_full_waits;
  Metrics.add m_empty_waits stats.x_queue_empty_waits;
  Metrics.gauge_set g_wall_par stats.x_wall_par_s;
  Metrics.gauge_set g_wall_seq stats.x_wall_seq_s;
  Log.info (fun m ->
      m "plan '%s' (%s): %.3f ms sequential, %.3f ms on %d domain(s), %s"
        plan.Plan.label stats.x_engine (stats.x_wall_seq_s *. 1e3)
        (stats.x_wall_par_s *. 1e3) stats.x_threads
        (Equiv.verdict_to_string stats.x_verdict));
  stats

(** Tests for the real-execution engine specifically: the differential
    suite pins [~engine:Real_engine] and asserts that every workload's
    every executable plan actually ran on the real engine and matched
    the sequential reference at jobs 1, 2 and 4; the equal-work suite
    pins that the parallel leg retires exactly the sequential run's
    instructions plus the coordinator's per-iteration backbone; a loop
    the coordinator/worker split cannot handle is refused with CS014;
    and a qcheck property establishes that the commutative-update merge
    is insensitive to how iterations were distributed over workers. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module R = Commset_runtime
module Pdg = Commset_pdg.Pdg
module Loops = Commset_analysis.Loops
module Diag = Commset_support.Diag
module Exec = Commset_exec.Exec
module Realexec = Commset_exec.Realexec

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- engine selection API ---- *)

let test_engine_names () =
  check Alcotest.string "real" "real" (Exec.engine_name Exec.Real_engine);
  check Alcotest.bool "engines lists real" true
    (List.assoc_opt "real" Exec.engines = Some Exec.Real_engine);
  check Alcotest.bool "no burn engine" true (List.assoc_opt "burn" Exec.engines = None);
  List.iter
    (fun (name, e) -> check Alcotest.string "engine_name round-trips" name (Exec.engine_name e))
    Exec.engines;
  check Alcotest.bool "default_jobs >= 1" true (Exec.default_jobs () >= 1)

(* ---- merge order-insensitivity ---- *)

(* The engine's correctness argument for buffered updates: each
   iteration belongs to exactly one worker, each worker buffers its
   updates newest-first in iteration order, and the coordinator's
   stable sort on the iteration index reproduces the sequential update
   order exactly — independent of which worker ran which iteration.
   Generated here: per-iteration update counts plus an arbitrary
   iteration->worker assignment. *)
let prop_merge_order_insensitive =
  QCheck.Test.make
    ~name:"realexec: buffered-update merge is order-insensitive" ~count:500
    QCheck.(
      pair (int_range 1 6) (small_list (pair (int_range 0 100) (int_range 0 4))))
    (fun (w, iters) ->
      (* iteration k carries [n] updates, labelled (k, j), and is
         assigned to worker [hint mod w] *)
      let seq =
        List.concat
          (List.mapi (fun k (_, n) -> List.init n (fun j -> (k, (k, j)))) iters)
      in
      let bufs = Array.make w [] in
      List.iteri
        (fun k (hint, n) ->
          let wi = hint mod w in
          for j = 0 to n - 1 do
            bufs.(wi) <- (k, (k, j)) :: bufs.(wi)
          done)
        iters;
      Realexec.merge_order ~compare:Int.compare bufs = seq)

(* ---- differential suite: explicit real engine, no fallback ---- *)

let real_all_plans (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  List.iter
    (fun jobs ->
      let plans = P.executable_plans c ~threads:jobs in
      if jobs > 1 then
        check Alcotest.bool
          (Printf.sprintf "executable plans exist at %d jobs" jobs)
          true (plans <> []);
      List.iter
        (fun (plan : T.Plan.t) ->
          let x = P.run_parallel ~engine:Exec.Real_engine ~jobs c plan in
          check Alcotest.string
            (Printf.sprintf "%s at %d job(s): ran on the real engine"
               plan.T.Plan.label jobs)
            "real" x.P.xstats.Exec.x_engine;
          if x.P.xfidelity = P.Mismatch then
            Alcotest.failf "%s: %s at %d job(s): output mismatch" w.W.wname
              plan.T.Plan.label jobs;
          check Alcotest.bool
            (Printf.sprintf "%s at %d job(s): iterations executed"
               plan.T.Plan.label jobs)
            true
            (x.P.xstats.Exec.x_iterations > 0))
        plans)
    [ 1; 2; 4 ]

let differential_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: real engine, no fallback, jobs 1/2/4" w.W.wname)
        `Quick (real_all_plans w))
    Registry.all

(* ---- equal work: both legs run the same program ---- *)

(* The sequential leg and the parallel leg of a measurement must do the
   same work. The parallel leg retires exactly the sequential run's
   instructions plus the loop-control backbone the coordinator executes
   once per iteration on top of the workers' full bodies — nothing
   more (no replayed cost model), nothing less (no skipped work). *)
let equal_work (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let seq_steps =
    let machine = R.Machine.create () in
    w.W.setup machine;
    let ex = R.Precompile.executor ~machine c.P.prepared in
    ignore (R.Precompile.run_main ex : float);
    R.Precompile.steps ex
  in
  let backbone =
    let pdg = c.P.target.P.pdg in
    let loop = pdg.Pdg.loop in
    match
      R.Precompile.plan_real c.P.prepared ~fname:pdg.Pdg.func.Commset_ir.Ir.fname
        ~header:loop.Loops.header ~latches:loop.Loops.latches ~body:loop.Loops.body
    with
    | Ok rt -> List.length (R.Precompile.rtarget_backbone rt)
    | Error why -> Alcotest.failf "%s: plan_real refused the loop: %s" w.W.wname why
  in
  let expected = seq_steps + (R.Trace.n_iterations c.P.trace * backbone) in
  List.iter
    (fun (engine, jobs) ->
      List.iter
        (fun (plan : T.Plan.t) ->
          let x = P.run_parallel ~engine ~jobs c plan in
          check Alcotest.int
            (Printf.sprintf "%s on %s at %d job(s): sequential steps + iterations x backbone"
               plan.T.Plan.label (Exec.engine_name engine) jobs)
            expected x.P.xstats.Exec.x_steps)
        (P.executable_plans c ~threads:jobs))
    [
      (Exec.Real_engine, 1);
      (Exec.Real_engine, 2);
      (Exec.Codegen_engine, 1);
      (Exec.Codegen_engine, 2);
    ]

let equal_work_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: equal work, real and codegen at jobs 1/2" w.W.wname)
        `Quick (equal_work w))
    Registry.all

(* ---- loops the coordinator/worker split refuses ---- *)

(* The loop condition reads a global the body writes, so the coordinator
   cannot run the loop control ahead of the workers. There is no other
   engine to fall back to: the run must end in a CS014 diagnostic that
   says why. *)
let refused_source =
  {|
int left = 6;

void main() {
  int i = 0;
  while (left > 0) {
    print(int_to_string(i));
    left = left - 1;
    i = i + 1;
  }
}
|}

let test_refused_loop_cs014 () =
  let c = P.compile ~name:"refused" refused_source in
  let plans = P.executable_plans c ~threads:2 in
  check Alcotest.bool "the simulator offers executable plans" true (plans <> []);
  List.iter
    (fun (plan : T.Plan.t) ->
      match P.run_parallel ~jobs:2 c plan with
      | _ -> Alcotest.failf "%s: refused loop ran" plan.T.Plan.label
      | exception Diag.Error d ->
          check Alcotest.(option string) "CS014" (Some "CS014") d.Diag.code;
          let needle = "loop condition reads a global written in the loop body" in
          let msg = d.Diag.message in
          let n = String.length needle in
          let rec found i =
            i + n <= String.length msg && (String.sub msg i n = needle || found (i + 1))
          in
          if not (found 0) then
            Alcotest.failf "%s: CS014 message lacks plan_real's reason: %s"
              plan.T.Plan.label msg)
    plans

let suite =
  ( "realexec",
    [
      Alcotest.test_case "engine names and defaults" `Quick test_engine_names;
      qcheck prop_merge_order_insensitive;
      Alcotest.test_case "refused loop raises CS014 with the reason" `Quick
        test_refused_loop_cs014;
    ]
    @ differential_cases @ equal_work_cases )

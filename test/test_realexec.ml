(** Tests for the real-execution engine specifically: the differential
    suite pins [~engine:Real_engine] and asserts that every workload's
    every executable plan actually ran on the real engine and matched
    the sequential reference at jobs 1, 2 and 4; the equal-work suite
    pins that the parallel leg retires exactly the sequential run's
    instructions plus the coordinator's per-iteration backbone (also for
    a target loop entered twice); the plan-time maps are checked against
    the PDG on every workload and executable plan; a loop the
    coordinator/worker split cannot handle is refused with CS014; and a
    qcheck property establishes that the commutative-update merge is
    insensitive to how iterations were distributed over workers. *)

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
let equal_work ~name ~setup source () =
  let c = P.compile ~name ~setup source in
  let seq_steps =
    let machine = R.Machine.create () in
    setup machine;
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
    | Error why -> Alcotest.failf "%s: plan_real refused the loop: %s" name why
  in
  let iterations = R.Trace.n_iterations c.P.trace in
  let expected = seq_steps + (iterations * backbone) in
  List.iter
    (fun (engine, jobs) ->
      List.iter
        (fun (plan : T.Plan.t) ->
          let x = P.run_parallel ~engine ~jobs c plan in
          let what =
            Printf.sprintf "%s on %s at %d job(s)" plan.T.Plan.label
              (Exec.engine_name engine) jobs
          in
          check Alcotest.int (what ^ ": sequential steps + iterations x backbone") expected
            x.P.xstats.Exec.x_steps;
          check Alcotest.int (what ^ ": iterations as traced") iterations
            x.P.xstats.Exec.x_iterations)
        (P.executable_plans c ~threads:jobs))
    [
      (Exec.Real_engine, 1);
      (Exec.Real_engine, 2);
      (Exec.Codegen_engine, 1);
      (Exec.Codegen_engine, 2);
    ]

(* The target loop's function runs twice. The workers retire at the
   first exit, so the second entry's iterations run inline on the
   coordinator; they are still the program's work and still iterations,
   and the recorder must not count the first exit's header test as one. *)
let reentered_source =
  {|
void work(int n) {
  for (int i = 0; i < n; i++) {
    int x = i * 7 + 3;
    x = (x * x + 11) % 1009;
    x = (x * x + 13) % 1013;
    x = (x * x + 17) % 1019;
    #pragma commset member SELF
    {
      print(int_to_string(x));
    }
  }
}

void main() {
  work(60);
  work(50);
}
|}

let test_reentered_trace () =
  let c = P.compile ~name:"reentered" reentered_source in
  check Alcotest.int "one trace iteration per loop iteration of both entries" 110
    (R.Trace.n_iterations c.P.trace);
  check Alcotest.bool "an executable plan at one job" true
    (P.executable_plans c ~threads:1 <> [])

let equal_work_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: equal work, real and codegen at jobs 1/2" w.W.wname)
        `Quick
        (equal_work ~name:w.W.wname ~setup:w.W.setup w.W.source))
    Registry.all
  @ [
      Alcotest.test_case "re-entered loop: equal work, real and codegen at jobs 1/2" `Quick
        (equal_work ~name:"reentered" ~setup:ignore reentered_source);
    ]

(* ---- plan-time maps against the PDG ---- *)

(* For every executable plan: the PDG's dense iid -> node map equals the
   map rebuilt from each node's instructions (and answers [None] off its
   range), and the engine's action map is exactly that map restricted to
   nodes that hold commset locks, are frontier-ordered or await the
   frontier at entry. *)
let plan_time_maps (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let lowered = T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace in
  List.iter
    (fun (plan : T.Plan.t) ->
      let pdg =
        if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain
      in
      let n_instrs = pdg.Pdg.func.Commset_ir.Ir.n_instrs in
      let rebuilt = Hashtbl.create 64 in
      Array.iter
        (fun (n : Pdg.node) ->
          List.iter
            (fun (i : Commset_ir.Ir.instr) ->
              Hashtbl.replace rebuilt i.Commset_ir.Ir.iid n.Pdg.nid)
            (Pdg.node_instrs n))
        pdg.Pdg.nodes;
      for iid = -3 to n_instrs + 3 do
        check
          Alcotest.(option int)
          (Printf.sprintf "%s: node of iid %d" plan.T.Plan.label iid)
          (Hashtbl.find_opt rebuilt iid) (Pdg.node_of_instr pdg iid)
      done;
      let loop = pdg.Pdg.loop in
      let rt =
        match
          R.Precompile.plan_real c.P.prepared ~fname:pdg.Pdg.func.Commset_ir.Ir.fname
            ~header:loop.Loops.header ~latches:loop.Loops.latches ~body:loop.Loops.body
        with
        | Ok rt -> rt
        | Error why -> Alcotest.failf "%s: plan_real refused the loop: %s" w.W.wname why
      in
      let locks = (T.Emit.emit ~plan ~pdg lowered).T.Emit.locks in
      let ord = Realexec.analyse ~plan ~pdg ~trace:c.P.trace ~locks ~rt in
      check Alcotest.int (plan.T.Plan.label ^ ": action map covers every iid") n_instrs
        (Array.length ord.Realexec.o_action);
      Array.iteri
        (fun iid got ->
          let want =
            match Pdg.node_of_instr pdg iid with
            | Some nid
              when ord.Realexec.o_node_locks.(nid) <> [||]
                   || ord.Realexec.o_ordered.(nid) || ord.Realexec.o_entry_await.(nid) ->
                nid
            | _ -> -1
          in
          check Alcotest.int
            (Printf.sprintf "%s: action node of iid %d" plan.T.Plan.label iid)
            want got)
        ord.Realexec.o_action)
    (List.concat_map (fun jobs -> P.executable_plans c ~threads:jobs) [ 1; 2; 4 ])

let plan_time_map_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: dense node map and action map match the PDG" w.W.wname)
        `Quick (plan_time_maps w))
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

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

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
          let msg = d.Diag.message in
          if not (contains ~sub:"loop condition reads a global written in the loop body" msg)
          then
            Alcotest.failf "%s: CS014 message lacks plan_real's reason: %s"
              plan.T.Plan.label msg)
    plans

(* ---- a worker traps while it holds a commset lock ---- *)

(* The SELF member indexes [counts] at [i + off], where [off] is the
   length of a file the setup writes. The compile-time setup writes an
   empty file, so every index is in range; a second setup makes the last
   iterations index past the end, inside the member, under its lock. *)
let trap_source =
  {|
int[] counts;
int total = 0;

void main() {
  int fd = fopen("offset");
  int off = fsize(fd);
  fclose(fd);
  int n = 40;
  counts = iarray(n);
  for (int i = 0; i < n; i++) {
    int x = i * 7 + 3;
    x = (x * x + 11) % 1009;
    x = (x * x + 13) % 1013;
    #pragma commset member SELF
    {
      counts[i + off] = counts[i + off] + x;
      total = total + counts[i + off];
    }
  }
  print(int_to_string(total));
}
|}

let offset_setup off m = R.Machine.add_file m "offset" (String.make off 'x')

let test_worker_trap_releases_locks () =
  let c = P.compile ~name:"trap" ~setup:(offset_setup 0) trap_source in
  let plan =
    match
      List.find_opt
        (fun (p : T.Plan.t) ->
          p.T.Plan.shape = T.Plan.Sdoall && p.T.Plan.variant = T.Plan.Mutex)
        (P.executable_plans c ~threads:2)
    with
    | Some p -> p
    | None -> Alcotest.fail "no executable DOALL + Mutex plan at 2 jobs"
  in
  let lowered = T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace in
  let pdg = if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain in
  let locks = (T.Emit.emit ~plan ~pdg lowered).T.Emit.locks in
  check Alcotest.bool "the member takes a commset lock" true (Array.length locks > 0);
  (match
     Realexec.run ~plan ~pdg ~trace:c.P.trace ~locks ~prepared:c.P.prepared
       ~setup:(offset_setup 5) ~jobs:2 ()
   with
  | Ok _ -> Alcotest.fail "an out-of-range index ran to completion"
  | Error why -> Alcotest.failf "plan_real refused the loop: %s" why
  | exception Diag.Error d ->
      if not (contains ~sub:"out of bounds" d.Diag.message) then
        Alcotest.failf "unexpected diagnostic: %s" d.Diag.message);
  let x = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 c plan in
  check Alcotest.bool "the same program then runs Equiv" true (x.P.xfidelity <> P.Mismatch)

(* ---- one cost per builtin ---- *)

(* The builtins a route charges without running their implementation:
   the buffered update writers and the private-bitmap accessors. Their
   engine charges must equal what the sequential run charged for the
   same calls. *)
let deferred_builtins =
  [ "hist_add"; "vec_push"; "log_write"; "stat_add"; "stat_note_max"; "bm_set"; "bm_get" ]

let test_deferred_costs () =
  let module Attrib = Commset_obs.Attrib in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun wname ->
      let w = Option.get (Registry.find wname) in
      let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
      (* what the sequential run charged each builtin inside the loop *)
      let seq = Hashtbl.create 8 in
      Array.iter
        (fun it ->
          List.iter
            (fun e ->
              List.iter
                (function
                  | R.Trace.Abuiltin { bi; cost } ->
                      let n = bi.R.Builtins.name in
                      let sum = Option.value ~default:0. (Hashtbl.find_opt seq n) in
                      Hashtbl.replace seq n (sum +. cost)
                  | _ -> ())
                (R.Trace.exec_atoms e))
            (R.Trace.iteration_execs it))
        c.P.trace.R.Trace.iterations;
      let plan = List.hd (P.executable_plans c ~threads:1) in
      let x = P.run_parallel ~engine:Exec.Real_engine ~jobs:1 c plan in
      if x.P.xstats.Exec.x_buffered_updates = 0 then
        Alcotest.failf "%s: no update was buffered" wname;
      match x.P.xstats.Exec.x_attrib with
      | None -> Alcotest.failf "%s: no attribution summary" wname
      | Some a ->
          List.iter
            (fun (st : Attrib.builtin_stat) ->
              let n = st.Attrib.b_name in
              if List.mem n deferred_builtins then begin
                Hashtbl.replace seen n ();
                let expect = Option.value ~default:nan (Hashtbl.find_opt seq n) in
                if Float.abs (st.Attrib.b_cost_cycles -. expect) > 1e-9 *. Float.abs expect then
                  Alcotest.failf "%s: %s charged %h cycles on the engine, %h sequentially" wname
                    n st.Attrib.b_cost_cycles expect
              end)
            a.Attrib.a_builtins)
    [ "hmmer"; "geti"; "url"; "eclat" ];
  List.iter
    (fun n ->
      if not (Hashtbl.mem seen n) then Alcotest.failf "%s never ran on the engine" n)
    deferred_builtins

let suite =
  ( "realexec",
    [
      Alcotest.test_case "engine names and defaults" `Quick test_engine_names;
      qcheck prop_merge_order_insensitive;
      Alcotest.test_case "refused loop raises CS014 with the reason" `Quick
        test_refused_loop_cs014;
      Alcotest.test_case "re-entered loop: trace counts real iterations only" `Quick
        test_reentered_trace;
    ]
    @ differential_cases @ equal_work_cases @ plan_time_map_cases
    @ [
        Alcotest.test_case "deferred builtin costs match the sequential run" `Quick
          test_deferred_costs;
        Alcotest.test_case "worker trap under a commset lock ends in its diagnostic" `Quick
          test_worker_trap_releases_locks;
      ] )

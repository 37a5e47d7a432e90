(** Tests for the parallelizing transforms: DOALL applicability, DSWP /
    PS-DSWP stage formation, the synchronization engine's lock
    assignment, plan emission, and end-to-end simulated runs on small
    programs. *)

module P = Commset_pipeline.Pipeline
module T = Commset_transforms
module Pdg = Commset_pdg.Pdg
module Scc = Commset_pdg.Scc
module R = Commset_runtime

let check = Alcotest.check

let compile ?(setup = fun _ -> ()) src = P.compile ~name:"<test>" ~setup src

(* independent iterations with a commutative shared push *)
let doall_src =
  {|
#pragma commset decl G group
#pragma commset predicate G (a) (b) (a != b)
void main() {
  for (int i = 0; i < 32; i++) {
    int acc = 0;
    for (int j = 0; j < 40; j++) {
      acc = acc + (i * j) % 17;
    }
    #pragma commset member G(i), SELF
    {
      vec_push(int_to_string(acc));
    }
  }
}
|}

(* a true sequential accumulation: no legal DOALL *)
let seq_src =
  {|
void main() {
  int acc = 1;
  for (int i = 0; i < 16; i++) {
    acc = (acc * 7 + i) % 1000;
    print(int_to_string(acc));
  }
}
|}

let test_doall_applicable () =
  let c = compile doall_src in
  check Alcotest.bool "doall applicable" true (T.Doall.applicable c.P.target.P.pdg);
  check Alcotest.bool "plain pdg blocked" false (T.Doall.applicable c.P.target.P.pdg_plain)

let test_doall_blocked_by_recurrence () =
  let c = compile seq_src in
  match T.Doall.applicability c.P.target.P.pdg with
  | T.Doall.Applicable -> Alcotest.fail "a recurrence must block DOALL"
  | T.Doall.Blocked edges -> check Alcotest.bool "reports blockers" true (edges <> [])

let test_doall_speedup () =
  let c = compile doall_src in
  let runs = P.evaluate c ~threads:8 in
  let doalls =
    List.filter (fun r -> r.P.plan.T.Plan.shape = T.Plan.Sdoall) runs
  in
  check Alcotest.bool "a DOALL plan exists" true (doalls <> []);
  let best =
    List.fold_left (fun acc r -> max acc r.P.speedup) 0. doalls
  in
  check Alcotest.bool "best DOALL scales" true (best > 3.0);
  List.iter
    (fun r -> check Alcotest.bool "no output corruption" true (r.P.fidelity <> P.Mismatch))
    doalls

let test_sequential_stays_sequential () =
  let c = compile seq_src in
  (* whatever plans exist cannot beat ~1x by much: the recurrence plus the
     in-order prints serialize everything *)
  List.iter
    (fun r -> check Alcotest.bool "no fake speedup" true (r.P.speedup < 1.6))
    (P.evaluate c ~threads:8)

let test_sync_locks () =
  let c = compile doall_src in
  let pdg = c.P.target.P.pdg in
  (* the push region must hold the G lock and its self lock, in rank order *)
  let region =
    List.find (fun n -> Pdg.node_region n <> None) (Pdg.nodes pdg)
  in
  let locks = T.Sync.locks_of c.P.sync region.Pdg.nid in
  check Alcotest.bool "G lock held" true (List.mem "G" locks);
  let ranks =
    List.map
      (fun s -> (Commset_core.Metadata.set_info_exn c.P.md s).Commset_core.Metadata.rank)
      locks
  in
  check Alcotest.(list int) "locks sorted by rank" (List.sort compare ranks) ranks

let test_lib_safe_needs_no_locks () =
  (* a commset whose only member effect is a thread-safe builtin (print):
     no compiler lock, only the library's internal one *)
  let src =
    {|
void main() {
  for (int i = 0; i < 8; i++) {
    #pragma commset member SELF
    {
      print(int_to_string(i));
    }
  }
}
|}
  in
  let c = compile src in
  check Alcotest.bool "no compiler locks" false (T.Sync.any_compiler_locks c.P.sync)

let test_tm_applicability () =
  (* kmeans' update block is pure arithmetic: TM applies; md5sum's I/O
     blocks make TM inapplicable *)
  let k = Option.get (Commset_workloads.Registry.find "kmeans") in
  let ck = compile ~setup:k.Commset_workloads.Workload.setup k.Commset_workloads.Workload.source in
  check Alcotest.bool "kmeans TM ok" true (T.Sync.tm_applicable ck.P.sync ck.P.trace);
  let m = Option.get (Commset_workloads.Registry.find "md5sum") in
  let cm = compile ~setup:m.Commset_workloads.Workload.setup m.Commset_workloads.Workload.source in
  check Alcotest.bool "md5sum TM rejected (I/O)" false
    (T.Sync.tm_applicable cm.P.sync cm.P.trace)

let test_dswp_stages_topological () =
  let w = Option.get (Commset_workloads.Registry.find "md5sum") in
  let src = List.assoc "deterministic" w.Commset_workloads.Workload.variants in
  let c = compile ~setup:w.Commset_workloads.Workload.setup src in
  let runs = P.evaluate c ~threads:8 in
  let ps = List.filter (fun r -> T.Plan.is_psdswp r.P.plan) runs in
  check Alcotest.bool "PS-DSWP produced" true (ps <> []);
  List.iter
    (fun r ->
      match r.P.plan.T.Plan.shape with
      | T.Plan.Sdswp stages ->
          (* stage thread counts sum to <= total threads *)
          let used =
            List.fold_left (fun acc (s : T.Plan.stage) -> acc + s.T.Plan.sthreads) 0 stages
          in
          check Alcotest.bool "thread budget respected" true (used <= 8);
          (* the deterministic print region sits in a sequential stage *)
          let pdg = c.P.target.P.pdg in
          let print_stage =
            List.find_opt
              (fun (s : T.Plan.stage) ->
                List.exists
                  (fun nid ->
                    match (pdg.Pdg.nodes.(nid)).Pdg.kind with
                    | Pdg.Nregion (_, instrs) ->
                        List.exists
                          (fun i -> Commset_ir.Ir.callee_of i = Some "print")
                          instrs
                    | _ -> false)
                  s.T.Plan.snodes)
              stages
          in
          (match print_stage with
          | Some s -> check Alcotest.int "print stage sequential" 1 s.T.Plan.sthreads
          | None -> Alcotest.fail "print region not found in stages")
      | T.Plan.Sdoall -> ())
    ps

let test_pipeline_fidelity_exact () =
  (* PS-DSWP with a sequential output stage must reproduce the sequential
     output exactly *)
  let w = Option.get (Commset_workloads.Registry.find "md5sum") in
  let src = List.assoc "deterministic" w.Commset_workloads.Workload.variants in
  let c = compile ~setup:w.Commset_workloads.Workload.setup src in
  List.iter
    (fun r ->
      if T.Plan.is_psdswp r.P.plan then
        check Alcotest.bool "deterministic pipeline output" true (r.P.fidelity = P.Exact))
    (P.evaluate c ~threads:8)

let test_speedup_monotonic_sanity () =
  (* more threads never cause a catastrophic slowdown for the lib-locked
     DOALL on md5sum, and 1-thread plans hover near 1x *)
  let w = Option.get (Commset_workloads.Registry.find "md5sum") in
  let c = compile ~setup:w.Commset_workloads.Workload.setup w.Commset_workloads.Workload.source in
  (match P.best c ~threads:1 with
  | Some r -> check Alcotest.bool "1 thread ~ 1x" true (r.P.speedup < 1.1)
  | None -> Alcotest.fail "no plan at 1 thread");
  let s2 = (Option.get (P.best c ~threads:2)).P.speedup in
  let s8 = (Option.get (P.best c ~threads:8)).P.speedup in
  check Alcotest.bool "2 < 8 threads" true (s2 < s8);
  check Alcotest.bool "2 threads meaningful" true (s2 > 1.5)

let test_emit_lock_balance () =
  (* every emitted thread program has balanced acquire/release pairs *)
  let c = compile doall_src in
  List.iter
    (fun plan ->
      let e = T.Emit.emit ~plan ~pdg:c.P.target.P.pdg (T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace) in
      Array.iter
        (fun segs ->
          let held = Hashtbl.create 8 in
          Array.iter
            (fun seg ->
              match seg with
              | R.Sim.Acquire l ->
                  Alcotest.(check bool) "no recursive acquire" false (Hashtbl.mem held l);
                  Hashtbl.add held l ()
              | R.Sim.Release l ->
                  Alcotest.(check bool) "release held" true (Hashtbl.mem held l);
                  Hashtbl.remove held l
              | _ -> ())
            segs;
          Alcotest.(check int) "all released" 0 (Hashtbl.length held))
        e.T.Emit.threads)
    (P.plans c ~threads:4)

(* ---- pipeline stage-structure invariants ---- *)

let test_stage_coverage () =
  (* every non-loop-control PDG node appears in exactly one stage of
     every pipeline plan *)
  List.iter
    (fun name ->
      let w = Option.get (Commset_workloads.Registry.find name) in
      let c = compile ~setup:w.Commset_workloads.Workload.setup
          w.Commset_workloads.Workload.source
      in
      List.iter
        (fun (p : T.Plan.t) ->
          match p.T.Plan.shape with
          | T.Plan.Sdoall -> ()
          | T.Plan.Sdswp stages ->
              let pdg = if p.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain in
              let assigned = Hashtbl.create 64 in
              List.iter
                (fun (s : T.Plan.stage) ->
                  List.iter
                    (fun nid ->
                      if Hashtbl.mem assigned nid then
                        Alcotest.failf "%s/%s: node %d in two stages" name p.T.Plan.label nid;
                      Hashtbl.replace assigned nid ())
                    s.T.Plan.snodes)
                stages;
              List.iter
                (fun (n : Pdg.node) ->
                  if (not n.Pdg.loop_control) && not (Hashtbl.mem assigned n.Pdg.nid) then
                    Alcotest.failf "%s/%s: node %d unassigned" name p.T.Plan.label n.Pdg.nid)
                (Pdg.nodes pdg))
        (P.plans c ~threads:8))
    [ "md5sum"; "em3d"; "kmeans" ]

let test_queue_counts () =
  (* a pipeline with k stages has at least k-1 queues per iteration path
     and emission reports a consistent count *)
  let w = Option.get (Commset_workloads.Registry.find "em3d") in
  let c = compile ~setup:w.Commset_workloads.Workload.setup w.Commset_workloads.Workload.source in
  List.iter
    (fun (p : T.Plan.t) ->
      match p.T.Plan.shape with
      | T.Plan.Sdoall -> ()
      | T.Plan.Sdswp stages ->
          let e = T.Emit.emit ~plan:p ~pdg:c.P.target.P.pdg (T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace) in
          Alcotest.(check bool)
            (Printf.sprintf "%s has queues" p.T.Plan.label)
            true
            (List.length stages < 2 || e.T.Emit.n_queues >= List.length stages - 1))
    (P.plans c ~threads:8)

(* Counts, not timings: emission counts each thread's segments, then
   fills arrays of exactly that length, so it allocates little beyond the
   thread arrays (one word per segment). A promoted word is counted once.
   Minor words come from [Gc.minor_words]: OCaml 5.1's [Gc.counters]
   divides the words still in the minor heap by the word size once more. *)
let test_emit_allocation () =
  let w = Option.get (Commset_workloads.Registry.find "kmeans") in
  let c =
    compile ~setup:w.Commset_workloads.Workload.setup w.Commset_workloads.Workload.source
  in
  let plan =
    List.find (fun (p : T.Plan.t) -> p.T.Plan.label = "DSWP[8] + Lib") (P.plans c ~threads:8)
  in
  let pdg = if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain in
  let low = T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace in
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let e = T.Emit.emit ~plan ~pdg low in
  let words = words () -. w0 in
  let segs = Array.fold_left (fun n t -> n + Array.length t) 0 e.T.Emit.threads in
  let per_seg = words /. float_of_int segs in
  if per_seg > 1.5 then
    Alcotest.failf "emitting %d segments allocated %.0f words, %.2f per segment (at most 1.5)"
      segs words per_seg

let structure_cases =
  [
    Alcotest.test_case "stage coverage" `Slow test_stage_coverage;
    Alcotest.test_case "queue counts" `Slow test_queue_counts;
    Alcotest.test_case "emission allocates little beyond the thread arrays" `Slow
      test_emit_allocation;
  ]

let suite =
  ( "transforms",
    structure_cases
    @ [
      Alcotest.test_case "doall applicable" `Quick test_doall_applicable;
      Alcotest.test_case "doall blocked by recurrence" `Quick test_doall_blocked_by_recurrence;
      Alcotest.test_case "doall speedup" `Quick test_doall_speedup;
      Alcotest.test_case "sequential stays sequential" `Quick test_sequential_stays_sequential;
      Alcotest.test_case "sync lock assignment" `Quick test_sync_locks;
      Alcotest.test_case "lib-safe sets unlocked" `Quick test_lib_safe_needs_no_locks;
      Alcotest.test_case "TM applicability" `Quick test_tm_applicability;
      Alcotest.test_case "PS-DSWP stages" `Quick test_dswp_stages_topological;
      Alcotest.test_case "pipeline determinism" `Quick test_pipeline_fidelity_exact;
      Alcotest.test_case "speedup sanity" `Quick test_speedup_monotonic_sanity;
      Alcotest.test_case "emit lock balance" `Quick test_emit_lock_balance;
    ] )


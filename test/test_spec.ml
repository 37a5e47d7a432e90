(** Tests for the speculative (runtime-checked commutativity) extension:
    the concrete predicate evaluator, spec-relaxability detection, the
    simulator's predicate-based conflict rule, and the end-to-end
    geti/dynamic result. *)

module P = Commset_pipeline.Pipeline
module T = Commset_transforms
module R = Commset_runtime
module L = Commset_lang
open Commset_support

let check = Alcotest.check

(* ---- concrete predicate evaluation ---- *)

let parse_expr = L.Parser.parse_expr_string

let test_concrete_eval () =
  let holds = R.Concrete_eval.predicate_holds ~params1:[ "a" ] ~params2:[ "b" ] in
  check Alcotest.bool "ints differ" true
    (holds ~actuals1:[ R.Value.Vint 1 ] ~actuals2:[ R.Value.Vint 2 ] (parse_expr "a != b"));
  check Alcotest.bool "ints equal" false
    (holds ~actuals1:[ R.Value.Vint 5 ] ~actuals2:[ R.Value.Vint 5 ] (parse_expr "a != b"));
  check Alcotest.bool "arith" true
    (holds ~actuals1:[ R.Value.Vint 3 ] ~actuals2:[ R.Value.Vint 4 ]
       (parse_expr "a * 2 + 1 != b * 2 + 1"));
  check Alcotest.bool "strings" true
    (holds
       ~actuals1:[ R.Value.Vstring "x" ]
       ~actuals2:[ R.Value.Vstring "y" ]
       (parse_expr "a != b"));
  (* two-parameter lists *)
  let holds2 = R.Concrete_eval.predicate_holds ~params1:[ "a"; "b" ] ~params2:[ "c"; "d" ] in
  check Alcotest.bool "pairwise" true
    (holds2
       ~actuals1:[ R.Value.Vint 1; R.Value.Vint 2 ]
       ~actuals2:[ R.Value.Vint 1; R.Value.Vint 3 ]
       (parse_expr "a != c || b != d"))

let test_concrete_eval_errors () =
  let fails f = match Diag.guard f with Error _ -> () | Ok _ -> Alcotest.fail "expected error" in
  fails (fun () ->
      R.Concrete_eval.predicate_holds ~params1:[ "a" ] ~params2:[ "b" ]
        ~actuals1:[ R.Value.Vint 1 ] ~actuals2:[] (parse_expr "a != b"));
  fails (fun () ->
      R.Concrete_eval.predicate_holds ~params1:[ "a" ] ~params2:[ "b" ]
        ~actuals1:[ R.Value.Vint 1 ] ~actuals2:[ R.Value.Vint 0 ] (parse_expr "a / b == 0"))

(* property: concrete evaluation agrees with the interpreter's arithmetic *)
let prop_concrete_matches_direct =
  QCheck.Test.make ~name:"concrete predicate eval is arithmetically correct" ~count:200
    QCheck.(pair (int_range (-50) 50) (int_range (-50) 50))
    (fun (x, y) ->
      let holds e =
        R.Concrete_eval.predicate_holds ~params1:[ "a" ] ~params2:[ "b" ]
          ~actuals1:[ R.Value.Vint x ] ~actuals2:[ R.Value.Vint y ] (parse_expr e)
      in
      holds "a != b" = (x <> y)
      && holds "a + 1 > b" = (x + 1 > y)
      && holds "a * a >= 0" = (x * x >= 0))

(* ---- simulator predicate-based conflicts ---- *)

let spec_tx member key =
  R.Sim.Tx
    {
      cost = 100.;
      reads = [ "x" ];
      writes = [ "x" ];
      outputs = [];
      tag = member;
      spec =
        Some { R.Sim.sp_member = member; sp_keys = [ [ ("S", [ R.Value.Vint key ]) ] ] };
    }

let run_spec ~commutes segs =
  R.Sim.run
    (R.Sim.create ~spec_commutes:commutes ~locks:[||] ~n_queues:0 (Array.map Array.of_list segs))

let keys_differ (s1 : R.Sim.spec_info) (s2 : R.Sim.spec_info) =
  s1.R.Sim.sp_keys <> s2.R.Sim.sp_keys

let test_sim_spec_commuting () =
  (* overlapping footprints, distinct keys: the commutativity check
     forgives the overlap, no aborts *)
  let r = run_spec ~commutes:keys_differ [| [ spec_tx "m" 1 ]; [ spec_tx "m" 2 ] |] in
  check Alcotest.int "no aborts for commuting txs" 0 r.R.Sim.tx_aborts

let test_sim_spec_conflicting () =
  (* identical keys: the predicate fails, the overlap is a real conflict *)
  let r =
    run_spec ~commutes:keys_differ
      [| [ spec_tx "m" 7 ]; [ R.Sim.Compute { costs = [| 1. |]; tag = "w" }; spec_tx "m" 7 ] |]
  in
  check Alcotest.bool "abort on non-commuting overlap" true (r.R.Sim.tx_aborts >= 1)

(* ---- end to end: geti/dynamic ---- *)

let test_geti_dynamic () =
  let w = Option.get (Commset_workloads.Registry.find "geti") in
  let src = List.assoc "dynamic" w.Commset_workloads.Workload.variants in
  let c = P.compile ~name:"geti/dynamic" ~setup:w.Commset_workloads.Workload.setup src in
  (* static DOALL must be blocked (the tag is not affine in the IV) ... *)
  check Alcotest.bool "static doall blocked" false (T.Doall.applicable c.P.target.P.pdg);
  let runs = P.evaluate c ~threads:8 in
  let spec_runs =
    List.filter (fun r -> r.P.plan.T.Plan.variant = T.Plan.Spec) runs
  in
  (* ... but the speculative plan exists, is fastest, and keeps outputs sane *)
  (match spec_runs with
  | [ r ] ->
      check Alcotest.bool "spec is the best plan" true
        (List.for_all (fun r' -> r'.P.speedup <= r.P.speedup) runs);
      check Alcotest.bool "spec scales" true (r.P.speedup > 2.0);
      check Alcotest.bool "no corruption" true (r.P.fidelity <> P.Mismatch)
  | _ -> Alcotest.fail "expected exactly one speculative plan");
  (* the statically-provable primary variant has no spec plan *)
  let cp = P.compile ~name:"geti" ~setup:w.Commset_workloads.Workload.setup
      w.Commset_workloads.Workload.source
  in
  check Alcotest.bool "no spec plan when statics suffice" true
    (List.for_all
       (fun (p : T.Plan.t) -> p.T.Plan.variant <> T.Plan.Spec)
       (P.plans cp ~threads:8))

let test_spec_not_offered_for_unpredicated () =
  (* an unannotated recurrence is not speculable: no predicate to check *)
  let src =
    "void main() { int acc = 0; for (int i = 0; i < 8; i++) { acc = acc + i; vec_push(int_to_string(acc)); } }"
  in
  let c = P.compile ~name:"rec" src in
  check Alcotest.bool "no spec plan" true
    (List.for_all
       (fun (p : T.Plan.t) -> p.T.Plan.variant <> T.Plan.Spec)
       (P.plans c ~threads:8))

let suite =
  ( "spec",
    [
      Alcotest.test_case "concrete predicate eval" `Quick test_concrete_eval;
      Alcotest.test_case "concrete eval errors" `Quick test_concrete_eval_errors;
      Alcotest.test_case "sim: commuting overlap forgiven" `Quick test_sim_spec_commuting;
      Alcotest.test_case "sim: non-commuting overlap aborts" `Quick test_sim_spec_conflicting;
      Alcotest.test_case "geti/dynamic end to end" `Slow test_geti_dynamic;
      Alcotest.test_case "no spec without predicates" `Quick test_spec_not_offered_for_unpredicated;
      QCheck_alcotest.to_alcotest prop_concrete_matches_direct;
    ] )

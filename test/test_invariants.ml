(** Cross-cutting invariants: trace cost conservation, emission work
    conservation, evaluation determinism, source-level dependence
    explanations, and per-workload PDG shape assertions. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module R = Commset_runtime
module Pdg = Commset_pdg.Pdg
module Report = Commset_report

let check = Alcotest.check

let compiled = Hashtbl.create 8

let comp name =
  match Hashtbl.find_opt compiled name with
  | Some c -> c
  | None ->
      let w = Option.get (Registry.find name) in
      let c = P.compile ~name ~setup:w.W.setup w.W.source in
      Hashtbl.replace compiled name c;
      c

(* ---- trace conservation ---- *)

let test_trace_conservation () =
  List.iter
    (fun name ->
      let c = comp name in
      let t = c.P.trace in
      let loop = R.Trace.loop_cost t in
      let total = loop +. t.R.Trace.other_cost in
      let err = abs_float (total -. t.R.Trace.seq_total) /. t.R.Trace.seq_total in
      if err > 1e-9 then
        Alcotest.failf "%s: loop(%.0f) + other(%.0f) <> seq_total(%.0f)" name loop
          t.R.Trace.other_cost t.R.Trace.seq_total)
    [ "md5sum"; "kmeans"; "url" ]

(* ---- emission work conservation (DOALL replays every cycle) ---- *)

let test_emit_conservation () =
  (* transactions carry their members' cycles times the TM
     instrumentation factor; every other cycle is a compute cost *)
  let tx_factor = Atomic.get R.Costmodel.tx_instrumentation_factor in
  let seg_cost = function
    | R.Sim.Compute { costs; _ } -> Array.fold_left ( +. ) 0. costs
    | R.Sim.Tx { cost; _ } -> cost /. tx_factor
    | _ -> 0.
  in
  let checked =
    List.fold_left
      (fun checked name ->
        let c = comp name in
        let lowered = T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace in
        let loop = R.Trace.loop_cost c.P.trace in
        List.fold_left
          (fun checked (plan : T.Plan.t) ->
            if plan.T.Plan.shape <> T.Plan.Sdoall then checked
            else begin
              let pdg =
                if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain
              in
              let e = T.Emit.emit ~plan ~pdg lowered in
              let emitted =
                Array.fold_left
                  (fun acc segs -> Array.fold_left (fun a s -> a +. seg_cost s) acc segs)
                  0. e.T.Emit.threads
              in
              let err = abs_float (emitted -. loop) /. loop in
              if err > 1e-9 then
                Alcotest.failf "%s / %s: emitted %.0f cycles, trace has %.0f" name
                  plan.T.Plan.label emitted loop;
              checked + 1
            end)
          checked (P.plans c ~threads:8))
      0 Registry.names
  in
  check Alcotest.bool "DOALL plans checked on several workloads" true (checked >= 8)

(* ---- evaluation determinism ---- *)

let test_evaluation_deterministic () =
  let c = comp "url" in
  let speeds () = List.map (fun r -> (r.P.plan.T.Plan.label, r.P.speedup)) (P.evaluate c ~threads:8) in
  check
    Alcotest.(list (pair string (float 1e-12)))
    "two evaluations agree" (speeds ()) (speeds ())

(* ---- explain ---- *)

let test_explain_blockers () =
  let src =
    "void main() { for (int i = 0; i < 6; i++) { vec_push(int_to_string(i)); } }"
  in
  let c = P.compile ~name:"blocked" src in
  let bs = Report.Explain.blockers c in
  check Alcotest.bool "reports the vec self-dependence" true (List.length bs >= 1);
  List.iter
    (fun b ->
      check Alcotest.bool "has a suggestion" true (String.length b.Report.Explain.b_suggestion > 0);
      check Alcotest.bool "has a source location" false
        (Commset_support.Loc.is_dummy b.Report.Explain.b_src_loc))
    bs;
  let rendered = Report.Explain.render c in
  check Alcotest.bool "render mentions shared state" true
    (String.length rendered > 40)

let test_explain_clean () =
  let c = comp "md5sum" in
  check Alcotest.(list reject) "no blockers on annotated md5sum"
    [] (List.map (fun _ -> ()) (Report.Explain.blockers c))

(* ---- per-workload PDG shapes ---- *)

let test_md5sum_pdg_shape () =
  let c = comp "md5sum" in
  let pdg = c.P.target.P.pdg in
  let regions = List.filter (fun n -> Pdg.node_region n <> None) (Pdg.nodes pdg) in
  check Alcotest.int "three annotated client blocks" 3 (List.length regions);
  check Alcotest.int "one inter-iteration commutative edge" 1 c.P.target.P.n_ico;
  (* the named block gives the mdfile call a predicated self set *)
  let has_enabled_call =
    List.exists
      (fun n ->
        match n.Pdg.kind with
        | Pdg.Ninstr { Commset_ir.Ir.desc = Commset_ir.Ir.Call { callee = "mdfile"; enabled = [ _ ]; _ }; _ } ->
            true
        | _ -> false)
      (Pdg.nodes pdg)
  in
  check Alcotest.bool "mdfile call carries the enable" true has_enabled_call

let test_em3d_pdg_shape () =
  let c = comp "em3d" in
  (* pointer chasing: no basic induction variable, hence no DOALL *)
  check Alcotest.int "no basic IV" 0
    (List.length (Commset_analysis.Induction.basic_ivs c.P.target.P.induction));
  check Alcotest.bool "DOALL inapplicable" false (T.Doall.applicable c.P.target.P.pdg)

let test_kmeans_pdg_shape () =
  let c = comp "kmeans" in
  let pdg = c.P.target.P.pdg in
  let regions = List.filter (fun n -> Pdg.node_region n <> None) (Pdg.nodes pdg) in
  (match regions with
  | [ r ] ->
      check Alcotest.bool "the update block holds its self lock" true
        (T.Sync.locks_of c.P.sync r.Pdg.nid <> [])
  | _ -> Alcotest.fail "expected exactly one region");
  check Alcotest.int "exactly one annotation" 1
    (P.count_annotations (Option.get (Registry.find "kmeans")).W.source)

let test_url_lib_mode () =
  let c = comp "url" in
  let pdg = c.P.target.P.pdg in
  (* the log block needs no compiler lock (thread-safe library), the
     packet dequeue does *)
  let locked_nodes =
    List.filter (fun n -> T.Sync.locks_of c.P.sync n.Pdg.nid <> []) (Pdg.nodes pdg)
  in
  check Alcotest.int "only the dequeue is compiler-locked" 1 (List.length locked_nodes)

(* ---- sweeps are monotone-ish and bounded ---- *)

let test_sweep_sanity () =
  let c = comp "url" in
  List.iter
    (fun (_series, pts) ->
      List.iter
        (fun (t, s) ->
          if s > float_of_int t +. 0.2 then
            Alcotest.failf "superlinear speedup %.2f at %d threads" s t)
        pts)
    (P.sweep c ~max_threads:8)

(* ---- reduction recognition (extension) ---- *)

let test_reduction_enables_doall () =
  (* a pure sum loop: no annotations, but the recurrence is a recognized
     reduction, so DOALL applies with private accumulators *)
  let src =
    {|
void main() {
  int total = 0;
  for (int i = 0; i < 200; i++) {
    int v = 0;
    for (int j = 0; j < 20; j++) {
      v = (v * 31 + i * j + 3) % 1009;
    }
    total = total + v;
  }
  print(int_to_string(total));
}
|}
  in
  let c = P.compile ~name:"sum" src in
  let pdg = c.P.target.P.pdg in
  let rs = Commset_pdg.Reduction.detect pdg in
  check Alcotest.int "one reduction found" 1 (List.length rs);
  check Alcotest.bool "blocked without reductions" false (T.Doall.applicable pdg);
  check Alcotest.bool "applicable with reductions" true
    (T.Doall.applicable ~reductions:rs pdg);
  let runs = P.evaluate c ~threads:8 in
  let doall = List.filter (fun r -> r.P.plan.T.Plan.shape = T.Plan.Sdoall) runs in
  check Alcotest.bool "DOALL(red) plan produced and scales" true
    (List.exists (fun r -> r.P.speedup > 4.0) doall)

let test_reduction_rejected_when_observed () =
  (* printing the running total observes intermediate values: that is NOT
     a reduction *)
  let src =
    {|
void main() {
  int total = 0;
  for (int i = 0; i < 16; i++) {
    total = total + i;
    print(int_to_string(total));
  }
}
|}
  in
  let c = P.compile ~name:"observed" src in
  let rs = Commset_pdg.Reduction.detect c.P.target.P.pdg in
  check Alcotest.int "no reduction when intermediate values escape" 0 (List.length rs)

let test_reduction_float_product () =
  let src =
    {|
void main() {
  float p = 1.0;
  for (int i = 1; i < 30; i++) {
    p = p * (1.0 + 1.0 / int_to_float(i * i));
  }
  print(float_to_string(p));
}
|}
  in
  let c = P.compile ~name:"prod" src in
  match Commset_pdg.Reduction.detect c.P.target.P.pdg with
  | [ r ] ->
      check Alcotest.bool "product reduction" true (r.Commset_pdg.Reduction.rop = Commset_pdg.Reduction.Rprod)
  | _ -> Alcotest.fail "expected one float product reduction"

let reduction_cases =
  [
    Alcotest.test_case "reduction enables DOALL" `Quick test_reduction_enables_doall;
    Alcotest.test_case "observed accumulator rejected" `Quick test_reduction_rejected_when_observed;
    Alcotest.test_case "float product reduction" `Quick test_reduction_float_product;
  ]

let suite =
  ( "invariants",
    reduction_cases
    @ [
      Alcotest.test_case "trace cost conservation" `Slow test_trace_conservation;
      Alcotest.test_case "emission work conservation" `Slow test_emit_conservation;
      Alcotest.test_case "evaluation determinism" `Slow test_evaluation_deterministic;
      Alcotest.test_case "explain reports blockers" `Quick test_explain_blockers;
      Alcotest.test_case "explain clean on md5sum" `Slow test_explain_clean;
      Alcotest.test_case "md5sum PDG shape" `Slow test_md5sum_pdg_shape;
      Alcotest.test_case "em3d PDG shape" `Slow test_em3d_pdg_shape;
      Alcotest.test_case "kmeans PDG shape" `Slow test_kmeans_pdg_shape;
      Alcotest.test_case "url lib mode" `Slow test_url_lib_mode;
      Alcotest.test_case "no superlinear speedups" `Slow test_sweep_sanity;
    ] )

(** Tests for the execution observatory: attribution conservation on
    every workload at jobs 1/2/4 (the per-cause components must sum to
    the measured iteration wall within the bound the attribution layer
    promises by construction), frontier-wait attribution (nonzero for
    the cross-iteration workloads under multi-domain runs, exactly zero
    for a DOALL), and the stat renderers (the JSON document must
    satisfy the strict parser). *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module Exec = Commset_exec.Exec
module Attrib = Commset_obs.Attrib
module Json = Commset_obs.Json_strict
module Stat = Commset_report.Stat

let check = Alcotest.check
let causes = [ "dispatch_wait"; "lock_wait"; "frontier_wait"; "builtin"; "compute"; "merge" ]

let summary_of (x : P.exec_run) =
  match x.P.xstats.Exec.x_attrib with
  | Some s -> s
  | None ->
      Alcotest.failf "%s: real run produced no attribution summary"
        x.P.xstats.Exec.x_label

let assert_conserved ~what (s : Attrib.summary) =
  if s.Attrib.a_conservation_error > 0.05 then
    Alcotest.failf "%s: components sum %.2f%% away from iteration wall" what
      (100. *. s.Attrib.a_conservation_error);
  (* the recomputed sum, not just the recorded error *)
  let parts =
    s.Attrib.a_lock_ns +. s.Attrib.a_frontier_ns +. s.Attrib.a_builtin_ns
    +. s.Attrib.a_compute_ns
  in
  if s.Attrib.a_iter_wall_ns > 0. then begin
    let err = Float.abs (parts -. s.Attrib.a_iter_wall_ns) /. s.Attrib.a_iter_wall_ns in
    if err > 0.05 then
      Alcotest.failf "%s: recomputed sum %.0fns vs wall %.0fns (%.2f%%)" what parts
        s.Attrib.a_iter_wall_ns (100. *. err)
  end;
  let names = List.map (fun c -> c.Attrib.c_name) s.Attrib.a_causes in
  check
    Alcotest.(slist string String.compare)
    (what ^ ": all six causes present") causes names;
  List.iter
    (fun (c : Attrib.cause) ->
      if not (c.Attrib.c_p50_ns <= c.Attrib.c_p95_ns && c.Attrib.c_p95_ns <= c.Attrib.c_p99_ns)
      then Alcotest.failf "%s: %s quantiles not monotone" what c.Attrib.c_name)
    s.Attrib.a_causes

(* ---- conservation: every workload, jobs 1/2/4 ---- *)

let conservation_one (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  List.iter
    (fun jobs ->
      match P.executable_plans c ~threads:jobs with
      | [] -> ()
      | plan :: _ ->
          let what = Printf.sprintf "%s/%s@%d" w.W.wname plan.T.Plan.label jobs in
          let x = P.run_parallel ~engine:Exec.Real_engine ~jobs c plan in
          if x.P.xfidelity = P.Mismatch then Alcotest.failf "%s: output mismatch" what;
          let s = summary_of x in
          check Alcotest.int (what ^ ": every iteration attributed")
            x.P.xstats.Exec.x_iterations s.Attrib.a_iterations;
          check Alcotest.int (what ^ ": worker count") jobs s.Attrib.a_jobs;
          assert_conserved ~what s;
          let u = s.Attrib.a_coord.Attrib.k_utilization in
          if not (u >= 0. && u <= 1.0 +. 1e-9) then
            Alcotest.failf "%s: coordinator utilization %f out of [0,1]" what u)
    [ 1; 2; 4 ]

let conservation_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: attribution conserved at jobs 1/2/4" w.W.wname)
        `Quick (conservation_one w))
    Registry.all

(* ---- frontier-wait attribution ---- *)

(** em3d and geti carry cross-iteration value dependences: under 2 and 4
    workers some iteration must block on the frontier, and that time
    must surface under the [frontier_wait] cause. Scheduling noise can
    make a single run complete without blocking, so retry a few times
    before declaring the cause dead. *)
let test_frontier_nonzero () =
  List.iter
    (fun wname ->
      let w = Option.get (Registry.find wname) in
      let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
      let frontier_ns () =
        List.fold_left
          (fun acc jobs ->
            List.fold_left
              (fun acc (plan : T.Plan.t) ->
                let x = P.run_parallel ~engine:Exec.Real_engine ~jobs c plan in
                acc +. (summary_of x).Attrib.a_frontier_ns)
              acc
              (P.executable_plans c ~threads:jobs))
          0. [ 2; 4 ]
      in
      let rec attempt k =
        if frontier_ns () > 0. then ()
        else if k <= 1 then
          Alcotest.failf "%s: no frontier wait attributed across jobs 2/4" wname
        else attempt (k - 1)
      in
      attempt 3)
    [ "em3d"; "geti" ]

(** md5sum's DOALL has no cross-iteration dependence: the frontier cause
    must be exactly zero however many workers run. *)
let test_frontier_zero_doall () =
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let doall =
    List.find
      (fun (p : T.Plan.t) -> p.T.Plan.shape = T.Plan.Sdoall)
      (P.executable_plans c ~threads:4)
  in
  let x = P.run_parallel ~engine:Exec.Real_engine ~jobs:4 c doall in
  let s = summary_of x in
  check (Alcotest.float 0.) "DOALL frontier wait is exactly zero" 0.
    s.Attrib.a_frontier_ns

(* ---- codegen engine carries attribution through the same hooks ---- *)

let test_codegen_attribution () =
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  match P.executable_plans c ~threads:2 with
  | [] -> Alcotest.fail "no executable plan"
  | plan :: _ ->
      let x = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
      let s = summary_of x in
      assert_conserved ~what:("codegen/" ^ plan.T.Plan.label) s;
      check Alcotest.int "codegen: every iteration attributed"
        x.P.xstats.Exec.x_iterations s.Attrib.a_iterations

(* ---- attrib:false produces no summary and no histogram traffic ---- *)

let test_attrib_off () =
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  match P.executable_plans c ~threads:2 with
  | [] -> Alcotest.fail "no executable plan"
  | plan :: _ ->
      let x = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 ~attrib:false c plan in
      check Alcotest.bool "no summary with attrib:false" true
        (x.P.xstats.Exec.x_attrib = None)

(* ---- stat renderers ---- *)

let measured_summary () =
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let plan = List.hd (P.executable_plans c ~threads:2) in
  let x = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 c plan in
  (x, summary_of x)

let test_stat_render_json_strict () =
  let x, _ = measured_summary () in
  let json =
    Stat.render_json ~workload:"md5sum" ~engine:"real" ~jobs:2
      ~cores:(Domain.recommended_domain_count ())
      [ x ]
  in
  match Json.parse json with
  | Error e -> Alcotest.failf "stat JSON rejected by the strict parser: %s" e
  | Ok doc -> (
      match Json.member "plans" doc with
      | Some (Json.Arr [ p ]) -> (
          check Alcotest.bool "fidelity uses the machine-readable name" true
            (Json.member "fidelity" p = Some (Json.Str (Commset_exec.Equiv.verdict_name x.P.xfidelity)));
          match Option.bind (Json.member "attribution" p) (Json.member "causes") with
          | Some (Json.Arr cs) ->
              check Alcotest.(list string) "the six causes, in order" causes
                (List.map
                   (fun c ->
                     match Json.member "cause" c with Some (Json.Str n) -> n | _ -> "")
                   cs)
          | _ -> Alcotest.fail "no attribution causes")
      | _ -> Alcotest.fail "expected one plan")

let test_stat_render_text () =
  let x, _ = measured_summary () in
  let text =
    Stat.render_text ~workload:"md5sum" ~engine:"real" ~jobs:2
      ~cores:(Domain.recommended_domain_count ())
      [ x ]
  in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length text in
      let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
      if not (go 0) then Alcotest.failf "stat text lacks %S" needle)
    ([ "workload md5sum"; "attribution:"; "coordinator:" ] @ causes)

let suite =
  ( "attrib",
    conservation_cases
    @ [
        Alcotest.test_case "frontier wait surfaces on em3d/geti" `Quick
          test_frontier_nonzero;
        Alcotest.test_case "frontier wait is zero on md5sum DOALL" `Quick
          test_frontier_zero_doall;
        Alcotest.test_case "codegen engine: attribution conserved" `Quick
          test_codegen_attribution;
        Alcotest.test_case "attrib:false yields no summary" `Quick test_attrib_off;
        Alcotest.test_case "stat: JSON is strict" `Quick test_stat_render_json_strict;
        Alcotest.test_case "stat: text carries the report" `Quick test_stat_render_text;
      ] )

(** Tests for the reporting layer: ASCII tables and charts, the Table 1
    feature matrix, the evaluation helpers, and the lint JSON (string
    escaping, keys, null codes). *)

module Report = Commset_report
module Diag = Commset_support.Diag
module Json = Commset_obs.Json_strict

let check = Alcotest.check

let test_ascii_table () =
  let t =
    Report.Ascii.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' t in
  check Alcotest.int "header + separator + 2 rows" 4 (List.length lines);
  (* columns are aligned: every '2'/'4' cell starts at the same column *)
  (match lines with
  | [ h; _; r1; r2 ] ->
      check Alcotest.bool "header first" true (String.length h >= 4);
      check Alcotest.int "aligned column" (String.index r1 '2' ) (String.index r2 '4')
  | _ -> Alcotest.fail "table shape")

let test_ascii_chart () =
  let chart =
    Report.Ascii.chart ~max_threads:8
      [ ("linear", List.init 8 (fun i -> (i + 1, float_of_int (i + 1)))) ]
  in
  check Alcotest.bool "has the legend" true
    (String.length chart > 0
    &&
    let has_sub sub s =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    has_sub "* = linear" chart && has_sub "threads" chart)

let test_table1 () =
  let t = Report.Table1.render () in
  let lines = String.split_on_char '\n' t in
  (* 12 feature rows + header + separator *)
  check Alcotest.int "rows" 14 (List.length lines);
  check Alcotest.int "six systems" 6 (List.length Report.Table1.systems);
  (* the COMMSET column dominates: commuting blocks + group + predication *)
  let c = Report.Table1.commset in
  check Alcotest.bool "commset predication" true c.Report.Table1.predication;
  check Alcotest.bool "commset blocks" true c.Report.Table1.commuting_blocks;
  check Alcotest.bool "commset groups" true c.Report.Table1.group_commutativity;
  check Alcotest.bool "no extra constructs" false c.Report.Table1.needs_extra_extensions

let test_geomean () =
  check (Alcotest.float 0.0001) "geomean of equal" 4.0
    (Report.Evaluation.geomean [ 4.0; 4.0; 4.0 ]);
  check (Alcotest.float 0.0001) "geomean 1x8" 2.8284271
    (Report.Evaluation.geomean [ 1.0; 8.0 ]);
  check (Alcotest.float 0.0001) "empty" 0.0 (Report.Evaluation.geomean [])

(* A diagnostic message with a quote, a backslash, a carriage return,
   another control byte and a UTF-8 letter must survive the lint JSON:
   the document parses strictly and the message comes back byte for
   byte. *)
let test_verdicts_json_escape () =
  let msg = "say \"hi\" \\ there\r\001 caf\xc3\xa9" in
  let d = Diag.diagnostic ~code:"CS001" Diag.Warning_sev Commset_support.Loc.dummy msg in
  let json = Report.Verdicts.render_json { Commset_verify.Verdict.rpairs = [] } [ d ] in
  match Json.parse json with
  | Error e -> Alcotest.failf "lint JSON rejected by the strict parser: %s" e
  | Ok doc -> (
      match Json.member "diagnostics" doc with
      | Some (Json.Arr [ diag ]) ->
          check Alcotest.(option string) "message round trip" (Some msg)
            (match Json.member "message" diag with Some (Json.Str m) -> Some m | _ -> None)
      | _ -> Alcotest.fail "expected one diagnostic")

(* A real lint outcome (geti: verified pairs and CS005 warnings) plus an
   uncoded diagnostic: the document carries every key, and an absent
   code is null. *)
let test_verdicts_json_keys () =
  let module P = Commset_pipeline.Pipeline in
  let module V = Commset_verify in
  let w = Option.get (Commset_workloads.Registry.find "geti") in
  let c = P.compile ~name:"geti" ~setup:w.Commset_workloads.Workload.setup ~verify:true
      w.Commset_workloads.Workload.source
  in
  let report = Option.get c.P.verification in
  let diags = V.Lint.run_all { V.Lint.md = c.P.md; report = Some report; strict = false } in
  let uncoded = Diag.diagnostic Diag.Error_sev Commset_support.Loc.dummy "no code" in
  let has keys what o =
    List.iter
      (fun k -> if Json.member k o = None then Alcotest.failf "%s lacks %S" what k)
      keys
  in
  match Json.parse (Report.Verdicts.render_json report (diags @ [ uncoded ])) with
  | Error e -> Alcotest.failf "lint JSON rejected by the strict parser: %s" e
  | Ok doc -> (
      has [ "pairs"; "diagnostics"; "summary" ] "document" doc;
      Option.iter (has [ "proved"; "unknown"; "refuted" ] "summary") (Json.member "summary" doc);
      (match Json.member "pairs" doc with
      | Some (Json.Arr (_ :: _ as ps)) ->
          List.iter (has [ "set"; "pair"; "verdict"; "trials"; "why" ] "pair") ps
      | _ -> Alcotest.fail "geti lints no pairs");
      match Json.member "diagnostics" doc with
      | Some (Json.Arr ds) ->
          List.iter (has [ "severity"; "code"; "loc"; "message" ] "diagnostic") ds;
          check Alcotest.bool "geti's CS005 warnings are coded" true
            (List.exists (fun d -> Json.member "code" d = Some (Json.Str "CS005")) ds);
          check Alcotest.bool "an absent code is null" true
            (Json.member "code" (List.nth ds (List.length ds - 1)) = Some Json.Null)
      | _ -> Alcotest.fail "no diagnostics array")

let suite =
  ( "report",
    [
      Alcotest.test_case "ascii table" `Quick test_ascii_table;
      Alcotest.test_case "ascii chart" `Quick test_ascii_chart;
      Alcotest.test_case "table 1" `Quick test_table1;
      Alcotest.test_case "geomean" `Quick test_geomean;
      Alcotest.test_case "verdicts: JSON escapes diagnostic messages" `Quick
        test_verdicts_json_escape;
      Alcotest.test_case "verdicts: lint JSON carries its keys" `Quick test_verdicts_json_keys;
    ] )

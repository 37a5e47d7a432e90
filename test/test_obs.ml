(** Tests for the observability layer: span well-nestedness per domain
    (single- and multi-domain), span id uniqueness, the zero-allocation
    disabled path, the strict Chrome trace-event parser (positive and
    negative), exporter round-trips through that parser, and determinism
    of the data-driven metrics across pool sizes. *)

open Commset_support
module Obs = Commset_obs
module Recorder = Obs.Recorder
module Metrics = Obs.Metrics
module Export = Obs.Export
module Json = Obs.Json_strict
module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry

let check = Alcotest.check

(* every test drives the recorder explicitly; always leave it disabled
   and empty for whoever runs next *)
let with_recorder f =
  Recorder.reset ();
  Recorder.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Recorder.set_enabled false;
      Recorder.reset ())
    f

(* ---- spans: stack discipline per domain ---- *)

(** Spans of one domain, in recording (i.e. completion) order, must form
    a valid stack trace: a span of depth d closes after every deeper
    span it contains, and its window contains the windows of the spans
    recorded under it. We check containment: for consecutive spans, a
    later span with smaller-or-equal depth must cover every span since
    the last span at its depth. The cheap sufficient check: sort by
    start time; for any two spans of one domain, windows are either
    disjoint or nested, never partially overlapping. *)
let assert_well_nested ~what (spans : Recorder.span list) =
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun (s : Recorder.span) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_dom s.Recorder.dom) in
      Hashtbl.replace by_dom s.Recorder.dom (s :: cur))
    spans;
  Hashtbl.iter
    (fun dom ss ->
      let ss = List.sort (fun a b -> compare a.Recorder.t0_ns b.Recorder.t0_ns) ss in
      List.iteri
        (fun i (a : Recorder.span) ->
          List.iteri
            (fun j (b : Recorder.span) ->
              if i < j then begin
                let disjoint =
                  a.Recorder.t1_ns <= b.Recorder.t0_ns || b.Recorder.t1_ns <= a.Recorder.t0_ns
                in
                let nested =
                  (a.Recorder.t0_ns <= b.Recorder.t0_ns && b.Recorder.t1_ns <= a.Recorder.t1_ns)
                  || (b.Recorder.t0_ns <= a.Recorder.t0_ns
                     && a.Recorder.t1_ns <= b.Recorder.t1_ns)
                in
                if not (disjoint || nested) then
                  Alcotest.failf "%s: domain %d spans '%s' and '%s' partially overlap" what
                    dom a.Recorder.name b.Recorder.name
              end)
            ss)
        ss)
    by_dom

let test_spans_nested () =
  with_recorder (fun () ->
      let r =
        Recorder.with_span "outer" (fun () ->
            let a = Recorder.with_span "inner1" (fun () -> 1) in
            let b = Recorder.with_span ~cat:"x" "inner2" (fun () -> 2) in
            a + b)
      in
      check Alcotest.int "with_span returns the thunk's value" 3 r;
      let spans = Recorder.dump () in
      check Alcotest.int "three spans" 3 (List.length spans);
      assert_well_nested ~what:"nested" spans;
      let outer = List.find (fun s -> s.Recorder.name = "outer") spans in
      let inner1 = List.find (fun s -> s.Recorder.name = "inner1") spans in
      check Alcotest.int "outer at depth 0" 0 outer.Recorder.depth;
      check Alcotest.int "inner at depth 1" 1 inner1.Recorder.depth;
      if not (outer.Recorder.t0_ns <= inner1.Recorder.t0_ns
             && inner1.Recorder.t1_ns <= outer.Recorder.t1_ns)
      then Alcotest.fail "inner window escapes outer window")

let test_span_on_raise () =
  with_recorder (fun () ->
      (try Recorder.with_span "raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      let spans = Recorder.dump () in
      check Alcotest.int "span recorded despite raise" 1 (List.length spans);
      (* depth must be restored: a sibling span records at depth 0 *)
      Recorder.with_span "after" (fun () -> ());
      let after = List.find (fun s -> s.Recorder.name = "after") (Recorder.dump ()) in
      check Alcotest.int "depth restored after raise" 0 after.Recorder.depth)

let test_spans_multidomain () =
  with_recorder (fun () ->
      Pool.with_jobs 4 (fun () ->
          ignore
            (Pool.parmap
               (fun i ->
                 Recorder.with_span "task" (fun () ->
                     Recorder.with_span "task.sub" (fun () -> i * i)))
               (List.init 64 (fun i -> i))));
      let spans = Recorder.dump () in
      (* 64 task + 64 task.sub at least (pool adds worker/chunk spans) *)
      if List.length spans < 128 then
        Alcotest.failf "expected >= 128 spans, got %d" (List.length spans);
      assert_well_nested ~what:"multidomain" spans)

let test_span_ids_unique () =
  with_recorder (fun () ->
      Pool.with_jobs 4 (fun () ->
          ignore
            (Pool.parmap
               (fun i -> Recorder.with_span "t" (fun () -> i))
               (List.init 100 (fun i -> i))));
      let spans = Recorder.dump () in
      let ids = List.map (fun s -> s.Recorder.sid) spans in
      let uniq = List.sort_uniq compare ids in
      check Alcotest.int "span ids are process-unique" (List.length ids) (List.length uniq))

(* ---- disabled path allocates nothing ---- *)

let test_disabled_no_alloc () =
  Recorder.set_enabled false;
  let f = fun () -> 42 in
  (* warm up so the closure and any lazy setup are paid for *)
  for _ = 1 to 100 do
    ignore (Recorder.with_span "dead" f)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Recorder.with_span "dead" f)
  done;
  let dw = Gc.minor_words () -. w0 in
  (* Gc.minor_words itself may allocate a few words per call; 1000
     disabled spans must stay under that noise floor *)
  if dw > 8. then Alcotest.failf "disabled with_span allocated %.0f words per 1000 calls" dw

(* ---- strict JSON parser ---- *)

let ok s = match Json.parse s with Ok _ -> true | Error _ -> false

let test_json_strict_accepts () =
  List.iter
    (fun s -> if not (ok s) then Alcotest.failf "should parse: %s" s)
    [
      "null";
      "true";
      "[]";
      "{}";
      "-0.5e3";
      {|{ "a": [1, 2.5, "xé", {"b": false}] }|};
      {|"😀"|} (* raw astral character *);
    ];
  (* an escaped surrogate pair decodes to the one code point's UTF-8 *)
  match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) -> check Alcotest.string "U+1F600" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "escaped surrogate pair"

let test_json_strict_rejects () =
  List.iter
    (fun s -> if ok s then Alcotest.failf "should reject: %s" s)
    [
      "";
      "01";
      "+1";
      "1.";
      ".5";
      "nan";
      "Infinity";
      "'single'";
      "{\"a\": 1,}";
      "[1 2]";
      "{\"a\": 1} trailing";
      {|{"dup": 1, "dup": 2}|};
      "\"unterminated";
      "\"bad \\q escape\"";
      {|"\ud83d"|} (* lone high surrogate *);
      {|"\ude00"|} (* lone low surrogate *);
      {|"\ud83d\u0041"|} (* high surrogate, then no low one *);
    ]

let test_validate_chrome_trace () =
  let valid =
    {|{ "traceEvents": [
      { "ph": "M", "pid": 0, "tid": 0, "name": "process_name", "args": { "name": "p" } },
      { "ph": "B", "pid": 0, "tid": 0, "name": "a", "ts": 1 },
      { "ph": "E", "pid": 0, "tid": 0, "ts": 2 },
      { "ph": "X", "pid": 0, "tid": 1, "name": "b", "ts": 0, "dur": 5 }
    ] }|}
  in
  (match Json.validate_chrome_trace valid with
  | Ok n -> check Alcotest.int "4 events" 4 n
  | Error e -> Alcotest.failf "valid trace rejected: %s" e);
  let reject label s =
    match Json.validate_chrome_trace s with
    | Ok _ -> Alcotest.failf "should reject %s" label
    | Error _ -> ()
  in
  reject "unbalanced B/E"
    {|{ "traceEvents": [ { "ph": "B", "pid": 0, "tid": 0, "name": "a", "ts": 1 } ] }|};
  reject "E before B"
    {|{ "traceEvents": [ { "ph": "E", "pid": 0, "tid": 0, "ts": 1 } ] }|};
  reject "negative dur"
    {|{ "traceEvents": [ { "ph": "X", "pid": 0, "tid": 0, "name": "a", "ts": 1, "dur": -2 } ] }|};
  reject "missing ts"
    {|{ "traceEvents": [ { "ph": "X", "pid": 0, "tid": 0, "name": "a", "dur": 2 } ] }|};
  reject "unknown ph"
    {|{ "traceEvents": [ { "ph": "Z", "pid": 0, "tid": 0, "ts": 1 } ] }|};
  reject "not an object" {|{ "traceEvents": [ 42 ] }|};
  reject "no traceEvents" {|{ "events": [] }|}

(* ---- printer ---- *)

(* structural equality with numbers compared bit for bit, so -0. and 0.
   differ *)
let rec json_equal a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys -> List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

(* strings over all 256 byte values; finite floats from every corner of
   the range, plus the ones that are easy to print wrong *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let num =
    oneof
      [
        finite;
        map float_of_int int;
        oneofl [ -0.; 0.1; 1e300; -1e-300; 5e-324; 0x1p53; 1e15; 123.456; max_float ];
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.Arr xs) (list_size (int_bound 4) sub));
               ( 1,
                 map
                   (fun kvs ->
                     (* keys unique: the parser rejects duplicates *)
                     Json.Obj (List.mapi (fun i (k, v) -> (string_of_int i ^ k, v)) kvs))
                   (list_size (int_bound 4) (pair str sub)) );
             ])

let test_printer_round_trip_qcheck =
  QCheck.Test.make ~count:500 ~name:"printer: parse (to_string v) = Ok v"
    QCheck.(pair (make gen_json) (int_bound 3))
    (fun (v, expand) ->
      let s = Json.to_string ~expand v in
      match Json.parse s with
      | Ok v' when json_equal v v' -> true
      | Ok _ -> QCheck.Test.fail_reportf "read back a different value from %S" s
      | Error e -> QCheck.Test.fail_reportf "rejected %S: %s" s e)

let test_printer_numbers () =
  List.iter
    (fun (v, want) -> check Alcotest.string want want (Json.to_string (Json.Num v)))
    [
      (5., "5");
      (-0., "-0");
      (0.1, "0.1");
      (1e300, "1e+300");
      (123.456, "123.456");
      (1. /. 3., "0.3333333333333333");
    ];
  check Alcotest.string "non-finite numbers print as null" {|[null,null,null]|}
    (Json.to_string (Json.Arr [ Json.Num nan; Json.Num infinity; Json.Num neg_infinity ]));
  check Alcotest.string "control bytes escape" {|"\u0001\n\"\\"|}
    (Json.to_string (Json.Str "\001\n\"\\"));
  check Alcotest.string "expanded layout" "{\n  \"a\": [1,2],\n  \"b\": {}\n}"
    (Json.to_string ~expand:1 (Json.Obj [ ("a", Json.Arr [ Json.int 1; Json.int 2 ]); ("b", Json.Obj []) ]))

(* ---- exporters round-trip the strict parser ---- *)

let test_export_round_trip () =
  with_recorder (fun () ->
      Recorder.with_span ~cat:"compile" "outer \"quoted\\\"" (fun () ->
          Recorder.with_span "inner\nnewline \xf0\x9f\x99\x82" (fun () -> ()));
      let events = Export.of_recorder ~pid:0 (Recorder.dump ()) in
      let timelines =
        [|
          [ (0., 10., "iter0"); (12., 15., "wait:L") ];
          [ (1., 3., "abort:tx"); (3., 9., "tx") ];
        |]
      in
      let events = events @ Export.of_sim_timelines ~pid:1 ~name:"plan" timelines in
      let json = Export.chrome_json events in
      match Json.validate_chrome_trace json with
      | Ok n ->
          (* 2 spans + 2 metadata (real), 4 intervals + 3 metadata (sim) *)
          check Alcotest.int "event count" 11 n
      | Error e -> Alcotest.failf "exporter output rejected: %s@.%s" e json)

let test_export_escaping_qcheck =
  QCheck.Test.make ~count:200 ~name:"chrome_json survives arbitrary span names"
    QCheck.(pair string small_string)
    (fun (name, cat) ->
      let events =
        [
          Export.Complete
            {
              pid = 0;
              tid = 0;
              name;
              cat = (if cat = "" then "c" else cat);
              ts = 0.;
              dur = 1.;
              args = [ ("s", Export.Astr name) ];
            };
        ]
      in
      match Json.validate_chrome_trace (Export.chrome_json events) with
      | Ok 1 -> true
      | Ok n -> QCheck.Test.fail_reportf "expected 1 event, got %d" n
      | Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

let test_nesting_qcheck =
  (* random span trees: any sequence of nested/sequential with_span
     calls yields pairwise disjoint-or-nested windows per domain *)
  let gen = QCheck.(list_of_size Gen.(1 -- 30) (int_bound 2)) in
  QCheck.Test.make ~count:50 ~name:"random span programs stay well-nested" gen
    (fun prog ->
      with_recorder (fun () ->
          let rec go = function
            | [] -> ()
            | 0 :: rest -> Recorder.with_span "leaf" (fun () -> go rest)
            | 1 :: rest ->
                Recorder.with_span "pair" (fun () -> ());
                go rest
            | _ :: rest ->
                Recorder.with_span "deep" (fun () ->
                    Recorder.with_span "deeper" (fun () -> ());
                    go rest)
          in
          go prog;
          assert_well_nested ~what:"qcheck" (Recorder.dump ());
          true))

(* ---- recorder: ring-buffer shedding under multi-domain overflow ---- *)

(** With a tiny [COMMSET_TRACE_BUF], fresh domains shed spans past
    capacity: the dropped counter is exact (per-domain overflow sums),
    nothing crashes, and the shed trace still validates. Capacity is
    read at buffer creation, so only domains spawned under the tiny
    value are affected. *)
let test_recorder_shedding () =
  Unix.putenv "COMMSET_TRACE_BUF" "16";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "COMMSET_TRACE_BUF" "")
    (fun () ->
      with_recorder (fun () ->
          let n_doms = 3 and per = 40 in
          let doms =
            List.init n_doms (fun _ ->
                Domain.spawn (fun () ->
                    for _ = 1 to per do
                      Recorder.with_span "shed" (fun () -> ())
                    done))
          in
          List.iter Domain.join doms;
          check Alcotest.int "dropped exactly the overflow"
            (n_doms * (per - 16))
            (Recorder.dropped_total ());
          let shed =
            List.filter (fun s -> s.Recorder.name = "shed") (Recorder.dump ())
          in
          check Alcotest.int "kept exactly capacity per domain" (n_doms * 16)
            (List.length shed);
          let json = Export.chrome_json (Export.of_recorder ~pid:0 (Recorder.dump ())) in
          match Json.validate_chrome_trace json with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "trace with shedding rejected: %s" e))

(* ---- histogram quantiles ---- *)

let rel_err ~expected v = Float.abs (v -. expected) /. expected

(** Uniform 1..1024: values are uniform inside every log₂ bucket, where
    the interpolation is exact, so the estimates pin tightly. *)
let test_hist_quantile_uniform () =
  let h = Metrics.hist_make () in
  for v = 1 to 1024 do
    Metrics.observe h (float_of_int v)
  done;
  List.iter
    (fun (q, expected) ->
      let est = Metrics.hist_quantile h q in
      if rel_err ~expected est > 0.02 then
        Alcotest.failf "p%.0f: estimate %.2f vs expected %.2f (>2%%)" (100. *. q) est
          expected)
    [ (0.50, 512.); (0.95, 972.8); (0.99, 1013.76) ]

(** Two-point distribution (100× 10ns, 100× 1000ns): each estimate must
    land in the bucket of the true quantile — within a factor of 2. *)
let test_hist_quantile_two_point () =
  let h = Metrics.hist_make () in
  for _ = 1 to 100 do
    Metrics.observe h 10.
  done;
  for _ = 1 to 100 do
    Metrics.observe h 1000.
  done;
  let p50 = Metrics.hist_quantile h 0.50 in
  let p95 = Metrics.hist_quantile h 0.95 in
  let p99 = Metrics.hist_quantile h 0.99 in
  if not (p50 >= 8. && p50 <= 16.) then
    Alcotest.failf "p50 %.2f escapes the [8,16) bucket of 10" p50;
  if not (p95 >= 512. && p95 <= 1024.) then
    Alcotest.failf "p95 %.2f escapes the [512,1024) bucket of 1000" p95;
  if not (p50 <= p95 && p95 <= p99) then
    Alcotest.failf "quantiles not monotone: %.2f %.2f %.2f" p50 p95 p99

let test_hist_quantile_edges () =
  let h = Metrics.hist_make () in
  check (Alcotest.float 0.) "empty histogram quantile is 0" 0.
    (Metrics.hist_quantile h 0.5);
  for _ = 1 to 5 do
    Metrics.observe h 7.
  done;
  List.iter
    (fun q ->
      let est = Metrics.hist_quantile h q in
      if not (est >= 4. && est <= 8.) then
        Alcotest.failf "q=%.2f: %.2f escapes the [4,8) bucket of 7" q est)
    [ 0.; 0.5; 0.99; 1. ]

(** The registry dump carries p50/p95/p99 per histogram and still
    strict-parses. *)
let test_hist_quantile_in_json () =
  let h = Metrics.histogram "test.quantile_dump" in
  Metrics.observe h 100.;
  Metrics.observe h 200.;
  let json = Metrics.to_json () in
  let mem sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  if not (mem "\"p50\"" && mem "\"p95\"" && mem "\"p99\"") then
    Alcotest.fail "histogram dump lacks quantile fields";
  match Json.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "dump with quantiles rejected: %s" e

(* ---- metrics ---- *)

let test_metrics_kinds () =
  let c = Metrics.counter "test.counter_kind" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "counter accumulates" 5 (Metrics.value c);
  (match Metrics.gauge "test.counter_kind" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  let h = Metrics.histogram "test.hist_kind" in
  Metrics.observe h 1.0;
  Metrics.observe h 1e9;
  Metrics.observe h 0.;
  check Alcotest.int "histogram count" 3 (Metrics.hist_count h);
  (* the snapshot carries name.count / name.sum for histograms *)
  let snap = Metrics.snapshot () in
  if not (List.mem_assoc "test.hist_kind.count" snap) then
    Alcotest.fail "histogram missing from snapshot"

let test_metrics_json_strict () =
  let name = "test.json \"quoted\\name\"" in
  Metrics.incr (Metrics.counter name);
  match Json.parse (Metrics.to_json ()) with
  | Error e -> Alcotest.failf "metrics dump rejected by strict parser: %s" e
  | Ok doc -> (
      match Json.member "metrics" doc with
      | Some (Json.Arr ms) ->
          List.iter
            (fun m ->
              if Json.member "name" m = None || Json.member "kind" m = None then
                Alcotest.fail "a metric lacks its name or kind")
            ms;
          let mine = List.find_opt (fun m -> Json.member "name" m = Some (Json.Str name)) ms in
          check Alcotest.bool "the counter reads back by its escaped name" true
            (Option.bind mine (Json.member "value") = Some (Json.Num 1.))
      | _ -> Alcotest.fail "no \"metrics\" array")

(** The data-driven counters (tasks executed, sim aborts and waits,
    interpreter steps) must not depend on how work was spread over
    domains. Gauges (busy/idle seconds) are time-derived and exempt. *)
let test_metrics_deterministic_across_jobs () =
  let eclat = Option.get (Registry.find "eclat") in
  let comp = P.compile ~name:"eclat" ~setup:eclat.W.setup eclat.W.source in
  let is_deterministic (name, _) =
    (* integer counters only; skip the time gauges *)
    not
      (List.exists
         (fun suffix ->
           let ls = String.length suffix and ln = String.length name in
           ln >= ls && String.sub name (ln - ls) ls = suffix)
         [ "_s"; ".sum" ])
  in
  let leg jobs =
    Pool.with_jobs jobs (fun () ->
        Metrics.reset ();
        ignore (P.evaluate comp ~threads:8);
        List.filter is_deterministic (Metrics.snapshot ())
        (* spreading work over domains changes chunking; chunk/spawn/
           inline/retry counts are pool-shape metrics, not data *)
        |> List.filter (fun (n, _) ->
               not
                 (List.mem n
                    [
                      "pool.chunks_claimed";
                      "pool.workers_spawned";
                      "pool.inline_maps";
                      "pool.token_cas_retries";
                    ])))
  in
  let s1 = leg 1 in
  let s4 = leg 4 in
  Metrics.reset ();
  check
    Alcotest.(list (pair string (float 0.)))
    "metrics identical for jobs=1 and jobs=4" s1 s4

let suite =
  ( "obs",
    [
      Alcotest.test_case "spans: nesting and depths" `Quick test_spans_nested;
      Alcotest.test_case "spans: recorded on raise" `Quick test_span_on_raise;
      Alcotest.test_case "spans: multi-domain nesting" `Quick test_spans_multidomain;
      Alcotest.test_case "spans: unique ids" `Quick test_span_ids_unique;
      Alcotest.test_case "spans: disabled path allocates nothing" `Quick
        test_disabled_no_alloc;
      Alcotest.test_case "json: strict parser accepts" `Quick test_json_strict_accepts;
      Alcotest.test_case "json: strict parser rejects" `Quick test_json_strict_rejects;
      Alcotest.test_case "json: chrome trace validation" `Quick test_validate_chrome_trace;
      QCheck_alcotest.to_alcotest test_printer_round_trip_qcheck;
      Alcotest.test_case "json: printer numbers, null and escapes" `Quick test_printer_numbers;
      Alcotest.test_case "export: round-trips strict parser" `Quick test_export_round_trip;
      QCheck_alcotest.to_alcotest test_export_escaping_qcheck;
      QCheck_alcotest.to_alcotest test_nesting_qcheck;
      Alcotest.test_case "recorder: shedding under tiny COMMSET_TRACE_BUF" `Quick
        test_recorder_shedding;
      Alcotest.test_case "metrics: quantiles pin on uniform distribution" `Quick
        test_hist_quantile_uniform;
      Alcotest.test_case "metrics: quantiles bucket-bound on two-point" `Quick
        test_hist_quantile_two_point;
      Alcotest.test_case "metrics: quantile edge cases" `Quick test_hist_quantile_edges;
      Alcotest.test_case "metrics: quantiles in the JSON dump" `Quick
        test_hist_quantile_in_json;
      Alcotest.test_case "metrics: kinds and snapshot" `Quick test_metrics_kinds;
      Alcotest.test_case "metrics: dump is strict JSON" `Quick test_metrics_json_strict;
      Alcotest.test_case "metrics: deterministic across jobs" `Quick
        test_metrics_deterministic_across_jobs;
    ] )

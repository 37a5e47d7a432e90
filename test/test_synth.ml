(** Commutativity-condition synthesis: pragma-strip round-trip, the
    headline rediscovery run over all eight workloads, the soundness
    property (every emitted bundle re-verifies as Proved and lints
    clean under [--strict]), and the last-writer negative control. *)

module W = Commset_workloads
module Synth = Commset_synth.Synth
module P = Commset_pipeline.Pipeline
module V = Commset_verify
module Lang = Commset_lang
module Diag = Commset_support.Diag

let workload name =
  match W.Registry.find name with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

let all = [ "md5sum"; "url"; "geti"; "eclat"; "hmmer"; "em3d"; "kmeans"; "potrace" ]

(* one synthesis run per workload, shared across the tests below *)
let results : (string, Synth.result) Hashtbl.t = Hashtbl.create 8

let suggest name =
  match Hashtbl.find_opt results name with
  | Some r -> r
  | None ->
      let w = workload name in
      let r =
        Synth.suggest ~name ~setup:w.W.Workload.setup ~rank_individual:false
          w.W.Workload.source
      in
      Hashtbl.add results name r;
      r

(* ---- satellite: pragma-strip golden round trip ---------------------- *)

let test_strip_roundtrip () =
  List.iter
    (fun name ->
      let w = workload name in
      let ast = Lang.Parser.parse_program ~file:name w.W.Workload.source in
      Alcotest.(check bool)
        (name ^ ": the hand source is annotated")
        true
        (Lang.Strip.count_pragmas ast > 0);
      let printed = Lang.Pretty.program_to_string (Lang.Strip.strip_program ast) in
      let re = Lang.Parser.parse_program ~file:name printed in
      Alcotest.(check int) (name ^ ": no pragma survives the strip") 0
        (Lang.Strip.count_pragmas re);
      (* golden: printing the reparse of the stripped print is a fixpoint,
         so strip exposes no printer/parser asymmetry *)
      Alcotest.(check string)
        (name ^ ": stripped print/parse fixpoint")
        printed
        (Lang.Pretty.program_to_string re);
      (* and the stripped program still compiles end to end *)
      ignore
        (P.compile ~name:(name ^ ".stripped") ~setup:w.W.Workload.setup ~verify:false
           printed))
    all

(* ---- headline: rediscover or beat the hand annotations -------------- *)

(* Measured floors for the verified bundle's predicted speedup at 8
   threads (hand-annotated speedups in comments). geti trails its hand
   version: the hand sets that buy the difference are not statically
   provable (interface-level bitmap commutativity), so the synthesizer
   must not emit them — CS015/CS016 explain the gap. *)
let floors =
  [
    ("md5sum", 7.0) (* hand 7.17 — parity *);
    ("hmmer", 6.2) (* hand 6.46 — near parity *);
    ("geti", 2.2) (* hand 3.16 — weaker, CS016 *);
    ("em3d", 5.4) (* hand 5.56 — parity *);
    ("potrace", 5.1) (* hand 5.20 — parity *);
    ("url", 7.3) (* hand 7.31 — parity *);
  ]

let test_rediscovery () =
  List.iter
    (fun (name, floor) ->
      let r = suggest name in
      if r.Synth.r_bundle < floor then
        Alcotest.failf "%s: verified bundle predicts %.2fx, expected >= %.2fx" name
          r.Synth.r_bundle floor;
      Alcotest.(check bool)
        (name ^ ": bundle beats the stripped baseline")
        true
        (r.Synth.r_bundle > r.Synth.r_baseline);
      Alcotest.(check bool)
        (name ^ ": at least one recommended suggestion")
        true
        (List.exists (fun s -> s.Synth.sg_recommended) r.Synth.r_suggestions))
    floors;
  (* full parity where every hand set the verifier can prove is in reach *)
  List.iter
    (fun name ->
      let r = suggest name in
      match r.Synth.r_hand with
      | Some hand ->
          if r.Synth.r_bundle < hand -. 0.25 then
            Alcotest.failf "%s: bundle %.2fx lost to hand %.2fx" name r.Synth.r_bundle
              hand
      | None -> Alcotest.failf "%s: hand speedup missing" name)
    [ "md5sum"; "em3d"; "potrace"; "hmmer"; "url" ]

let test_honest_negatives () =
  (* kmeans: the stripped program already beats the annotated one (DSWP
     wins over locked DOALL); eclat: the profitable hand sets are not
     statically provable. In both cases nothing may be recommended. *)
  List.iter
    (fun name ->
      let r = suggest name in
      Alcotest.(check bool)
        (name ^ ": nothing recommended")
        false
        (List.exists (fun s -> s.Synth.sg_recommended) r.Synth.r_suggestions))
    [ "kmeans"; "eclat" ];
  let has_code c (r : Synth.result) =
    List.exists (fun (d : Diag.diagnostic) -> d.Diag.code = Some c) r.Synth.r_diags
  in
  Alcotest.(check bool)
    "eclat: CS015 explains the unprovable bitmap pair" true
    (has_code "CS015" (suggest "eclat"));
  Alcotest.(check bool)
    "eclat: CS016 reports the gap to hand" true
    (has_code "CS016" (suggest "eclat"));
  Alcotest.(check bool)
    "geti: CS016 reports the gap to hand" true
    (has_code "CS016" (suggest "geti"))

(* ---- one score per bundle, and it is the emitted source's ----------- *)

let m_runs = Commset_obs.Metrics.counter "interp.runs"
let m_sims = Commset_obs.Metrics.counter "sim.runs"

(* one default-options run per workload, with the program runs and
   simulations it took (both exact counts, whatever COMMSET_JOBS is) *)
let defaults : (string, Synth.result * int * int) Hashtbl.t = Hashtbl.create 8

let suggest_default name =
  match Hashtbl.find_opt defaults name with
  | Some d -> d
  | None ->
      let w = workload name in
      let value = Commset_obs.Metrics.value in
      let runs0 = value m_runs and sims0 = value m_sims in
      let r = Synth.suggest ~name ~setup:w.W.Workload.setup w.W.Workload.source in
      let d = (r, value m_runs - runs0, value m_sims - sims0) in
      Hashtbl.add defaults name d;
      d

let counted =
  [ ("kmeans", 4, 18); ("em3d", 5, 11); ("hmmer", 6, 25); ("geti", 7, 32); ("url", 7, 36) ]

let bits = Printf.sprintf "%h"

let test_bundle_is_emitted () =
  List.iter
    (fun name ->
      let w = workload name in
      let r = suggest name in
      let c =
        P.compile ~name:(name ^ ".emitted") ~setup:w.W.Workload.setup ~verify:true
          r.Synth.r_source
      in
      let best = match P.best c ~threads:8 with Some b -> b.P.speedup | None -> 1.0 in
      Alcotest.(check string)
        (name ^ ": bundle speedup is the emitted source's")
        (bits best) (bits r.Synth.r_bundle);
      if r.Synth.r_suggestions = [] then
        Alcotest.(check string)
          (name ^ ": nothing survives, so the bundle is the baseline")
          (bits r.Synth.r_baseline) (bits r.Synth.r_bundle))
    all;
  List.iter
    (fun (name, _, _) ->
      let r, _, _ = suggest_default name in
      match r.Synth.r_suggestions with
      | [ s ] ->
          Alcotest.(check (option string))
            (name ^ ": a lone suggestion's speedup is the bundle's")
            (Some (bits r.Synth.r_bundle))
            (Option.map bits s.Synth.sg_speedup)
      | _ -> ())
    counted

let test_bundles_once () =
  List.iter
    (fun (name, runs, sims) ->
      let _, dr, ds = suggest_default name in
      Alcotest.(check int) (name ^ ": program runs per suggest") runs dr;
      Alcotest.(check int) (name ^ ": simulations per suggest") sims ds)
    counted

(* ---- soundness: emitted bundles are Proved and lint clean ----------- *)

let is_proved = function V.Verdict.Proved _ -> true | _ -> false

let prop_sound =
  QCheck.Test.make
    ~name:"suggest: every emitted bundle re-verifies Proved and lints clean (--strict)"
    ~count:(List.length all)
    (QCheck.make
       ~print:Fun.id
       QCheck.Gen.(map (fun i -> List.nth all (i mod List.length all)) (int_bound 7)))
    (fun name ->
      let r = suggest name in
      if r.Synth.r_suggestions = [] then true
      else
        let w = workload name in
        let c =
          P.compile ~name:(name ^ ".resynth") ~setup:w.W.Workload.setup ~verify:true
            r.Synth.r_source
        in
        let report = Option.get c.P.verification in
        let diags =
          V.Lint.run_all { V.Lint.md = c.P.md; report = Some report; strict = true }
        in
        report.V.Verdict.rpairs <> []
        && List.for_all
             (fun (p : V.Verdict.pair) -> is_proved p.V.Verdict.pverdict)
             report.V.Verdict.rpairs
        && List.for_all
             (fun (d : Diag.diagnostic) -> d.Diag.severity <> Diag.Error_sev)
             diags)

(* ---- negative control: the last-writer store gets no suggestion ----- *)

(* the source of examples/refute_lastwriter.ml: a genuine loop-carried
   last-writer-wins dependence that hand annotations wrongly claim
   commutes; the synthesizer must claim nothing at all *)
let lastwriter_source =
  {|
int last = 0;
int mark = 0;

void main() {
  for (int i = 0; i < 64; i++) {
    int w = str_hash(int_to_string(i * 13)) + str_hash(int_to_string(i * 7));
    last = i;
    mark = (w + i) % 100;
  }
  print("last " + int_to_string(last));
  print("mark " + int_to_string(mark));
}
|}

let test_lastwriter_negative () =
  let r = Synth.suggest ~name:"refute_lastwriter" ~rank_individual:false lastwriter_source in
  Alcotest.(check int) "no suggestion for the non-commuting stores" 0
    (List.length r.Synth.r_suggestions);
  Alcotest.(check bool)
    "CS015 names the refused candidates" true
    (List.exists
       (fun (d : Diag.diagnostic) -> d.Diag.code = Some "CS015")
       r.Synth.r_diags)

(* ---- suggestion report rendering ------------------------------------ *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_report_render () =
  let r = suggest "md5sum" in
  let text = Commset_report.Suggestions.render r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("text mentions " ^ needle) true
        (contains_sub ~sub:needle text))
    [ "md5sum"; "#pragma commset"; "recommended" ];
  let json = Commset_report.Suggestions.render_json r in
  Alcotest.(check bool) "json escapes newlines in source" false
    (String.contains json '\n');
  let module J = Commset_obs.Json_strict in
  let has keys what o =
    List.iter (fun k -> if J.member k o = None then Alcotest.failf "%s lacks %S" what k) keys
  in
  match J.parse json with
  | Error e -> Alcotest.failf "suggest JSON rejected by the strict parser: %s" e
  | Ok doc -> (
      has [ "name"; "speedup"; "suggestions"; "diagnostics"; "source" ] "document" doc;
      Option.iter (has [ "baseline"; "bundle"; "hand" ] "speedup") (J.member "speedup" doc);
      Alcotest.(check bool) "source reads back" true
        (J.member "source" doc = Some (J.Str r.Synth.r_source));
      (match J.member "suggestions" doc with
      | Some (J.Arr (_ :: _ as ss)) ->
          List.iter
            (has [ "set"; "kind"; "predicate"; "speedup"; "recommended"; "members"; "pragmas" ]
               "suggestion")
            ss
      | _ -> Alcotest.fail "md5sum has no suggestion");
      match J.member "diagnostics" doc with
      | Some (J.Arr ds) -> List.iter (has [ "severity"; "code"; "loc"; "message" ] "diagnostic") ds
      | _ -> Alcotest.fail "no diagnostics array")

let suite =
  ( "synth",
    [
      Alcotest.test_case "strip round trip (8 workloads)" `Quick test_strip_roundtrip;
      Alcotest.test_case "rediscover or beat hand annotations" `Slow test_rediscovery;
      Alcotest.test_case "honest negatives (kmeans, eclat, geti)" `Slow
        test_honest_negatives;
      Alcotest.test_case "the reported bundle speedup is the emitted source's" `Slow
        test_bundle_is_emitted;
      Alcotest.test_case "each distinct bundle is compiled and simulated once" `Slow
        test_bundles_once;
      QCheck_alcotest.to_alcotest prop_sound;
      Alcotest.test_case "last-writer negative control" `Quick test_lastwriter_negative;
      Alcotest.test_case "suggestion report rendering" `Quick test_report_render;
    ] )

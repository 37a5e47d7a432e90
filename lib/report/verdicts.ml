(** Rendering of the commutativity sanitizer's verdict table, in plain
    text (one row per member pair) and as JSON for tooling. *)

module V = Commset_verify
module Verdict = V.Verdict
module Diag = Commset_support.Diag
module Loc = Commset_support.Loc
module Metrics = Commset_obs.Metrics

let verdict_cell = function
  | Verdict.Proved _ -> "proved"
  | Verdict.Unknown _ -> "unknown"
  | Verdict.Refuted _ -> "REFUTED"

let verdict_why = function
  | Verdict.Proved why | Verdict.Unknown why -> why
  | Verdict.Refuted cx ->
      Printf.sprintf "%s [%s]" cx.Verdict.cx_detail
        (Verdict.source_to_string cx.Verdict.cx_source)

let render (r : Verdict.report) : string =
  let rows =
    List.map
      (fun (p : Verdict.pair) ->
        [
          p.Verdict.pset;
          Verdict.pair_label p;
          verdict_cell p.Verdict.pverdict;
          string_of_int p.Verdict.ptrials;
          verdict_why p.Verdict.pverdict;
        ])
      r.Verdict.rpairs
  in
  let table =
    Ascii.table ~header:[ "commset"; "member pair"; "verdict"; "trials"; "why" ] rows
  in
  Printf.sprintf "%s\n%d pair(s): %d proved, %d unknown, %d refuted\n" table
    (List.length r.Verdict.rpairs)
    (Verdict.n_proved r) (Verdict.n_unknown r) (Verdict.n_refuted r)

(* ---- JSON ----------------------------------------------------------- *)

let json_of_pair (p : Verdict.pair) =
  let source =
    match p.Verdict.pverdict with
    | Verdict.Refuted cx ->
        Printf.sprintf ",\"source\":\"%s\""
          (Metrics.json_escape (Verdict.source_to_string cx.Verdict.cx_source))
    | _ -> ""
  in
  Printf.sprintf
    "{\"set\":\"%s\",\"pair\":\"%s\",\"verdict\":\"%s\",\"trials\":%d,\"why\":\"%s\"%s}"
    (Metrics.json_escape p.Verdict.pset)
    (Metrics.json_escape (Verdict.pair_label p))
    (Metrics.json_escape (verdict_cell p.Verdict.pverdict))
    p.Verdict.ptrials
    (Metrics.json_escape (verdict_why p.Verdict.pverdict))
    source

let json_of_diag (d : Diag.diagnostic) =
  let code = match d.Diag.code with Some c -> c | None -> "" in
  Printf.sprintf
    "{\"severity\":\"%s\",\"code\":\"%s\",\"loc\":\"%s\",\"message\":\"%s\"}"
    (match d.Diag.severity with
    | Diag.Error_sev -> "error"
    | Diag.Warning_sev -> "warning")
    (Metrics.json_escape code)
    (Metrics.json_escape (Format.asprintf "%a" Loc.pp d.Diag.loc))
    (Metrics.json_escape d.Diag.message)

(** The whole lint outcome as one JSON object: verdicts plus diagnostics. *)
let render_json (r : Verdict.report) (diags : Diag.diagnostic list) : string =
  Printf.sprintf
    "{\"pairs\":[%s],\"diagnostics\":[%s],\"summary\":{\"proved\":%d,\"unknown\":%d,\"refuted\":%d}}"
    (String.concat "," (List.map json_of_pair r.Verdict.rpairs))
    (String.concat "," (List.map json_of_diag diags))
    (Verdict.n_proved r) (Verdict.n_unknown r) (Verdict.n_refuted r)

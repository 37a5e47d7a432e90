(** Rendering of the commutativity sanitizer's verdict table, in plain
    text (one row per member pair) and as JSON for tooling. *)

module V = Commset_verify
module Verdict = V.Verdict
module Diag = Commset_support.Diag
module J = Commset_obs.Json_strict

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
    | Verdict.Refuted cx -> [ ("source", J.Str (Verdict.source_to_string cx.Verdict.cx_source)) ]
    | _ -> []
  in
  J.Obj
    ([
       ("set", J.Str p.Verdict.pset);
       ("pair", J.Str (Verdict.pair_label p));
       ("verdict", J.Str (verdict_cell p.Verdict.pverdict));
       ("trials", J.int p.Verdict.ptrials);
       ("why", J.Str (verdict_why p.Verdict.pverdict));
     ]
    @ source)

(** The whole lint outcome as one JSON object: verdicts plus diagnostics. *)
let render_json (r : Verdict.report) (diags : Diag.diagnostic list) : string =
  J.to_string
    (J.Obj
       [
         ("pairs", J.Arr (List.map json_of_pair r.Verdict.rpairs));
         ("diagnostics", J.Arr (List.map Diag.to_json diags));
         ( "summary",
           J.Obj
             [ ("proved", J.int (Verdict.n_proved r)); ("unknown", J.int (Verdict.n_unknown r));
               ("refuted", J.int (Verdict.n_refuted r)) ] );
       ])

(** Rendering of synthesized annotation suggestions ([commsetc suggest]),
    in plain text (ready-to-paste pragma blocks) and as JSON for tooling. *)

module Synth = Commset_synth.Synth
module Diag = Commset_support.Diag
module J = Commset_obs.Json_strict

let kind_str = function
  | Commset_lang.Ast.Group_set -> "group"
  | Commset_lang.Ast.Self_set -> "self"

let anchor_str = function
  | Synth.Ablock l -> Printf.sprintf "line %d (existing block)" l
  | Synth.Awrap l -> Printf.sprintf "line %d (wrap statement)" l
  | Synth.Adecl_split l -> Printf.sprintf "line %d (split declaration)" l
  | Synth.Afun f -> Printf.sprintf "function '%s'" f

let render (r : Synth.result) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s: predicted speedup at 8 threads: stripped %.2fx, with suggestions %.2fx%s\n"
       r.Synth.r_name r.Synth.r_baseline r.Synth.r_bundle
       (match r.Synth.r_hand with
       | Some h -> Printf.sprintf ", hand-annotated %.2fx" h
       | None -> ""));
  (match r.Synth.r_suggestions with
  | [] -> Buffer.add_string buf "no suggestions: no candidate survived the verifier\n"
  | l ->
      Buffer.add_string buf (Printf.sprintf "%d suggestion(s):\n" (List.length l));
      List.iteri
        (fun i (s : Synth.suggestion) ->
          Buffer.add_string buf
            (Printf.sprintf "\n[%d] %s%s%s\n" (i + 1)
               (match s.Synth.sg_set with
               | Some n -> Printf.sprintf "%s commset %s" (kind_str s.Synth.sg_kind) n
               | None -> "self-commuting member")
               (match s.Synth.sg_speedup with
               | Some sp -> Printf.sprintf " — predicted %.2fx alone" sp
               | None -> "")
               (if s.Synth.sg_recommended then " — recommended" else " — not recommended"));
          List.iter
            (fun m ->
              Buffer.add_string buf
                (Printf.sprintf "    %s: %s\n" (anchor_str m.Synth.m_anchor) m.Synth.m_desc))
            s.Synth.sg_members;
          List.iter
            (fun p -> Buffer.add_string buf (Printf.sprintf "      %s\n" p))
            s.Synth.sg_pragmas)
        l);
  if r.Synth.r_diags <> [] then (
    Buffer.add_string buf "\nnotes:\n";
    List.iter
      (fun d -> Buffer.add_string buf (Printf.sprintf "  %s\n" (Diag.to_string d)))
      r.Synth.r_diags);
  Buffer.contents buf

(* ---- JSON ----------------------------------------------------------- *)

let json_of_anchor a =
  let line kind l = [ ("kind", J.Str kind); ("line", J.int l) ] in
  J.Obj
    (match a with
    | Synth.Ablock l -> line "block" l
    | Synth.Awrap l -> line "wrap" l
    | Synth.Adecl_split l -> line "decl-split" l
    | Synth.Afun f -> [ ("kind", J.Str "function"); ("function", J.Str f) ])

let strs l = J.Arr (List.map (fun s -> J.Str s) l)

let json_of_member (m : Synth.member) =
  J.Obj
    [
      ("anchor", json_of_anchor m.Synth.m_anchor);
      ("desc", J.Str m.Synth.m_desc);
      ("refs", strs m.Synth.m_refs);
    ]

let json_of_suggestion (s : Synth.suggestion) =
  J.Obj
    [
      ("set", J.opt (fun n -> J.Str n) s.Synth.sg_set);
      ("kind", J.Str (kind_str s.Synth.sg_kind));
      ("predicate", J.opt (fun p -> J.Str p) s.Synth.sg_predicate);
      ("speedup", J.opt (fun f -> J.Num f) s.Synth.sg_speedup);
      ("recommended", J.Bool s.Synth.sg_recommended);
      ("members", J.Arr (List.map json_of_member s.Synth.sg_members));
      ("pragmas", strs s.Synth.sg_pragmas);
    ]

let render_json (r : Synth.result) : string =
  J.to_string
    (J.Obj
       [
         ("name", J.Str r.Synth.r_name);
         ( "speedup",
           J.Obj
             [ ("baseline", J.Num r.Synth.r_baseline); ("bundle", J.Num r.Synth.r_bundle);
               ("hand", J.opt (fun f -> J.Num f) r.Synth.r_hand) ] );
         ("suggestions", J.Arr (List.map json_of_suggestion r.Synth.r_suggestions));
         ("diagnostics", J.Arr (List.map Diag.to_json r.Synth.r_diags));
         ("source", J.Str r.Synth.r_source);
       ])

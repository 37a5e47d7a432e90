(** Rendering of synthesized annotation suggestions ([commsetc suggest]),
    in plain text (ready-to-paste pragma blocks) and as JSON for tooling. *)

module Synth = Commset_synth.Synth
module Diag = Commset_support.Diag

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

let jstr s = Printf.sprintf "\"%s\"" (Commset_obs.Metrics.json_escape s)
let jopt_str = function Some s -> jstr s | None -> "null"
let jfloat f = Printf.sprintf "%.4f" f
let jopt_float = function Some f -> jfloat f | None -> "null"
let jlist l = Printf.sprintf "[%s]" (String.concat "," l)

let json_of_anchor = function
  | Synth.Ablock l -> Printf.sprintf "{\"kind\":\"block\",\"line\":%d}" l
  | Synth.Awrap l -> Printf.sprintf "{\"kind\":\"wrap\",\"line\":%d}" l
  | Synth.Adecl_split l -> Printf.sprintf "{\"kind\":\"decl-split\",\"line\":%d}" l
  | Synth.Afun f -> Printf.sprintf "{\"kind\":\"function\",\"function\":%s}" (jstr f)

let json_of_member (m : Synth.member) =
  Printf.sprintf "{\"anchor\":%s,\"desc\":%s,\"refs\":%s}"
    (json_of_anchor m.Synth.m_anchor)
    (jstr m.Synth.m_desc)
    (jlist (List.map jstr m.Synth.m_refs))

let json_of_suggestion (s : Synth.suggestion) =
  Printf.sprintf
    "{\"set\":%s,\"kind\":%s,\"predicate\":%s,\"speedup\":%s,\"recommended\":%b,\"members\":%s,\"pragmas\":%s}"
    (jopt_str s.Synth.sg_set)
    (jstr (kind_str s.Synth.sg_kind))
    (jopt_str s.Synth.sg_predicate)
    (jopt_float s.Synth.sg_speedup)
    s.Synth.sg_recommended
    (jlist (List.map json_of_member s.Synth.sg_members))
    (jlist (List.map jstr s.Synth.sg_pragmas))

let json_of_diag (d : Diag.diagnostic) =
  Printf.sprintf "{\"severity\":%s,\"code\":%s,\"message\":%s}"
    (jstr
       (match d.Diag.severity with
       | Diag.Error_sev -> "error"
       | Diag.Warning_sev -> "warning"))
    (jopt_str d.Diag.code)
    (jstr d.Diag.message)

let render_json (r : Synth.result) : string =
  Printf.sprintf
    "{\"name\":%s,\"speedup\":{\"baseline\":%s,\"bundle\":%s,\"hand\":%s},\"suggestions\":%s,\"diagnostics\":%s,\"source\":%s}"
    (jstr r.Synth.r_name)
    (jfloat r.Synth.r_baseline)
    (jfloat r.Synth.r_bundle)
    (jopt_float r.Synth.r_hand)
    (jlist (List.map json_of_suggestion r.Synth.r_suggestions))
    (jlist (List.map json_of_diag r.Synth.r_diags))
    (jstr r.Synth.r_source)

(** Prints what every layer knows about each builtin — the verifier's
    write class and partition key, the real engine's route with its
    update family unbuffered and buffered, the family role, the
    resources and the thread-safety and TM-safety flags — and then, for
    every workload and annotation variant, the [lint] verdict table, the
    lint diagnostics and every commset member's classified accesses.
    The expected file was generated before these facts moved into one
    builtin descriptor; a diff means a layer's view of a builtin, or a
    verdict derived from it, changed. [dune runtest] diffs this against
    [facts.expected]. *)

module P = Commset_pipeline.Pipeline
module R = Commset_runtime
module V = Commset_verify
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module Exec = Commset_exec.Exec
module Effects = Commset_analysis.Effects
module Metadata = Commset_core.Metadata
module Verdicts = Commset_report.Verdicts
module Diag = Commset_support.Diag

let builtins () =
  List.iter
    (fun (bi : R.Builtins.t) ->
      let key =
        match bi.R.Builtins.partition with
        | Some (r, i) -> Printf.sprintf "%s@%d" r i
        | None -> "-"
      in
      let family =
        match bi.R.Builtins.spec.Effects.bs_update with
        | Effects.Update_writer f -> "writer:" ^ f
        | Effects.Update_reader f -> "reader:" ^ f
        | Effects.No_update -> "-"
      in
      Printf.printf
        "%s|class=%s|key=%s|route=%s|route_buffered=%s|family=%s|resources=%s|thread_safe=%b|tm_safe=%b\n"
        bi.R.Builtins.name (V.Summary.opclass_to_string (V.Summary.write_class bi)) key
        (Exec.describe_route ~buffered:false bi)
        (Exec.describe_route ~buffered:true bi)
        family
        (String.concat "," bi.R.Builtins.resources)
        bi.R.Builtins.thread_safe bi.R.Builtins.tm_safe)
    R.Builtins.all

(* workloads part, shared between the parent and final generators *)
let workloads () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (src, text) ->
          let c = P.compile ~name:src ~setup:w.W.setup ~verify:true text in
          let md = c.P.md in
          let report =
            Option.value c.P.verification ~default:{ V.Verdict.rpairs = [] }
          in
          Printf.printf "== %s\n%s" src (Verdicts.render report);
          List.iter
            (fun d -> print_endline (Diag.to_string d))
            (V.Lint.run_all { V.Lint.md; report = Some report; strict = false });
          let seen = Hashtbl.create 16 in
          List.iter
            (fun set ->
              List.iter
                (fun m ->
                  if not (Hashtbl.mem seen m) then begin
                    Hashtbl.replace seen m ();
                    let s = V.Summary.of_member md m in
                    let op = function
                      | None -> "-"
                      | Some o -> (
                          match Commset_ir.Ir.find_func md.Metadata.prog s.V.Summary.sowner with
                          | Some f -> Commset_ir.Ir.operand_to_string f o
                          | None -> "?")
                    in
                    Printf.printf "member %s (in %s)\n" (Metadata.member_to_string m)
                      s.V.Summary.sowner;
                    List.iter
                      (fun (a : V.Summary.access) ->
                        Printf.printf "  %s %s %s key=%s value=%s\n"
                          (if a.V.Summary.awrite then "W" else "R")
                          (Fmt.str "%a" Effects.pp_location a.V.Summary.aloc)
                          (V.Summary.opclass_to_string a.V.Summary.aclass)
                          (op a.V.Summary.akey) (op a.V.Summary.avalue))
                      s.V.Summary.sacc
                  end)
                (Metadata.members_of md set))
            md.Metadata.set_order)
        ((w.W.wname, w.W.source)
        :: List.map (fun (v, s) -> (w.W.wname ^ "/" ^ v, s)) w.W.variants))
    Registry.all

let () =
  builtins ();
  workloads ()

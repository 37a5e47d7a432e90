(** The annotation lint framework: a registry of passes over the COMMSET
    metadata (and, when available, a verification report) that emit
    accumulated structured diagnostics with stable codes.

    Codes: CS001 commutativity-refuted, CS002 commutativity-unknown
    (strict mode only), CS003 unused-commset, CS004
    predicate-side-effect, CS005 nosync-shared-write, CS006
    member-shadows-instance, CS007 dead-optional-block. Elsewhere: CS008
    (unreadable input) from the driver; CS010–CS012 (region control
    flow, transitive member call, cyclic commset graph) from the
    well-formedness checker; CS013 (invalid [COMMSET_JOBS] or
    [COMMSET_FIDELITY_BAND] value) from the pool and the cost model; CS014
    (plan refused by the real backend) from the executor; CS015 and
    CS016 (no sound condition, weaker bundle) from the synthesizer;
    CS017 (fuel exhausted) from {!Commset_runtime.Precompile.fuel_guard}
    at the command and request boundaries. *)

module Ir = Commset_ir.Ir
module A = Commset_analysis
module Effects = A.Effects
module Metadata = Commset_core.Metadata
module Builtins = Commset_runtime.Builtins
module Diag = Commset_support.Diag
module Loc = Commset_support.Loc

type ctx = {
  md : Metadata.t;
  report : Verdict.report option;  (** verification verdicts, when computed *)
  strict : bool;  (** also flag pairs that could not be proved *)
}

let region_of f rid = List.find_opt (fun r -> r.Ir.rid = rid) f.Ir.fregions

let member_loc (md : Metadata.t) (m : Metadata.member) =
  match m with
  | Metadata.Mregion (fname, rid) -> (
      match Ir.find_func md.Metadata.prog fname with
      | Some f -> (
          match region_of f rid with Some r -> r.Ir.rloc | None -> Loc.dummy)
      | None -> Loc.dummy)
  | Metadata.Mnamed (fname, bname) -> (
      match Metadata.named_region md fname bname with
      | Some r -> r.Ir.rloc
      | None -> Loc.dummy)
  | Metadata.Mfun _ -> Loc.dummy

(* Sets the user actually declared, as opposed to materialized SELF sets. *)
let declared_sets md =
  List.filter
    (fun (i : Metadata.set_info) ->
      not (Metadata.is_materialized_self i.Metadata.sname))
    (Metadata.sets_in_rank_order md)

(* ---- passes --------------------------------------------------------- *)

let pass_refuted ctx =
  match ctx.report with
  | None -> ()
  | Some r ->
      List.iter
        (fun ((p : Verdict.pair), (cx : Verdict.counterexample)) ->
          Diag.report
            (Diag.diagnostic ~code:"CS001" Diag.Error_sev
               (member_loc ctx.md p.Verdict.pm1)
               (Printf.sprintf
                  "commset '%s': %s does not commute — %s [found by %s]"
                  p.Verdict.pset (Verdict.pair_label p) cx.Verdict.cx_detail
                  (Verdict.source_to_string cx.Verdict.cx_source))))
        (Verdict.refuted_pairs r)

let pass_unknown ctx =
  if ctx.strict then
    match ctx.report with
    | None -> ()
    | Some r ->
        List.iter
          (fun (p : Verdict.pair) ->
            match p.Verdict.pverdict with
            | Verdict.Unknown why ->
                Diag.report
                  (Diag.diagnostic ~code:"CS002" Diag.Warning_sev
                     (member_loc ctx.md p.Verdict.pm1)
                     (Printf.sprintf
                        "commset '%s': commutativity of %s could not be \
                         verified (%s; %d dynamic trials)"
                        p.Verdict.pset (Verdict.pair_label p) why
                        p.Verdict.ptrials))
            | _ -> ())
          r.Verdict.rpairs

let pass_unused ctx =
  List.iter
    (fun (i : Metadata.set_info) ->
      if Metadata.members_of ctx.md i.Metadata.sname = [] then
        Diag.report
          (Diag.diagnostic ~code:"CS003" Diag.Warning_sev Loc.dummy
             (Printf.sprintf
                "commset '%s' is declared but has no members; the annotation \
                 has no effect" i.Metadata.sname)))
    (declared_sets ctx.md)

let pass_predicate_purity ctx =
  List.iter
    (fun (i : Metadata.set_info) ->
      match i.Metadata.predicate with
      | None -> ()
      | Some p -> (
          match
            A.Purity.expr_verdict Builtins.lookup_spec
              (Some ctx.md.Metadata.effects) p.Metadata.body
          with
          | A.Purity.Pure -> ()
          | A.Purity.Impure reason ->
              Diag.report
                (Diag.diagnostic ~code:"CS004" Diag.Error_sev
                   p.Metadata.body.Commset_lang.Ast.eloc
                   (Printf.sprintf "predicate of commset '%s' is not pure: %s"
                      i.Metadata.sname reason))))
    (declared_sets ctx.md)

let pass_nosync_shared_write ctx =
  let md = ctx.md in
  List.iter
    (fun (i : Metadata.set_info) ->
      if i.Metadata.nosync then
        let members = Metadata.members_of md i.Metadata.sname in
        let sums = List.map (Summary.of_member md) members in
        let conflicting =
          List.exists
            (fun (s1 : Summary.t) ->
              List.exists
                (fun (s2 : Summary.t) ->
                  Effects.conflict s1.Summary.srw s2.Summary.srw)
                sums)
            sums
        in
        if conflicting then
          Diag.report
            (Diag.diagnostic ~code:"CS005" Diag.Warning_sev Loc.dummy
               (Printf.sprintf
                  "commset '%s' is marked nosync but its members write \
                   conflicting shared state; parallel execution relies \
                   entirely on the annotation being right" i.Metadata.sname)))
    (declared_sets ctx.md)

let pass_member_shadows ctx =
  List.iter
    (fun (i : Metadata.set_info) ->
      let members = Metadata.members_of ctx.md i.Metadata.sname in
      let fun_members =
        List.filter_map
          (function Metadata.Mfun f -> Some f | _ -> None)
          members
      in
      List.iter
        (fun m ->
          match m with
          | Metadata.Mregion (f, _) | Metadata.Mnamed (f, _) ->
              if List.mem f fun_members then
                Diag.report
                  (Diag.diagnostic ~code:"CS006" Diag.Warning_sev
                     (member_loc ctx.md m)
                     (Printf.sprintf
                        "commset '%s': %s is shadowed by the interface-level \
                         membership of '%s'; the finer-grained member never \
                         relaxes an extra dependence" i.Metadata.sname
                        (Metadata.member_to_string m) f))
          | Metadata.Mfun _ -> ())
        members)
    (declared_sets ctx.md)

let pass_dead_optional_block ctx =
  let md = ctx.md in
  let prog = md.Metadata.prog in
  (* named blocks enabled at some call site, anywhere *)
  let enabled = Hashtbl.create 8 in
  List.iter
    (fun fname ->
      match Ir.find_func prog fname with
      | None -> ()
      | Some f ->
          Ir.iter_instrs f (fun _ i ->
              match i.Ir.desc with
              | Ir.Call { callee; enabled = ens; _ } ->
                  List.iter
                    (fun (e : Ir.enable) ->
                      Hashtbl.replace enabled (callee, e.Ir.en_block) ())
                    ens
              | _ -> ()))
    prog.Ir.func_order;
  List.iter
    (fun fname ->
      match Ir.find_func prog fname with
      | None -> ()
      | Some f ->
          List.iter
            (fun (r : Ir.region) ->
              match r.Ir.rname with
              | Some bname
                when (not (Hashtbl.mem enabled (fname, bname)))
                     && r.Ir.rrefs = [] ->
                  Diag.report
                    (Diag.diagnostic ~code:"CS007" Diag.Warning_sev r.Ir.rloc
                       (Printf.sprintf
                          "named optional block '%s' of '%s' is never enabled \
                           at any call site; it joins no commset" bname fname))
              | _ -> ())
            f.Ir.fregions)
    prog.Ir.func_order

type pass = { pcode : string; pname : string; prun : ctx -> unit }

let passes =
  [
    { pcode = "CS001"; pname = "commutativity-refuted"; prun = pass_refuted };
    { pcode = "CS002"; pname = "commutativity-unknown"; prun = pass_unknown };
    { pcode = "CS003"; pname = "unused-commset"; prun = pass_unused };
    { pcode = "CS004"; pname = "predicate-side-effect"; prun = pass_predicate_purity };
    { pcode = "CS005"; pname = "nosync-shared-write"; prun = pass_nosync_shared_write };
    { pcode = "CS006"; pname = "member-shadows-instance"; prun = pass_member_shadows };
    { pcode = "CS007"; pname = "dead-optional-block"; prun = pass_dead_optional_block };
  ]

(** Run every registered pass and return the accumulated diagnostics. *)
let run_all ctx : Diag.diagnostic list =
  List.concat_map (fun p -> Diag.collect (fun () -> p.prun ctx)) passes

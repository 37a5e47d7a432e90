(** The COMMSET metadata manager (paper §4.2).

    Maintains the registry of commsets (kind, predicate, nosync flag,
    global lock rank), resolves the three kinds of members —

    - [Mregion]: an annotated structured code block, lowered as a region;
    - [Mfun]: a function with interface-level membership;
    - [Mnamed]: a named optional block of a callee, enabled at call sites
      via COMMSETNAMEDARGADD —

    and computes, per PDG node, the membership *facets* that Algorithm 1
    and the synchronization engine consume. A facet couples one member
    identity with its commset bindings and the portion of the node's
    memory effects it covers. *)

module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast
module Tc = Commset_lang.Typecheck
module Effects = Commset_analysis.Effects
module Pdg = Commset_pdg.Pdg
open Commset_support

type set_kind = Ast.set_kind = Self_set | Group_set

type predicate = { params1 : string list; params2 : string list; body : Ast.expr }

type set_info = {
  sname : string;
  kind : set_kind;
  predicate : predicate option;
  nosync : bool;
  rank : int;  (** global lock-acquisition order *)
}

type member = Mregion of string * int | Mfun of string | Mnamed of string * string

let member_to_string = function
  | Mregion (f, rid) -> Printf.sprintf "%s/region%d" f rid
  | Mfun f -> f
  | Mnamed (f, b) -> Printf.sprintf "%s.%s" f b

type facet = {
  fmember : member;
  fsets : (string * Ir.operand list) list;  (** set name, actual operands (caller terms) *)
  frw : Effects.rw;  (** effect portion this facet covers *)
}

type t = {
  sets : (string, set_info) Hashtbl.t;
  set_order : string list;  (** rank order *)
  members : (string, member list) Hashtbl.t;  (** set -> members *)
  prog : Ir.program;
  tcenv : Tc.t;
  effects : Effects.t;
}

let self_fun_set_name fname = Printf.sprintf "__self_f_%s" fname
let is_materialized_self name = String.length name >= 6 && String.sub name 0 6 = "__self"

let set_info t name = Hashtbl.find_opt t.sets name

let set_info_exn t name =
  match set_info t name with
  | Some s -> s
  | None -> Diag.error "internal: unknown commset '%s'" name

let sets_in_rank_order t = List.map (set_info_exn t) t.set_order

let members_of t name = Option.value ~default:[] (Hashtbl.find_opt t.members name)

(* interface membership refs of a function: (set name, param indices),
   with SELF materialized *)
let interface_refs t (fname : string) : (string * int list) list =
  match Ast.find_function t.prog.Ir.source fname with
  | None -> []
  | Some f ->
      List.concat_map
        (fun (p : Ast.pragma) ->
          match p.Ast.pdesc with
          | Ast.P_member refs ->
              List.map
                (fun (r : Ast.commset_ref) ->
                  let set =
                    if r.Ast.set_name = "SELF" then self_fun_set_name fname else r.Ast.set_name
                  in
                  let indices =
                    List.map
                      (fun (e : Ast.expr) ->
                        match e.Ast.edesc with
                        | Ast.Var v -> (
                            match
                              Listx.index_of (fun (_, pname) -> pname = v) f.Ast.params
                            with
                            | Some i -> i
                            | None ->
                                Diag.error ~loc:e.Ast.eloc
                                  "interface commset actual '%s' is not a parameter of '%s'" v
                                  fname)
                        | _ ->
                            Diag.error ~loc:e.Ast.eloc
                              "interface commset actuals must be parameter names")
                      r.Ast.actuals
                  in
                  (set, indices))
                refs
          | _ -> [])
        f.Ast.fannots

(* the named region of a function, by name *)
let named_region t fname bname =
  match Ir.find_func t.prog fname with
  | None -> None
  | Some f -> List.find_opt (fun r -> r.Ir.rname = Some bname) f.Ir.fregions

(* instructions belonging to a region of a function *)
let region_instrs (f : Ir.func) rid =
  List.concat_map
    (fun b -> if List.mem rid b.Ir.bregions then b.Ir.instrs else [])
    (Ir.blocks_in_order f)

(** Effects of a function's named block, instantiated at a call site. *)
let named_block_rw t ~callee ~bname ~(args : Ir.operand list) ~(dst : Ir.reg option)
    ~(caller : string) : Effects.rw =
  match (named_region t callee bname, Ir.find_func t.prog callee) with
  | Some r, Some _f ->
      let instrs = region_instrs (Option.get (Ir.find_func t.prog callee)) r.Ir.rid in
      let callee_rw = Effects.instrs_rw t.effects ~fname:callee instrs in
      Effects.instantiate_rw t.effects ~fname:caller ~args ~dst callee_rw
  | _ -> Effects.rw_empty

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let register_set tbl order name kind predicate nosync =
  if not (Hashtbl.mem tbl name) then begin
    let rank = List.length !order in
    Hashtbl.replace tbl name { sname = name; kind; predicate; nosync; rank };
    order := name :: !order
  end

let build (prog : Ir.program) (tcenv : Tc.t) (effects : Effects.t) : t =
  let sets = Hashtbl.create 16 in
  let order = ref [] in
  (* declared sets, in declaration order *)
  List.iter
    (fun (p : Ast.pragma) ->
      match p.Ast.pdesc with
      | Ast.P_decl { set_name; kind } ->
          let predicate =
            Option.map
              (fun (params1, params2, body) -> { params1; params2; body })
              (Tc.predicate tcenv set_name)
          in
          register_set sets order set_name kind predicate (Tc.is_nosync tcenv set_name)
      | _ -> ())
    prog.Ir.source.Ast.global_pragmas;
  (* materialized self sets from regions and interfaces *)
  let members = Hashtbl.create 16 in
  let add_member set m =
    let cur = Option.value ~default:[] (Hashtbl.find_opt members set) in
    if not (List.mem m cur) then Hashtbl.replace members set (cur @ [ m ])
  in
  List.iter
    (fun fname ->
      let f = Hashtbl.find prog.Ir.funcs fname in
      List.iter
        (fun (r : Ir.region) ->
          List.iter
            (fun (set, _ops) ->
              if is_materialized_self set then
                register_set sets order set Self_set None false;
              if not (Hashtbl.mem sets set) then
                Diag.error ~loc:r.Ir.rloc "region references undeclared commset '%s'" set;
              add_member set (Mregion (fname, r.Ir.rid)))
            r.Ir.rrefs)
        f.Ir.fregions)
    prog.Ir.func_order;
  let t = { sets; set_order = List.rev !order; members; prog; tcenv; effects } in
  (* interface members *)
  List.iter
    (fun fname ->
      List.iter
        (fun (set, _indices) ->
          if is_materialized_self set then register_set sets order set Self_set None false;
          if not (Hashtbl.mem sets set) then
            Diag.error "function '%s' references undeclared commset '%s'" fname set;
          add_member set (Mfun fname))
        (interface_refs t fname))
    prog.Ir.func_order;
  (* named-block members from enables on call instructions *)
  List.iter
    (fun fname ->
      let f = Hashtbl.find prog.Ir.funcs fname in
      Ir.iter_instrs f (fun _ i ->
          match i.Ir.desc with
          | Ir.Call { callee; enabled; _ } ->
              List.iter
                (fun (e : Ir.enable) ->
                  List.iter
                    (fun (set, _) ->
                      if not (Hashtbl.mem sets set) then
                        Diag.error "enable pragma references undeclared commset '%s'" set;
                      add_member set (Mnamed (callee, e.Ir.en_block)))
                    e.Ir.en_sets)
                enabled
          | _ -> ()))
    prog.Ir.func_order;
  { t with set_order = List.rev !order }

(* ------------------------------------------------------------------ *)
(* Facets of PDG nodes                                                 *)
(* ------------------------------------------------------------------ *)

let call_of_node (n : Pdg.node) =
  match n.Pdg.kind with
  | Pdg.Ninstr ({ Ir.desc = Ir.Call { callee; _ }; _ } as i) -> Some (i, callee)
  | _ -> None

(** Membership facets of a PDG node in function [caller]. *)
let facets t ~(caller : string) (n : Pdg.node) : facet list =
  match n.Pdg.kind with
  | Pdg.Nregion (r, _) ->
      [ { fmember = Mregion (caller, r.Ir.rid); fsets = r.Ir.rrefs; frw = n.Pdg.rw } ]
  | Pdg.Nbranch _ -> [ { fmember = Mfun "<branch>"; fsets = []; frw = n.Pdg.rw } ]
  | Pdg.Ninstr i -> (
      match i.Ir.desc with
      | Ir.Call { callee; args; dst; enabled } ->
          let named =
            List.concat_map
              (fun (e : Ir.enable) ->
                let frw = named_block_rw t ~callee ~bname:e.Ir.en_block ~args ~dst ~caller in
                [
                  {
                    fmember = Mnamed (callee, e.Ir.en_block);
                    fsets = e.Ir.en_sets;
                    frw;
                  };
                ])
              enabled
          in
          let named_rw =
            List.fold_left (fun acc f -> Effects.rw_union acc f.frw) Effects.rw_empty named
          in
          let residual =
            {
              Effects.reads = Effects.LocSet.diff n.Pdg.rw.Effects.reads named_rw.Effects.reads;
              writes = Effects.LocSet.diff n.Pdg.rw.Effects.writes named_rw.Effects.writes;
            }
          in
          let iface =
            List.map
              (fun (set, indices) ->
                let ops =
                  List.map
                    (fun idx ->
                      match List.nth_opt args idx with
                      | Some op -> op
                      | None -> Diag.error "internal: interface actual index out of range")
                    indices
                in
                (set, ops))
              (interface_refs t callee)
          in
          { fmember = Mfun callee; fsets = iface; frw = residual } :: named
      | _ -> [ { fmember = Mfun "<instr>"; fsets = []; frw = n.Pdg.rw } ])

(** All commset names a node belongs to (for synchronization). *)
let node_sets t ~caller (n : Pdg.node) : string list =
  Listx.uniq (List.concat_map (fun f -> List.map fst f.fsets) (facets t ~caller n))

(** Static commutativity checking by symbolic differencing.

    For each pair of members of each commset (a member against itself
    for Self sets, distinct members for Group sets) the checker runs the
    two interleavings [A;B] and [B;A] over the abstract store of
    {!Abstore} and keeps the structured *difference residue* per
    iteration fact the set's predicate admits — the same admission
    machinery as Algorithm 1 (see {!Commset_core.Dep_analysis}): a
    scenario where the predicate symbolically evaluates to [false]
    cannot arise at runtime and is not checked. The residue folds into
    a verdict: all-[Agree] proves exact store equality, [Benign]-only
    residues prove commutativity modulo the paper's observation
    equivalence (handle renaming, exchanged draws), an [Opaque] atom
    degrades to [Unknown], and a provable divergence is only reported as
    [Refuted] once a concrete witness (a pair of iteration numbers
    satisfying the predicate and leaving different stores) is found.

    Beyond induction-variable affine classification, operands are
    chased structurally through unique definitions: results of
    allocating builtins executed once per iteration become per-iteration
    *fresh* pseudo-IVs (distinct across iterations, stable within one),
    and injective constructions (a builtin whose descriptor says it is
    injective, concatenation with a fixed prefix/suffix) become
    {!S.Sinj} values — both feed the keyed disjointness reasoning of
    {!Abstore}. *)

module Ir = Commset_ir.Ir
module A = Commset_analysis
module S = A.Symexec
module Effects = A.Effects
module Metadata = Commset_core.Metadata
module Value = Commset_runtime.Value
module Concrete_eval = Commset_runtime.Concrete_eval

(* per-target-function structural view for the freshness/deep chase *)
type target_view = {
  tv_func : Ir.func;
  tv_dom : A.Dominance.t;
  tv_own : Ir.label list;  (** loop blocks belonging to no deeper loop *)
  tv_defs : (Ir.reg, (Ir.label * Ir.instr) list) Hashtbl.t;
}

type ctx = {
  md : Metadata.t;
  prog : Ir.program;
  target_fname : string;  (** the hot-loop function, where induction facts live *)
  loop : A.Loops.loop;  (** the hot loop itself; induction facts hold only inside *)
  induction : A.Induction.t;
  view : target_view option;
  syms : (string * int, int) Hashtbl.t;
  mutable next_sym : int;
}

let build_view prog ~target_fname ~(loop : A.Loops.loop) =
  match Ir.find_func prog target_fname with
  | None -> None
  | Some f ->
      let cfg = A.Cfg.of_func f in
      let dom = A.Dominance.compute cfg in
      let loops = A.Loops.compute cfg dom in
      let own =
        match A.Loops.find_by_header loops loop.A.Loops.header with
        | Some l -> A.Loops.own_blocks loops l
        | None -> []
      in
      let defs = Hashtbl.create 64 in
      Ir.iter_instrs f (fun b i ->
          List.iter
            (fun r ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt defs r) in
              Hashtbl.replace defs r ((b.Ir.label, i) :: prev))
            (Ir.instr_defs i));
      Some { tv_func = f; tv_dom = dom; tv_own = own; tv_defs = defs }

let create ~md ~target_fname ~loop ~induction =
  {
    md;
    prog = md.Metadata.prog;
    target_fname;
    loop;
    induction;
    view = build_view md.Metadata.prog ~target_fname ~loop;
    syms = Hashtbl.create 64;
    next_sym = 0;
  }

(* Induction classification is only meaningful for registers used inside
   the target loop; everywhere else every register is opaque. *)
let classifiable ctx ~fname ~label =
  fname = ctx.target_fname
  && match label with Some l -> A.Loops.in_loop ctx.loop l | None -> false

(* A stable symbol per (function, register): the same register yields the
   same symbol wherever it is mentioned, so invariant operands compare
   equal across sides. *)
let intern ctx fname r =
  match Hashtbl.find_opt ctx.syms (fname, r) with
  | Some id -> id
  | None ->
      let id = ctx.next_sym in
      ctx.next_sym <- id + 1;
      Hashtbl.add ctx.syms (fname, r) id;
      id

(* ---- structural chase: freshness and injectivity -------------------- *)

(* Is register [r] a per-iteration fresh allocation handle as observed
   from [site]? Exactly one definition is an allocating builtin call
   whose block sits in the target loop (in no deeper loop) and dominates
   the site; every other definition either lies outside the loop (it
   runs at most once, before) or dominates the allocation (it is
   overwritten each iteration before the site reads the register). Then
   two instances from distinct iterations observe handles from distinct
   dynamic allocations — provably unequal — while instances of one
   iteration share the handle. *)
let fresh_alloc ctx ~site r : int option =
  match ctx.view with
  | None -> None
  | Some v -> (
      let defs = Option.value ~default:[] (Hashtbl.find_opt v.tv_defs r) in
      (* a [Move] from a register whose unique definition is an allocating
         call is an allocating definition by proxy: lowering routes call
         results through a temporary ([fd = fopen(..)] becomes
         [t = fopen(..); fd = t]) *)
      let rec alloc_iid depth (i : Ir.instr) =
        match i.Ir.desc with
        | Ir.Call { callee; _ } -> (
            match Commset_runtime.Builtins.lookup_spec callee with
            | Some spec -> if spec.Effects.bs_allocates then Some i.Ir.iid else None
            | None -> None)
        | Ir.Move (_, Ir.Reg r') when depth > 0 -> (
            match Hashtbl.find_opt v.tv_defs r' with
            | Some [ (_, d) ] -> alloc_iid (depth - 1) d
            | _ -> None)
        | _ -> None
      in
      let allocating i = alloc_iid 3 i <> None in
      match List.partition (fun (_, i) -> allocating i) defs with
      | [ (alloc_label, alloc_instr) ], others
        when List.mem alloc_label v.tv_own
             && alloc_label <> site
             && A.Dominance.dominates v.tv_dom alloc_label site
             && List.for_all
                  (fun (l, _) ->
                    (not (A.Loops.in_loop ctx.loop l))
                    || (l <> alloc_label
                       && A.Dominance.dominates v.tv_dom l alloc_label))
                  others ->
          alloc_iid 3 alloc_instr
      | _ -> None)

let chase_depth = 6

let injective callee =
  match Commset_runtime.Builtins.find callee with
  | Some bi -> bi.Commset_runtime.Builtins.injective
  | None -> false

(* Symbolic value of an operand, chasing unique in-function definitions
   for structure the affine classifier cannot see. [label] is the block
   of the member site the operand is observed from. *)
let rec sval_of_operand ?(depth = chase_depth) ctx side ~fname ~label
    (op : Ir.operand) : S.sval =
  match op with
  | Ir.Const (Ir.Cint n) -> S.const_int n
  | Ir.Const (Ir.Cbool b) -> S.Sbool (if b then S.True else S.False)
  | Ir.Const _ -> S.Stop
  | Ir.Reg r ->
      if not (classifiable ctx ~fname ~label) then S.Ssym (intern ctx fname r, side)
      else (
        match A.Induction.classify ctx.induction op with
        | A.Induction.Affine _ as c ->
            S.sval_of_classification side c ~sym_id:(intern ctx fname r)
        | A.Induction.Invariant ->
            S.Ssym (intern ctx fname r, S.Side1) (* same on both sides *)
        | A.Induction.Unknown -> (
            let site = Option.get label in
            match fresh_alloc ctx ~site r with
            | Some iid ->
                (* pseudo-IV: equal within an iteration, distinct across *)
                S.Sint { iv_id = -2 - iid; side; mul = 1; add = 0 }
            | None -> (
                match chase_def ctx r with
                | Some i when depth > 0 -> (
                    let recur o =
                      sval_of_operand ~depth:(depth - 1) ctx side ~fname ~label o
                    in
                    match i.Ir.desc with
                    | Ir.Move (_, o) -> recur o
                    | Ir.Call { callee; args = [ a ]; _ } when injective callee ->
                        S.Sinj (callee, recur a)
                    | Ir.Binop (Commset_lang.Ast.Add, Commset_lang.Ast.Tstring, _, a, b)
                      -> (
                        match (a, b) with
                        | Ir.Const (Ir.Cstring s), x -> S.Sinj ("pre:" ^ s, recur x)
                        | x, Ir.Const (Ir.Cstring s) -> S.Sinj ("suf:" ^ s, recur x)
                        | _ -> S.Ssym (intern ctx fname r, side))
                    | _ -> S.Ssym (intern ctx fname r, side))
                | _ -> S.Ssym (intern ctx fname r, side))))

(* the unique in-function definition of a target-frame register *)
and chase_def ctx r =
  match ctx.view with
  | None -> None
  | Some v -> (
      match Hashtbl.find_opt v.tv_defs r with
      | Some [ (_, i) ] -> Some i
      | _ -> None)

(** An invocation site of a member: the function whose registers the
    predicate actuals live in, those actual operands for one set, and
    the block the site sits in. *)
type site = {
  site_fn : string;
  site_label : Ir.label option;
  site_actuals : Ir.operand list;
}

let region_of f rid = List.find_opt (fun r -> r.Ir.rid = rid) f.Ir.fregions

(* Every place a member can be invoked as a dynamic instance of [sname],
   with the actual operands bound to the set's predicate there. *)
let sites ctx sname (m : Metadata.member) : site list =
  let prog = ctx.prog in
  let call_sites ~callee pick =
    List.concat_map
      (fun caller_name ->
        match Ir.find_func prog caller_name with
        | None -> []
        | Some caller ->
            let acc = ref [] in
            Ir.iter_instrs caller (fun b i ->
                match i.Ir.desc with
                | Ir.Call { callee = c; args; enabled; _ } when c = callee -> (
                    match pick ~args ~enabled with
                    | Some actuals ->
                        acc :=
                          {
                            site_fn = caller_name;
                            site_label = Some b.Ir.label;
                            site_actuals = actuals;
                          }
                          :: !acc
                    | None -> ())
                | _ -> ());
            List.rev !acc)
      prog.Ir.func_order
  in
  match m with
  | Metadata.Mregion (fname, rid) -> (
      match Ir.find_func prog fname with
      | None -> []
      | Some f -> (
          match region_of f rid with
          | None -> []
          | Some r -> (
              let entry = Some r.Ir.rentry in
              match List.assoc_opt sname r.Ir.rrefs with
              | Some ops ->
                  [ { site_fn = fname; site_label = entry; site_actuals = ops } ]
              | None ->
                  (* membership without a recorded reference (materialized
                     SELF): one site with no predicate actuals *)
                  [ { site_fn = fname; site_label = entry; site_actuals = [] } ])))
  | Metadata.Mfun fname -> (
      match List.assoc_opt sname (Metadata.interface_refs ctx.md fname) with
      | None -> []
      | Some idxs ->
          call_sites ~callee:fname (fun ~args ~enabled:_ ->
              match List.map (fun i -> List.nth_opt args i) idxs with
              | picked when List.for_all Option.is_some picked ->
                  Some (List.filter_map Fun.id picked)
              | _ -> None))
  | Metadata.Mnamed (fname, bname) ->
      call_sites ~callee:fname (fun ~args:_ ~enabled ->
          List.find_map
            (fun (e : Ir.enable) ->
              if e.Ir.en_block = bname then List.assoc_opt sname e.Ir.en_sets
              else None)
            enabled)

(* Is the (fact, site-pair) scenario admitted, i.e. can the predicate
   possibly hold for two such instances? No predicate admits everything. *)
let scenario_admitted ctx (p : Metadata.predicate option) fact (s1 : site) (s2 : site) =
  match p with
  | None -> true
  | Some p ->
      if
        List.length s1.site_actuals <> List.length p.Metadata.params1
        || List.length s2.site_actuals <> List.length p.Metadata.params2
      then true (* arity mismatch: stay conservative, check the pair *)
      else
        let sv1 =
          List.map
            (sval_of_operand ctx S.Side1 ~fname:s1.site_fn ~label:s1.site_label)
            s1.site_actuals
        and sv2 =
          List.map
            (sval_of_operand ctx S.Side2 ~fname:s2.site_fn ~label:s2.site_label)
            s2.site_actuals
        in
        let env =
          S.bind_params ~params1:p.Metadata.params1 ~params2:p.Metadata.params2
            ~actuals1:sv1 ~actuals2:sv2
        in
        S.eval fact env p.Metadata.body <> S.Sbool S.False

(* The block a member's body starts in, for the loop-membership gate. *)
let member_label md (m : Metadata.member) =
  match m with
  | Metadata.Mregion (fname, rid) -> (
      match Ir.find_func md.Metadata.prog fname with
      | Some f -> Option.map (fun r -> r.Ir.rentry) (region_of f rid)
      | None -> None)
  | Metadata.Mnamed (fname, bname) ->
      Option.map (fun r -> r.Ir.rentry) (Metadata.named_region md fname bname)
  | Metadata.Mfun _ -> None

(* Classified writes of a member summary, with stored values and keys
   bound to one side of the symbolic domain. *)
let writes_of_summary ctx side (s : Summary.t) : Abstore.write list =
  let label = member_label ctx.md s.Summary.smember in
  let sval op = sval_of_operand ctx side ~fname:s.Summary.sowner ~label op in
  List.filter_map
    (fun (a : Summary.access) ->
      if not a.Summary.awrite then None
      else
        Some
          {
            Abstore.wloc = a.Summary.aloc;
            wclass = a.Summary.aclass;
            wvalue = Option.map sval a.Summary.avalue;
            wkey = Option.map sval a.Summary.akey;
          })
    s.Summary.sacc

(* Keyed reads of a member summary, bound to one side. *)
let reads_of_summary ctx side (s : Summary.t) : Abstore.read list =
  let label = member_label ctx.md s.Summary.smember in
  let sval op = sval_of_operand ctx side ~fname:s.Summary.sowner ~label op in
  List.filter_map
    (fun (a : Summary.access) ->
      if a.Summary.awrite then None
      else
        Some { Abstore.rdloc = a.Summary.aloc; rdkey = Option.map sval a.Summary.akey })
    s.Summary.sacc

(* ---- concrete witness search -------------------------------------- *)

let witness_bound = 8

(* Concrete integer value of a classified operand at iteration [n];
   [None] when the operand cannot be concretized. *)
let concretize ctx ~fname ~label op n : Value.t option =
  match op with
  | Ir.Const c -> Some (Value.of_const c)
  | Ir.Reg _ when not (classifiable ctx ~fname ~label) -> None
  | Ir.Reg _ -> (
      match A.Induction.classify ctx.induction op with
      | A.Induction.Affine { mul; add; _ } -> Some (Value.Vint ((mul * n) + add))
      | A.Induction.Invariant -> Some (Value.Vint 0)
      | A.Induction.Unknown -> None)

let predicate_holds_concretely (p : Metadata.predicate option) (s1 : site) (s2 : site)
    ctx ~n1 ~n2 =
  match p with
  | None -> Some true
  | Some p -> (
      let conc fname label n ops =
        List.map (fun op -> concretize ctx ~fname ~label op n) ops
      in
      let a1 = conc s1.site_fn s1.site_label n1 s1.site_actuals
      and a2 = conc s2.site_fn s2.site_label n2 s2.site_actuals in
      if List.exists Option.is_none a1 || List.exists Option.is_none a2 then None
      else
        let a1 = List.filter_map Fun.id a1 and a2 = List.filter_map Fun.id a2 in
        if
          List.length a1 <> List.length p.Metadata.params1
          || List.length a2 <> List.length p.Metadata.params2
        then None
        else
          try
            Some
              (Concrete_eval.predicate_holds ~params1:p.Metadata.params1
                 ~params2:p.Metadata.params2 ~actuals1:a1 ~actuals2:a2
                 p.Metadata.body)
          with _ -> None)

(* Concrete final value of an affine stored sval at iteration [n].
   Pseudo-IV values (fresh handles) are not concretizable: their
   divergence is real but the handle values are not iteration numbers. *)
let eval_sval_at (v : S.sval) n =
  match v with
  | S.Sint { iv_id; mul; add; _ } when iv_id >= -1 -> Some ((mul * n) + add)
  | _ -> None

(* A provable divergence becomes a refutation only with a concrete
   witness: two iteration numbers the predicate admits whose stored
   values actually differ. *)
let find_witness ctx (p : Metadata.predicate option) (d : Residue.divergence)
    (s1 : site) (s2 : site) : string option =
  let result = ref None in
  (try
     for n1 = 0 to witness_bound - 1 do
       for n2 = 0 to witness_bound - 1 do
         if n1 <> n2 && !result = None then
           match predicate_holds_concretely p s1 s2 ctx ~n1 ~n2 with
           | Some true -> (
               match (eval_sval_at d.Residue.dv1 n1, eval_sval_at d.Residue.dv2 n2) with
               | Some vba, Some vab when vba <> vab ->
                   result :=
                     Some
                       (Printf.sprintf
                          "instances at iterations i=%d and i=%d are admitted by \
                           the predicate, yet order A;B leaves %s = %d while \
                           order B;A leaves %d"
                          n1 n2 (Abstore.loc_str d.Residue.dloc) vab vba);
                   raise Exit
               | _ -> ())
           | _ -> ()
       done
     done
   with Exit -> ());
  !result

(* ---- pair verdict -------------------------------------------------- *)

let facts = [ S.Same_iteration; S.Distinct_iterations ]

(* Fold one admitted fact's residue into a verdict. *)
let verdict_of_residue ctx (p : Metadata.predicate option) (res : Residue.t) sa sb :
    Verdict.t =
  match Residue.worst res with
  | Residue.Agree -> Verdict.Proved (Residue.describe res)
  | Residue.Benign ->
      Verdict.Proved
        (Printf.sprintf "commutes modulo observation equivalence: %s"
           (Residue.describe res))
  | Residue.Opaque -> Verdict.Unknown (Residue.describe res)
  | Residue.Diverge d -> (
      match find_witness ctx p d sa sb with
      | Some detail ->
          Verdict.Refuted { Verdict.cx_source = Verdict.Static; cx_detail = detail }
      | None ->
          Verdict.Unknown
            (Printf.sprintf
               "final stores differ symbolically at %s but no concrete witness \
                was found"
               (Abstore.loc_str d.Residue.dloc)))

(** Verdict and per-fact residues for one member pair of one set. *)
let check_pair_res ctx (info : Metadata.set_info) m1 m2 :
    Verdict.t * (S.iteration_fact * Residue.t) list =
  let md = ctx.md in
  let s1 = Summary.of_member md m1 in
  let s2 = if m1 = m2 then s1 else Summary.of_member md m2 in
  if not (Effects.conflict s1.Summary.srw s2.Summary.srw) then
    (Verdict.Proved "disjoint memory footprints", [])
  else if Summary.has_unanalyzable s1 || Summary.has_unanalyzable s2 then
    (Verdict.Unknown "member touches unanalyzable state (heap or unknown locations)", [])
  else
    let sites1 = sites ctx info.Metadata.sname m1 in
    let sites2 = if m1 = m2 then sites1 else sites ctx info.Metadata.sname m2 in
    if sites1 = [] || sites2 = [] then (Verdict.Proved "member is never invoked", [])
    else
      (* facts admitted by at least one site pair, with a witnessing pair *)
      let admitted =
        List.filter_map
          (fun fact ->
            let cross =
              List.concat_map (fun a -> List.map (fun b -> (a, b)) sites2) sites1
            in
            match
              List.find_opt
                (fun (a, b) -> scenario_admitted ctx info.Metadata.predicate fact a b)
                cross
            with
            | Some (a, b) -> Some (fact, a, b)
            | None -> None)
          facts
      in
      if admitted = [] then
        (Verdict.Proved "predicate excludes every pair of concurrent instances", [])
      else
        let reads1 = reads_of_summary ctx S.Side1 s1
        and reads2 = reads_of_summary ctx S.Side2 s2 in
        let writes1 = writes_of_summary ctx S.Side1 s1
        and writes2 = writes_of_summary ctx S.Side2 s2 in
        List.fold_left
          (fun (acc, residues) (fact, sa, sb) ->
            let res = Abstore.diff fact ~reads1 ~writes1 ~reads2 ~writes2 in
            let v = verdict_of_residue ctx info.Metadata.predicate res sa sb in
            (Verdict.join acc v, residues @ [ (fact, res) ]))
          (Verdict.Proved "no admitted scenario diverges", [])
          admitted

(* ---- set & report enumeration -------------------------------------- *)

let pairs_of_set md (info : Metadata.set_info) :
    (Metadata.member * Metadata.member * bool) list =
  let members = Metadata.members_of md info.Metadata.sname in
  match info.Metadata.kind with
  | Metadata.Self_set -> List.map (fun m -> (m, m, true)) members
  | Metadata.Group_set ->
      let rec pairs = function
        | [] -> []
        | m :: rest -> List.map (fun m' -> (m, m', false)) rest @ pairs rest
      in
      pairs members

let src_log = Logs.Src.create "commset.verify" ~doc:"Commutativity annotation verifier"

module Log = (val Logs.src_log src_log : Logs.LOG)

let run ~md ~target_fname ~loop ~induction () : Verdict.report =
  Log.debug (fun m -> m "static differencing over '%s'" target_fname);
  let ctx = create ~md ~target_fname ~loop ~induction in
  let rpairs =
    List.concat_map
      (fun (info : Metadata.set_info) ->
        List.map
          (fun (m1, m2, pself) ->
            let pverdict, pres = check_pair_res ctx info m1 m2 in
            {
              Verdict.pset = info.Metadata.sname;
              pm1 = m1;
              pm2 = m2;
              pself;
              pverdict;
              pres;
              ptrials = 0;
            })
          (pairs_of_set ctx.md info))
      (Metadata.sets_in_rank_order ctx.md)
  in
  let report = { Verdict.rpairs } in
  Log.debug (fun m ->
      m "static pass: %d proved, %d unknown, %d refuted" (Verdict.n_proved report)
        (Verdict.n_unknown report) (Verdict.n_refuted report));
  report

(** Commutativity-condition synthesis (ROADMAP item 2): invert the
    annotation verifier into an annotation suggester.

    The pass runs in six stages:

    + {b Strip}: every COMMSET pragma is removed ({!Strip}); the result
      is re-printed and re-parsed so all further source locations are in
      the stripped program's coordinates.
    + {b Enumerate}: candidate members are collected from the hottest
      loop — existing bare [{ }] blocks (the structure hand annotations
      decorate survives stripping), wraps of effectful leaf statements
      (calls into stateful builtins or state-writing user functions,
      array stores, global assignments), [if] statements with effectful
      conditions wrapped whole, and interface-level candidates for user
      functions called from the loop. Candidates containing [return] or
      an escaping [break]/[continue] are discarded up front (they could
      never satisfy the CS010 region rules).
    + {b Probe}: one instrumented compile in which every candidate joins
      an unpredicated probe commset ([__probe_r] for regions,
      [__probe_f] for functions), its own singleton marker set
      ([__cand]{i k}, mapping lowered members back to candidates), and
      SELF. The static differencing engine then yields a *difference
      residue* per candidate pair per iteration fact.
    + {b Synthesize}: per pair, the weakest predicate in the lattice
      {[ true  ⊑  x1 != x2  ⊑  (unsatisfiable) ]} under which the
      residue vanishes: [true] when both interleaving orders agree (or
      disagree benignly) even for instances of the same iteration, the
      induction-variable inequality when only distinct iterations
      commute, nothing otherwise. Mutually commuting candidates are
      assembled greedily into group sets; every member also gets self
      coverage (SELF, or a predicated self set when only distinct
      iterations commute with themselves).
    + {b Gate}: the assembled bundle is re-compiled with the full
      verifier (static differencing plus dynamic replay). Any pair that
      is not [Proved] causes the offending candidates to be dropped and
      the bundle re-assembled — suggestions are Proved-or-dropped, never
      emitted as Unknown or Refuted.
    + {b Rank}: the verified bundle (and optionally each suggestion
      alone) is run through the simulator at eight threads; suggestions
      are recommended only when the bundle improves on the stripped
      baseline. *)

module Ast = Commset_lang.Ast
module Parser = Commset_lang.Parser
module Pretty = Commset_lang.Pretty
module Strip = Commset_lang.Strip
module Ir = Commset_ir.Ir
module A = Commset_analysis
module S = A.Symexec
module Effects = A.Effects
module Metadata = Commset_core.Metadata
module V = Commset_verify
module P = Commset_pipeline.Pipeline
module Diag = Commset_support.Diag
module Loc = Commset_support.Loc

let src = Logs.Src.create "commset.synth" ~doc:"commutativity-condition synthesis"

module Log = (val Logs.src_log src : Logs.LOG)

type anchor =
  | Ablock of int
  | Awrap of int
  | Adecl_split of int
  | Afun of string

type member = { m_anchor : anchor; m_desc : string; m_refs : string list }

type suggestion = {
  sg_set : string option;
  sg_kind : Ast.set_kind;
  sg_predicate : string option;
  sg_members : member list;
  sg_pragmas : string list;
  sg_speedup : float option;
  sg_recommended : bool;
}

type result = {
  r_name : string;
  r_baseline : float;
  r_bundle : float;
  r_hand : float option;
  r_suggestions : suggestion list;
  r_diags : Diag.diagnostic list;
  r_source : string;
  r_stripped : string;
}

(* ---- candidates ----------------------------------------------------- *)

type ckind = Kblock | Kwrap | Kdecl_split | Kfn of string

type cand = {
  cid : int;
  ckind : ckind;
  coff : int;  (** start offset of the anchored statement; 0 for [Kfn] *)
  cline : int;
  cdesc : string;
  ccalls : string list;  (** effectful user functions the body calls *)
}

let is_region c = match c.ckind with Kfn _ -> false | _ -> true

let anchor_of c =
  match c.ckind with
  | Kblock -> Ablock c.cline
  | Kwrap -> Awrap c.cline
  | Kdecl_split -> Adecl_split c.cline
  | Kfn f -> Afun f

(* every call name mentioned under a statement (or just its condition,
   for if/while — exactly what executes unconditionally) *)
let calls_of_stmt s =
  let acc = ref [] in
  Ast.iter_exprs_stmt
    (fun e -> match e.Ast.edesc with Ast.Call (n, _) -> acc := n :: !acc | _ -> ())
    s;
  List.rev !acc

let calls_of_expr e =
  let acc = ref [] in
  Ast.iter_exprs_expr
    (fun e -> match e.Ast.edesc with Ast.Call (n, _) -> acc := n :: !acc | _ -> ())
    e;
  List.rev !acc

let calls_of_block b =
  let acc = ref [] in
  Ast.iter_stmts (fun s -> acc := !acc @ calls_of_stmt s) b;
  !acc

let builtin_writes name =
  match Commset_runtime.Builtins.lookup_spec name with
  | Some sp -> sp.Effects.bs_writes <> [] || sp.Effects.bs_writes_arrays <> []
  | None -> false

let user_fn_writes (c0 : P.t) name =
  match Ir.find_func c0.P.prog name with
  | None -> false
  | Some f ->
      let instrs = List.concat_map (fun b -> b.Ir.instrs) (Ir.blocks_in_order f) in
      let rw = Effects.instrs_rw c0.P.effects ~fname:name instrs in
      not (Effects.LocSet.is_empty rw.Effects.writes)

(* can a region wrapped around this statement violate the CS010 control
   rules? [in_loop] tracks loops nested inside the candidate itself *)
let rec stmt_escapes in_loop s =
  match s.Ast.sdesc with
  | Ast.Return _ -> true
  | Ast.Break | Ast.Continue -> not in_loop
  | Ast.If (_, b1, b2) ->
      block_escapes in_loop b1
      || Option.fold ~none:false ~some:(block_escapes in_loop) b2
  | Ast.While (_, b) | Ast.For (_, _, _, b) -> block_escapes true b
  | Ast.Block b -> block_escapes in_loop b
  | _ -> false

and block_escapes in_loop b = List.exists (stmt_escapes in_loop) b.Ast.stmts

let scalar = function
  | Ast.Tint | Ast.Tfloat | Ast.Tbool | Ast.Tstring -> true
  | _ -> false

(* ---- locating the hot loop in the stripped AST ---------------------- *)

let ir_loop_lines (c0 : P.t) =
  let f = c0.P.target.P.func in
  List.fold_left
    (fun (lo, hi) label ->
      let b = Ir.block f label in
      List.fold_left
        (fun (lo, hi) (i : Ir.instr) ->
          if Loc.is_dummy i.Ir.iloc then (lo, hi)
          else (min lo (Loc.line i.Ir.iloc), max hi i.Ir.iloc.Loc.end_pos.Loc.line))
        (lo, hi) b.Ir.instrs)
    (max_int, min_int)
    c0.P.target.P.loop.A.Loops.body

(* innermost loop statement of [astf] whose source span covers the IR
   loop's lines, together with its body and induction-variable name *)
let hot_loop_stmt (astf : Ast.fundecl) (c0 : P.t) =
  let lmin, lmax = ir_loop_lines c0 in
  let loops = ref [] in
  let rec scan s =
    (match s.Ast.sdesc with
    | Ast.While (_, b) -> loops := (s, b, None) :: !loops
    | Ast.For (init, _, _, b) ->
        let iv =
          match init with
          | Some { Ast.sdesc = Ast.Decl (_, x, _); _ }
          | Some { Ast.sdesc = Ast.Assign (x, _); _ } ->
              Some x
          | _ -> None
        in
        loops := (s, b, iv) :: !loops
    | _ -> ());
    match s.Ast.sdesc with
    | Ast.If (_, b1, b2) ->
        List.iter scan b1.Ast.stmts;
        Option.iter (fun b -> List.iter scan b.Ast.stmts) b2
    | Ast.While (_, b) | Ast.For (_, _, _, b) | Ast.Block b ->
        List.iter scan b.Ast.stmts
    | _ -> ()
  in
  List.iter scan astf.Ast.body.Ast.stmts;
  let span (s, _, _) = (Loc.line s.Ast.sloc, s.Ast.sloc.Loc.end_pos.Loc.line) in
  let covering =
    List.filter (fun l -> fst (span l) <= lmin && snd (span l) >= lmax) !loops
  in
  let width l = snd (span l) - fst (span l) in
  let best pool =
    List.fold_left
      (fun acc l ->
        match acc with Some b when width b <= width l -> acc | _ -> Some l)
      None pool
  in
  match best (if covering <> [] then covering else !loops) with
  | Some l -> l
  | None ->
      Diag.error ~code:"CS015" "cannot locate the hot loop of '%s' in the source"
        astf.Ast.fname

(* ---- enumeration ---------------------------------------------------- *)

let enumerate (c0 : P.t) (ast : Ast.program) =
  let fname = c0.P.target.P.func.Ir.fname in
  let astf =
    match Ast.find_function ast fname with
    | Some f -> f
    | None -> Diag.error ~code:"CS015" "hot function '%s' not found in source" fname
  in
  let _, loop_body, iv = hot_loop_stmt astf c0 in
  let globals = List.map (fun (_, g, _, _) -> g) (Ast.globals ast) in
  let effectful_call n = user_fn_writes c0 n || builtin_writes n in
  let effectful_calls names = List.filter effectful_call names in
  let cands = ref [] and n = ref 0 in
  let add ckind coff cline cdesc ccalls =
    cands := { cid = !n; ckind; coff; cline; cdesc; ccalls } :: !cands;
    incr n
  in
  let user_calls names =
    List.filter (fun c -> Ir.find_func c0.P.prog c <> None && user_fn_writes c0 c) names
  in
  let off s = s.Ast.sloc.Loc.start_pos.Loc.offset in
  let line s = Loc.line s.Ast.sloc in
  let describe_calls calls =
    match calls with [] -> "..." | l -> String.concat ", " (List.sort_uniq compare l)
  in
  let rec walk_block b = List.iter walk_stmt b.Ast.stmts
  and walk_stmt s =
    match s.Ast.sdesc with
    | Ast.Block b ->
        if block_escapes false b then walk_block b
        else
          let calls = effectful_calls (calls_of_block b) in
          add Kblock (off s) (line s)
            (Printf.sprintf "{ %s }" (describe_calls calls))
            (user_calls calls)
    | Ast.If (c, b1, b2) ->
        let cond_calls = effectful_calls (calls_of_expr c) in
        if cond_calls <> [] && not (stmt_escapes false s) then
          add Kwrap (off s) (line s)
            (Printf.sprintf "if (%s ...)" (describe_calls cond_calls))
            (user_calls cond_calls)
        else (
          walk_block b1;
          Option.iter walk_block b2)
    | Ast.While (_, b) | Ast.For (_, _, _, b) -> walk_block b
    | Ast.Decl (ty, x, Some e) when scalar ty && effectful_calls (calls_of_expr e) <> []
      ->
        let calls = effectful_calls (calls_of_expr e) in
        add (Kdecl_split : ckind) (off s) (line s)
          (Printf.sprintf "%s = %s(...)" x (describe_calls calls))
          (user_calls calls)
    | Ast.Assign (x, e) ->
        let calls = effectful_calls (calls_of_expr e) in
        if calls <> [] then
          add Kwrap (off s) (line s)
            (Printf.sprintf "%s = %s(...)" x (describe_calls calls))
            (user_calls calls)
        else if List.mem x globals then
          add Kwrap (off s) (line s) (Printf.sprintf "%s = ..." x) []
    | Ast.Expr e ->
        let calls = effectful_calls (calls_of_expr e) in
        if calls <> [] then
          add Kwrap (off s) (line s)
            (Printf.sprintf "%s(...)" (describe_calls calls))
            (user_calls calls)
    | Ast.Store _ -> add Kwrap (off s) (line s) "array update" []
    | _ -> ()
  in
  walk_block loop_body;
  (* interface-level candidates: user functions the loop calls anywhere *)
  let called = ref [] in
  Ast.iter_stmts (fun s -> called := !called @ calls_of_stmt s) loop_body;
  List.iter
    (fun f ->
      if f <> fname then add (Kfn f) 0 0 (Printf.sprintf "function '%s'" f) [])
    (List.sort_uniq compare (user_calls !called));
  (List.rev !cands, iv)

(* ---- AST surgery ---------------------------------------------------- *)

let mk_expr d = { Ast.edesc = d; eloc = Loc.dummy; ety = None }
let mk_stmt d = { Ast.sdesc = d; sloc = Loc.dummy }
let mk_ref ?(actuals = []) name = { Ast.set_name = name; Ast.actuals }
let mk_member_pragma refs = { Ast.pdesc = Ast.P_member refs; ploc = Loc.dummy }

let default_init = function
  | Ast.Tint -> Some (mk_expr (Ast.Int_lit 0))
  | Ast.Tfloat -> Some (mk_expr (Ast.Float_lit 0.))
  | Ast.Tbool -> Some (mk_expr (Ast.Bool_lit false))
  | Ast.Tstring -> Some (mk_expr (Ast.String_lit ""))
  | _ -> None

let block_ids = ref 1_000_000

let mk_block stmts refs =
  incr block_ids;
  {
    Ast.stmts;
    block_id = !block_ids;
    annots = [ mk_member_pragma refs ];
    bloc = Loc.dummy;
  }

(* Install member references into the stripped AST: [region_refs] maps a
   statement start offset to the references its candidate receives,
   [fn_refs] maps a function name to interface references, [globals] are
   prepended decl/predicate pragmas. *)
let apply (ast : Ast.program) ~fname ~(globals : Ast.pragma list)
    ~(region_refs : (int * Ast.commset_ref list) list)
    ~(fn_refs : (string * Ast.commset_ref list) list) : Ast.program =
  let decide s =
    if Loc.is_dummy s.Ast.sloc then None
    else List.assoc_opt s.Ast.sloc.Loc.start_pos.Loc.offset region_refs
  in
  let rec rw_block b = { b with Ast.stmts = List.concat_map rw_stmt b.Ast.stmts }
  and rw_stmt s =
    match decide s with
    | Some refs -> (
        match s.Ast.sdesc with
        | Ast.Block b ->
            [
              {
                s with
                Ast.sdesc =
                  Ast.Block { b with Ast.annots = b.Ast.annots @ [ mk_member_pragma refs ] };
              };
            ]
        | Ast.Decl (ty, x, Some e) ->
            [
              { s with Ast.sdesc = Ast.Decl (ty, x, default_init ty) };
              mk_stmt (Ast.Block (mk_block [ mk_stmt (Ast.Assign (x, e)) ] refs));
            ]
        | _ -> [ mk_stmt (Ast.Block (mk_block [ s ] refs)) ])
    | None -> [ { s with Ast.sdesc = rw_desc s.Ast.sdesc } ]
  and rw_desc = function
    | Ast.If (c, b1, b2) -> Ast.If (c, rw_block b1, Option.map rw_block b2)
    | Ast.While (c, b) -> Ast.While (c, rw_block b)
    | Ast.For (i, c, st, b) -> Ast.For (i, c, st, rw_block b)
    | Ast.Block b -> Ast.Block (rw_block b)
    | d -> d
  in
  let decls =
    List.map
      (function
        | Ast.Gfun f ->
            let fannots =
              match List.assoc_opt f.Ast.fname fn_refs with
              | Some refs -> f.Ast.fannots @ [ mk_member_pragma refs ]
              | None -> f.Ast.fannots
            in
            let body = if f.Ast.fname = fname then rw_block f.Ast.body else f.Ast.body in
            Ast.Gfun { f with Ast.fannots; body }
        | d -> d)
      ast.Ast.decls
  in
  { Ast.global_pragmas = ast.Ast.global_pragmas @ globals; decls }

let decl_pragma name kind =
  { Ast.pdesc = Ast.P_decl { set_name = name; kind }; ploc = Loc.dummy }

let neq_pragma name =
  {
    Ast.pdesc =
      Ast.P_predicate
        {
          set_name = name;
          params1 = [ "x1" ];
          params2 = [ "x2" ];
          body = mk_expr (Ast.Binop (Ast.Neq, mk_expr (Ast.Var "x1"), mk_expr (Ast.Var "x2")));
        };
    ploc = Loc.dummy;
  }

(* ---- probing -------------------------------------------------------- *)

type pairinfo = { ok_same : bool; ok_distinct : bool; why : string }

let clean_of_pair (p : V.Verdict.pair) : pairinfo =
  match p.V.Verdict.pres with
  | [] ->
      let ok = match p.V.Verdict.pverdict with V.Verdict.Proved _ -> true | _ -> false in
      { ok_same = ok; ok_distinct = ok; why = V.Verdict.to_string p.V.Verdict.pverdict }
  | pres ->
      let clean f =
        match List.assoc_opt f pres with
        | Some r -> V.Residue.clean r
        | None -> true
      in
      let why =
        match
          List.find_opt (fun (_, r) -> not (V.Residue.clean r)) pres
        with
        | Some (_, r) -> V.Residue.describe r
        | None -> "commutes"
      in
      { ok_same = clean S.Same_iteration; ok_distinct = clean S.Distinct_iterations; why }

type probe = {
  selfs : (int, pairinfo) Hashtbl.t;  (** cid -> self-pair residue info *)
  pairs : (int * int, pairinfo) Hashtbl.t;  (** cid pair (lo, hi) -> info *)
}

let pair_info probe a b =
  Hashtbl.find_opt probe.pairs (min a b, max a b)

let marker k = "__cand" ^ string_of_int k

let probe_refs c =
  let probe_set = if is_region c then "__probe_r" else "__probe_f" in
  [ mk_ref probe_set; mk_ref (marker c.cid); mk_ref "SELF" ]

let run_probe ~name ~setup (ast : Ast.program) ~fname (cands : cand list) : probe =
  let globals =
    decl_pragma "__probe_r" Ast.Group_set
    :: decl_pragma "__probe_f" Ast.Group_set
    :: List.map (fun c -> decl_pragma (marker c.cid) Ast.Group_set) cands
  in
  let region_refs =
    List.filter_map (fun c -> if is_region c then Some (c.coff, probe_refs c) else None) cands
  in
  let fn_refs =
    List.filter_map
      (fun c -> match c.ckind with Kfn f -> Some (f, probe_refs c) | _ -> None)
      cands
  in
  let psrc = Pretty.program_to_string (apply ast ~fname ~globals ~region_refs ~fn_refs) in
  let cp = P.compile ~name:(name ^ ".probe") ~setup ~verify:false psrc in
  let report =
    V.Static.run ~md:cp.P.md ~target_fname:cp.P.target.P.func.Ir.fname
      ~loop:cp.P.target.P.loop ~induction:cp.P.target.P.induction ()
  in
  (* marker sets recover the candidate each lowered member came from *)
  let of_member = Hashtbl.create 32 in
  List.iter
    (fun c ->
      List.iter
        (fun m -> Hashtbl.replace of_member m c.cid)
        (Metadata.members_of cp.P.md (marker c.cid)))
    cands;
  let probe = { selfs = Hashtbl.create 32; pairs = Hashtbl.create 64 } in
  List.iter
    (fun (p : V.Verdict.pair) ->
      match
        (Hashtbl.find_opt of_member p.V.Verdict.pm1, Hashtbl.find_opt of_member p.V.Verdict.pm2)
      with
      | Some a, Some b ->
          let info = clean_of_pair p in
          Log.debug (fun m ->
              m "probe %s: cand%d ~ cand%d same=%b distinct=%b (%s)" p.V.Verdict.pset a
                b info.ok_same info.ok_distinct info.why);
          if p.V.Verdict.pself then Hashtbl.replace probe.selfs a info
          else if a <> b then Hashtbl.replace probe.pairs (min a b, max a b) info
      | _ -> ())
    report.V.Verdict.rpairs;
  probe

(* ---- assembly ------------------------------------------------------- *)

(** One synthesized set (or a lone SELF membership): the unit rendered
    as a suggestion. *)
type sgroup = {
  g_set : string option;
  g_kind : Ast.set_kind;
  g_pred : bool;  (** predicated on [x1 != x2] over the loop IV *)
  g_members : (cand * (string * string list) list) list;
      (** candidate, its references as (set, actuals) *)
  g_extra_decls : (string * Ast.set_kind * bool) list;
      (** per-member predicated self sets this group introduced *)
}

type mode = Iface_first | Region_first

(* which candidates a mode considers *)
let select mode probe (cands : cand list) =
  let viable c =
    match Hashtbl.find_opt probe.selfs c.cid with
    | Some i -> i.ok_distinct
    | None -> false
  in
  let viable_fn name =
    List.exists (fun c -> c.ckind = Kfn name && viable c) cands
  in
  List.filter
    (fun c ->
      viable c
      &&
      match mode with
      | Region_first -> is_region c
      | Iface_first -> (
          match c.ckind with
          | Kfn _ | Kblock -> true
          | Kwrap | Kdecl_split ->
              (* leaf wraps exist to cover calls; skip the wrap when an
                 interface-level candidate covers every call it makes *)
              not (c.ccalls <> [] && List.for_all viable_fn c.ccalls)))
    cands

let assemble mode probe (cands : cand list) ~iv : sgroup list =
  let selected = select mode probe cands in
  (* greedy partition into mutually commuting, kind-homogeneous groups *)
  let groups =
    List.fold_left
      (fun groups c ->
        let rec place = function
          | [] -> [ [ c ] ]
          | g :: rest ->
              if
                is_region (List.hd g) = is_region c
                && List.for_all
                     (fun m ->
                       match pair_info probe m.cid c.cid with
                       | Some i -> i.ok_distinct && (iv <> None || i.ok_same)
                       | None -> false)
                     g
              then (g @ [ c ]) :: rest
              else g :: place rest
        in
        place groups)
      [] selected
  in
  let gset = ref (-1) and sset = ref (-1) in
  let self_refs c extra =
    match Hashtbl.find_opt probe.selfs c.cid with
    | Some i when i.ok_same && i.ok_distinct -> Some ("SELF", [])
    | Some i when i.ok_distinct && iv <> None ->
        incr sset;
        let n = "SSET" ^ string_of_int !sset in
        extra := (n, Ast.Self_set, true) :: !extra;
        Some (n, [ Option.get iv ])
    | _ -> None
  in
  List.filter_map
    (fun g ->
      let extra = ref [] in
      match g with
      | [] -> None
      | [ c ] -> (
          (* a lone candidate: self coverage only *)
          match self_refs c extra with
          | Some r ->
              Some
                {
                  g_set = None;
                  g_kind = Ast.Self_set;
                  g_pred = false;
                  g_members = [ (c, [ r ]) ];
                  g_extra_decls = List.rev !extra;
                }
          | None -> None)
      | _ ->
          let all_same =
            let ok a b =
              match pair_info probe a.cid b.cid with
              | Some i -> i.ok_same
              | None -> false
            in
            let rec go = function
              | [] -> true
              | c :: rest -> List.for_all (ok c) rest && go rest
            in
            go g
          in
          (* weakest predicate making every pair's residue vanish *)
          let pred = not all_same in
          if pred && iv = None then None
          else (
            incr gset;
            let name = "GSET" ^ string_of_int !gset in
            let actuals = if pred then [ Option.get iv ] else [] in
            let members =
              List.map
                (fun c ->
                  let refs =
                    (name, actuals)
                    :: (match self_refs c extra with Some r -> [ r ] | None -> [])
                  in
                  (c, refs))
                g
            in
            Some
              {
                g_set = Some name;
                g_kind = Ast.Group_set;
                g_pred = pred;
                g_members = members;
                g_extra_decls = List.rev !extra;
              }))
    groups

(* ---- rendering an assembly into an AST ------------------------------ *)

let ref_of_pair (set, actuals) =
  mk_ref ~actuals:(List.map (fun v -> mk_expr (Ast.Var v)) actuals) set

let group_globals (groups : sgroup list) =
  List.concat_map
    (fun g ->
      (match g.g_set with
      | Some n ->
          decl_pragma n g.g_kind :: (if g.g_pred then [ neq_pragma n ] else [])
      | None -> [])
      @ List.concat_map
          (fun (n, k, pred) ->
            decl_pragma n k :: (if pred then [ neq_pragma n ] else []))
          g.g_extra_decls)
    groups

let bundle_ast ?(markers = false) (ast : Ast.program) ~fname (groups : sgroup list) =
  let globals =
    group_globals groups
    @
    if markers then
      List.concat_map
        (fun g -> List.map (fun (c, _) -> decl_pragma (marker c.cid) Ast.Group_set) g.g_members)
        groups
    else []
  in
  let refs_of c refs =
    List.map ref_of_pair refs @ if markers then [ mk_ref (marker c.cid) ] else []
  in
  let region_refs =
    List.concat_map
      (fun g ->
        List.filter_map
          (fun (c, refs) -> if is_region c then Some (c.coff, refs_of c refs) else None)
          g.g_members)
      groups
  in
  let fn_refs =
    List.concat_map
      (fun g ->
        List.filter_map
          (fun (c, refs) ->
            match c.ckind with Kfn f -> Some (f, refs_of c refs) | _ -> None)
          g.g_members)
      groups
  in
  apply ast ~fname ~globals ~region_refs ~fn_refs

(* ---- the Proved-or-dropped gate ------------------------------------- *)

(* Re-verify the assembled bundle with the full verifier; candidates in
   any non-Proved pair are dropped and the bundle re-assembled. Returns
   the verified compile and the surviving groups. *)
let gate ~name ~setup ~fname (ast : Ast.program) mode probe ~iv (cands : cand list) :
    (P.t option * sgroup list * cand list) =
  let rec go cands round =
    let groups = assemble mode probe cands ~iv in
    if groups = [] then (None, [], cands)
    else
      let bsrc = Pretty.program_to_string (bundle_ast ~markers:true ast ~fname groups) in
      let cb = P.compile ~name:(name ^ ".gate") ~setup ~verify:true bsrc in
      let report =
        match cb.P.verification with
        | Some r -> r
        | None -> { V.Verdict.rpairs = [] }
      in
      let of_member = Hashtbl.create 32 in
      List.iter
        (fun (c : cand) ->
          List.iter
            (fun m -> Hashtbl.replace of_member m c.cid)
            (Metadata.members_of cb.P.md (marker c.cid)))
        cands;
      let offenders =
        List.concat_map
          (fun (p : V.Verdict.pair) ->
            match p.V.Verdict.pverdict with
            | V.Verdict.Proved _ -> []
            | _ ->
                List.filter_map
                  (fun m -> Hashtbl.find_opt of_member m)
                  [ p.V.Verdict.pm1; p.V.Verdict.pm2 ])
          report.V.Verdict.rpairs
        |> List.sort_uniq compare
      in
      if offenders = [] then (Some cb, groups, cands)
      else if round >= 3 then (None, [], cands)
      else (
        Log.info (fun m ->
            m "gate round %d: dropping %d unprovable candidate(s)" round
              (List.length offenders));
        go (List.filter (fun c -> not (List.mem c.cid offenders)) cands) (round + 1))
  in
  go cands 0

(* ---- speedups ------------------------------------------------------- *)

let best_speedup (c : P.t) =
  match P.best c ~threads:8 with Some r -> r.P.speedup | None -> 1.0

(* ---- suggestions ---------------------------------------------------- *)

let refs_strings refs =
  List.map
    (fun (set, actuals) ->
      match actuals with
      | [] -> set
      | l -> Printf.sprintf "%s(%s)" set (String.concat ", " l))
    refs

let member_of (c, refs) =
  {
    m_anchor = anchor_of c;
    m_desc = c.cdesc;
    m_refs = refs_strings refs;
  }

let pragma_lines (g : sgroup) =
  let decls =
    (match g.g_set with
    | Some n ->
        Printf.sprintf "#pragma commset decl %s %s" n
          (match g.g_kind with Ast.Self_set -> "self" | Ast.Group_set -> "group")
        :: (if g.g_pred then
              [ Printf.sprintf "#pragma commset predicate %s (x1) (x2) (x1 != x2)" n ]
            else [])
    | None -> [])
    @ List.concat_map
        (fun (n, k, pred) ->
          Printf.sprintf "#pragma commset decl %s %s" n
            (match k with Ast.Self_set -> "self" | Ast.Group_set -> "group")
          :: (if pred then
                [ Printf.sprintf "#pragma commset predicate %s (x1) (x2) (x1 != x2)" n ]
              else []))
        g.g_extra_decls
  in
  let members =
    List.map
      (fun (c, refs) ->
        let where =
          match c.ckind with
          | Kfn f -> Printf.sprintf "on function '%s'" f
          | _ -> Printf.sprintf "line %d" c.cline
        in
        Printf.sprintf "%s: #pragma commset member %s" where
          (String.concat ", " (refs_strings refs)))
      g.g_members
  in
  decls @ members

let suggestion_of ~speedup ~recommended (g : sgroup) =
  {
    sg_set = g.g_set;
    sg_kind = g.g_kind;
    sg_predicate = (if g.g_pred then Some "x1 != x2" else None);
    sg_members = List.map member_of g.g_members;
    sg_pragmas = pragma_lines g;
    sg_speedup = speedup;
    sg_recommended = recommended;
  }

(* ---- diagnostics ---------------------------------------------------- *)

let synth_diags probe (cands : cand list) (survivors : cand list) ~baseline ~bundle
    ~hand =
  let viable c =
    match Hashtbl.find_opt probe.selfs c.cid with
    | Some i -> i.ok_distinct
    | None -> false
  in
  let alive c = List.exists (fun s -> s.cid = c.cid) survivors in
  let cs015 =
    (* pairs of independently sound candidates no predicate in the
       lattice can reconcile *)
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a.cid >= b.cid || not (viable a && viable b) then None
            else
              match pair_info probe a.cid b.cid with
              | Some i when (not i.ok_same) && not i.ok_distinct ->
                  Some
                    (Diag.diagnostic ~code:"CS015" Diag.Warning_sev Loc.dummy
                       (Printf.sprintf
                          "no sound commutativity condition found for %s ~ %s: %s"
                          a.cdesc b.cdesc i.why))
              | _ -> None)
          cands)
      cands
  in
  let cs015_self =
    List.filter_map
      (fun c ->
        match Hashtbl.find_opt probe.selfs c.cid with
        | Some i when not i.ok_distinct ->
            Some
              (Diag.diagnostic ~code:"CS015" Diag.Warning_sev Loc.dummy
                 (Printf.sprintf
                    "no sound commutativity condition found for %s ~ itself: %s"
                    c.cdesc i.why))
        | _ -> None)
      (List.filter (fun c -> not (alive c)) cands)
  in
  let cs016 =
    match hand with
    | Some h when bundle < h -. 0.25 ->
        [
          Diag.diagnostic ~code:"CS016" Diag.Warning_sev Loc.dummy
            (Printf.sprintf
               "synthesized annotations are weaker than the hand-written ones \
                (predicted %.2fx vs %.2fx at 8 threads)"
               bundle h);
        ]
    | _ -> []
  in
  ignore baseline;
  cs015 @ cs015_self @ cs016

(* ---- entry point ---------------------------------------------------- *)

let suggest ?(name = "input") ?(setup = fun _ -> ()) ?(rank_individual = true)
    ?(min_speedup = 0.) (source : string) : result =
  let ast0 = Parser.parse_program ~file:name source in
  let had_pragmas = Strip.count_pragmas ast0 > 0 in
  let stripped_src = Pretty.program_to_string (Strip.strip_program ast0) in
  (* reparse so candidate locations live in the stripped coordinates *)
  let ast = Parser.parse_program ~file:name stripped_src in
  let c0 = P.compile ~name:(name ^ ".stripped") ~setup ~verify:false stripped_src in
  let baseline = best_speedup c0 in
  let hand =
    if had_pragmas then
      Some (best_speedup (P.compile ~name ~setup ~verify:false source))
    else None
  in
  let fname = c0.P.target.P.func.Ir.fname in
  let cands, iv = enumerate c0 ast in
  Log.info (fun m ->
      m "%s: %d candidate(s) in the hot loop of '%s'%s" name (List.length cands) fname
        (match iv with Some v -> Printf.sprintf ", induction variable '%s'" v | None -> ""));
  let probe = run_probe ~name ~setup ast ~fname cands in
  (* assemble, gate and score both coverage policies; keep the better *)
  let attempt mode = gate ~name ~setup ~fname ast mode probe ~iv cands in
  let score (cb, groups, _) =
    match (cb, groups) with Some cb, _ :: _ -> best_speedup cb | _ -> baseline
  in
  let pick =
    let ra = attempt Region_first in
    let sa = score ra in
    let same_selection =
      let ids m = List.map (fun c -> c.cid) (select m probe cands) in
      ids Region_first = ids Iface_first
    in
    if same_selection then (ra, sa)
    else
      let ia = attempt Iface_first in
      let si = score ia in
      if si > sa +. 1e-9 then (ia, si) else (ra, sa)
  in
  let (cb, groups, survivors), bundle = pick in
  let survivors =
    List.filter
      (fun c -> List.exists (fun g -> List.exists (fun (m, _) -> m.cid = c.cid) g.g_members) groups)
      survivors
  in
  let recommended = groups <> [] && bundle > baseline +. 0.05 in
  let below_min = min_speedup > 0. && bundle < min_speedup in
  let diags = synth_diags probe cands survivors ~baseline ~bundle ~hand in
  let diags =
    if below_min && groups <> [] then
      diags
      @ [
          Diag.diagnostic Diag.Warning_sev Loc.dummy
            (Printf.sprintf
               "verified bundle predicts %.2fx, below --min-speedup=%.2f; suggestions \
                suppressed"
               bundle min_speedup);
        ]
    else diags
  in
  let groups = if below_min then [] else groups in
  let suggestions =
    List.map
      (fun g ->
        let speedup =
          if not rank_individual then None
          else
            try
              let ssrc = Pretty.program_to_string (bundle_ast ast ~fname [ g ]) in
              Some
                (best_speedup
                   (P.compile ~name:(name ^ ".one") ~setup ~verify:false ssrc))
            with Diag.Error _ -> None
        in
        suggestion_of ~speedup ~recommended g)
      groups
  in
  let r_source =
    if groups = [] then stripped_src
    else Pretty.program_to_string (bundle_ast ast ~fname groups)
  in
  ignore cb;
  {
    r_name = name;
    r_baseline = baseline;
    r_bundle = bundle;
    r_hand = hand;
    r_suggestions = suggestions;
    r_diags = diags;
    r_source;
    r_stripped = stripped_src;
  }

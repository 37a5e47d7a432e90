(** Dynamic refutation of commutativity annotations by replay.

    The compile's one run, tapped, records per commset member a few
    dynamic instances: the live register file at region entry (or the
    argument values at an interface call), the concrete predicate
    actuals, and — for the first instances — a deep snapshot of the
    whole machine plus globals. Every pair the static checker left
    [Unknown] is then re-tried concretely: two recorded instances whose
    actuals the set's predicate admits are replayed in both orders on
    clones of the snapshot state, and the resulting machines are
    compared with {!Machine.obs_diff} (multiset semantics for
    order-insensitive sinks, renaming for handles). A divergence
    upgrades the pair to [Refuted] with a concrete witness; agreement
    leaves it [Unknown] — a passed trial is evidence, not proof.

    Return values are deliberately *not* compared: exchanging drawn
    values (packet ids, db rows, random numbers) between two admitted
    instances is exactly what COMMSET semantics permit.

    Pairs whose conflicts involve heap arrays the replay cannot snapshot
    faithfully (register files alias live arrays) are skipped; only
    members whose writes stay within globals, builtin resources and
    member-local allocations are eligible. *)

module Ir = Commset_ir.Ir
module Effects = Commset_analysis.Effects
module Metadata = Commset_core.Metadata
module Machine = Commset_runtime.Machine
module Precompile = Commset_runtime.Precompile
module Value = Commset_runtime.Value
module Concrete_eval = Commset_runtime.Concrete_eval
module Diag = Commset_support.Diag
module Pool = Commset_support.Pool

(* ---- trace recording ----------------------------------------------- *)

(** How to re-execute a recorded instance. *)
type body =
  | Bregion of { bfunc : Ir.func; bregion : Ir.region; bregs : Value.t array }
  | Bfun of { bfunc : Ir.func; bargs : Value.t list }

(** One recorded dynamic instance of a member. *)
type inv = {
  imember : Metadata.member;
  iactuals : (string * Value.t list) list;  (** concrete predicate actuals, per set *)
  ibody : body;
  iseq : int;
  isnap : (Machine.t * (string * Value.t) list) option;
      (** machine clone + deep copy of globals, taken just before the instance ran *)
}

let max_recorded = 8

let rec deep_value = function
  | Value.Varray a -> Value.Varray (Array.map deep_value a)
  | v -> v

(** Member instances recorded by the run a {!tap} observes. *)
type recording = { rc_md : Metadata.t; rc_prog : Ir.program; mutable rc_invs : inv list }

let recording ~md prepared = { rc_md = md; rc_prog = Precompile.program prepared; rc_invs = [] }

let instances rc = List.rev rc.rc_invs

let max_snapshots = 2

(** [o] extended to record into [rc] the member instances of the run
    [ex] executes; the first [max_snapshots] instances of each member
    get a full state snapshot. *)
let tap rc (ex : Precompile.exec) (o : Precompile.observer) : Precompile.observer =
  let md = rc.rc_md and prog = rc.rc_prog in
  let machine = Precompile.machine ex in
  let seq = ref 0 in
  let recorded : (Metadata.member, int) Hashtbl.t = Hashtbl.create 16 in
  let snapped : (Metadata.member, int) Hashtbl.t = Hashtbl.create 16 in
  let add member actuals body =
    let n = Option.value ~default:0 (Hashtbl.find_opt recorded member) in
    if n < max_recorded then begin
      Hashtbl.replace recorded member (n + 1);
      let ns = Option.value ~default:0 (Hashtbl.find_opt snapped member) in
      let isnap =
        if ns < max_snapshots then begin
          Hashtbl.replace snapped member (ns + 1);
          Some
            ( Machine.clone machine,
              List.map (fun (k, v) -> (k, deep_value v)) (Precompile.globals ex) )
        end
        else None
      in
      incr seq;
      rc.rc_invs <-
        { imember = member; iactuals = actuals; ibody = body; iseq = !seq; isnap }
        :: rc.rc_invs
    end
  in
  (* Named-block membership is established at the call site; carry the
     enables of the innermost active user call down to region entries. *)
  let pending = ref None in
  let stack = ref [] in
  let on_call (f : Ir.func) argv enables =
    let callee = f.Ir.fname in
    pending := Some (callee, enables);
    match (Metadata.interface_refs md callee, Ir.find_func prog callee) with
    | [], _ | _, None -> ()
    | refs, Some f ->
        let actuals =
          List.map
            (fun (sname, idxs) -> (sname, List.filter_map (fun k -> List.nth_opt argv k) idxs))
            refs
        in
        add (Metadata.Mfun callee) actuals (Bfun { bfunc = f; bargs = argv })
  in
  let on_enter (f : Ir.func) =
    let en = match !pending with Some (c, en) when c = f.Ir.fname -> en | _ -> [] in
    pending := None;
    stack := (f.Ir.fname, en) :: !stack
  in
  let on_region (func : Ir.func) (region : Ir.region) actuals regs =
    let body () = Bregion { bfunc = func; bregion = region; bregs = Array.copy regs } in
    (match region.Ir.rname with
    | Some bname -> (
        match !stack with
        | (fn, enables) :: _ when fn = func.Ir.fname -> (
            match List.assoc_opt bname enables with
            | Some set_actuals when set_actuals <> [] ->
                add (Metadata.Mnamed (func.Ir.fname, bname)) set_actuals (body ())
            | _ -> ())
        | _ -> ())
    | None -> ());
    if actuals <> [] || region.Ir.rname = None then
      add (Metadata.Mregion (func.Ir.fname, region.Ir.rid)) actuals (body ())
  in
  let o_region = Option.value o.on_region ~default:(fun _ _ _ _ -> ()) in
  let o_call = Option.value o.on_call ~default:(fun _ _ _ -> ()) in
  {
    o with
    on_region = Some (fun f r a regs -> o_region f r a regs; on_region f r a regs);
    on_enter = (fun f -> o.on_enter f; on_enter f);
    on_call = Some (fun f argv en -> o_call f argv en; on_call f argv en);
    on_exit =
      (fun f ->
        o.on_exit f;
        match !stack with _ :: tl -> stack := tl | [] -> ());
  }

(* ---- eligibility ---------------------------------------------------- *)

(* Replays snapshot globals and the machine but not arbitrary heap
   arrays (register files alias the live run's arrays), so only members
   whose writes stay within snapshot-covered or member-local state can
   be replayed fairly. *)
let replayable_writes (s : Summary.t) =
  Effects.LocSet.for_all
    (function
      | Effects.Lglobal _ | Effects.Lext _ | Effects.Lheap (Effects.Slocal _) ->
          true
      | Effects.Lheap _ | Effects.Lunknown -> false)
    s.Summary.srw.Effects.writes

let eligible md m1 m2 =
  let s1 = Summary.of_member md m1 in
  let s2 = if m1 = m2 then s1 else Summary.of_member md m2 in
  replayable_writes s1 && replayable_writes s2

(* ---- replay --------------------------------------------------------- *)

let replay_fuel = 2_000_000

let exec_inv ex inv =
  match inv.ibody with
  | Bregion { bfunc; bregion; bregs } ->
      Precompile.run_region ex bfunc bregion (Array.copy bregs)
  | Bfun { bfunc; bargs } -> ignore (Precompile.run_func ex bfunc bargs)

(* Run [a] then [b] from a clone of the snapshot; returns the final
   machine and globals. *)
let replay prepared (snap_machine, snap_globals) a b =
  let m = Machine.clone snap_machine in
  let ex = Precompile.executor ~fuel:replay_fuel ~machine:m prepared in
  Precompile.set_globals ex (List.map (fun (k, v) -> (k, deep_value v)) snap_globals);
  exec_inv ex a;
  exec_inv ex b;
  (m, Precompile.globals ex)

let globals_diff g1 g2 =
  let l1 = List.sort compare g1 and l2 = List.sort compare g2 in
  if l1 = l2 then []
  else
    let assoc k l = List.assoc_opt k l in
    let keys =
      List.sort_uniq compare (List.map fst l1 @ List.map fst l2)
    in
    List.filter_map
      (fun k ->
        let v1 = assoc k l1 and v2 = assoc k l2 in
        if v1 = v2 then None
        else
          let show = function
            | Some v -> Value.to_display_string v
            | None -> "<absent>"
          in
          Some (Printf.sprintf "global '%s' (%s vs %s)" k (show v1) (show v2)))
      keys

(* ---- pair refutation ------------------------------------------------ *)

(* Is this concrete instance pair admitted by the set's predicate? *)
let admitted (info : Metadata.set_info) a b =
  match info.Metadata.predicate with
  | None -> true
  | Some p -> (
      match
        ( List.assoc_opt info.Metadata.sname a.iactuals,
          List.assoc_opt info.Metadata.sname b.iactuals )
      with
      | Some aa, Some ab
        when List.length aa = List.length p.Metadata.params1
             && List.length ab = List.length p.Metadata.params2 -> (
          try
            Concrete_eval.predicate_holds ~params1:p.Metadata.params1
              ~params2:p.Metadata.params2 ~actuals1:aa ~actuals2:ab
              p.Metadata.body
          with _ -> false)
      | _ -> false)

(** Try to refute one pair: returns the upgraded verdict (when a replay
    diverged) and the number of completed trials. *)
let refute_pair ~prepared ~max_trials invs (info : Metadata.set_info) m1 m2 ~pself :
    Verdict.t option * int =
  let invs1 = List.filter (fun i -> i.imember = m1) invs in
  let invs2 = List.filter (fun i -> i.imember = m2) invs in
  let candidates =
    List.concat_map
      (fun a ->
        match a.isnap with
        | None -> []
        | Some snap ->
            List.filter_map
              (fun b ->
                if pself && b.iseq = a.iseq then None else Some (a, snap, b))
              invs2)
      invs1
  in
  let trials = ref 0 in
  let verdict = ref None in
  List.iter
    (fun (a, snap, b) ->
      if !trials < max_trials && !verdict = None && admitted info a b then
        match
          (try
             let mab, gab = replay prepared snap a b in
             let mba, gba = replay prepared snap b a in
             Some (Machine.obs_diff mab mba @ globals_diff gab gba)
           with Precompile.Out_of_fuel | Diag.Error _ -> None)
        with
        | None -> ()
        | Some [] -> incr trials
        | Some diffs ->
            incr trials;
            verdict :=
              Some
                (Verdict.Refuted
                   {
                     Verdict.cx_source = Verdict.Dynamic;
                     cx_detail =
                       Printf.sprintf
                         "replayed recorded instances #%d and #%d in both \
                          orders from the same state: %s"
                         a.iseq b.iseq
                         (String.concat "; " diffs);
                   }))
    candidates;
  (!verdict, !trials)

(* ---- report refinement ---------------------------------------------- *)

let wanted md (report : Verdict.report) =
  List.exists
    (fun (p : Verdict.pair) ->
      match p.Verdict.pverdict with
      | Verdict.Unknown _ -> eligible md p.Verdict.pm1 p.Verdict.pm2
      | _ -> false)
    report.Verdict.rpairs

(** Re-try every eligible [Unknown] pair of [report] concretely from the
    recorded [instances], at most three trials a pair; [Refuted]
    upgrades carry a replay witness, surviving pairs keep their verdict
    with the trial count recorded. *)
let refine ~(prepared : Precompile.t) ~(md : Metadata.t)
    ~(instances : inv list) (report : Verdict.report) : Verdict.report =
  if not (wanted md report) then report
  else
    let refine_one (p : Verdict.pair) =
      match p.Verdict.pverdict with
      | Verdict.Unknown _ when eligible md p.Verdict.pm1 p.Verdict.pm2 -> (
          match Metadata.set_info md p.Verdict.pset with
          | None -> p
          | Some info ->
              let upgraded, trials =
                refute_pair ~prepared ~max_trials:3 instances info p.Verdict.pm1
                  p.Verdict.pm2 ~pself:p.Verdict.pself
              in
              let pverdict =
                match upgraded with Some v -> v | None -> p.Verdict.pverdict
              in
              { p with Verdict.pverdict; ptrials = trials })
      | _ -> p
    in
    { Verdict.rpairs = Pool.parmap refine_one report.Verdict.rpairs }

(** The end-to-end COMMSET parallelization pipeline (paper Figure 5):

    source → frontend → lowering → effect analysis → metadata manager →
    well-formedness checks → profiling (hot-loop selection) → PDG →
    COMMSET dependence analysis (Algorithm 1) → DOALL / DSWP / PS-DSWP
    plans with automatic concurrency control → simulated multicore
    execution with performance estimates, judged by the one output rule
    ({!Commset_exec.Equiv.check}) that also judges real and served runs.

    This module is the library's main public entry point. *)

module Ast = Commset_lang.Ast
module Parser = Commset_lang.Parser
module Tc = Commset_lang.Typecheck
module Ir = Commset_ir.Ir
module Lower = Commset_ir.Lower
module A = Commset_analysis
module Pdg = Commset_pdg.Pdg
module Pdg_builder = Commset_pdg.Builder
module Scc = Commset_pdg.Scc
module Metadata = Commset_core.Metadata
module Wellformed = Commset_core.Wellformed
module Dep_analysis = Commset_core.Dep_analysis
module T = Commset_transforms
module R = Commset_runtime
module V = Commset_verify
module Recorder = Commset_obs.Recorder
module Equiv = Commset_exec.Equiv
open Commset_support

type setup = R.Machine.t -> unit

type target = {
  func : Ir.func;
  cfg : A.Cfg.t;
  dom : A.Dominance.t;
  post : A.Dominance.post;
  loop : A.Loops.loop;
  induction : A.Induction.t;
  priv : A.Privatization.t;
  reaching : A.Reaching.t;
  pdg : Pdg.t;  (** annotated with uco/ico *)
  pdg_plain : Pdg.t;  (** identical PDG without commutativity annotations *)
  n_uco : int;
  n_ico : int;
}

(** Thread-count-independent planning inputs for one PDG, computed once
    at compile time and reused by every [plans] call of the sweep. *)
type plan_ctx = { reductions : Commset_pdg.Reduction.t list; scc : Scc.t }

type t = {
  name : string;
  source : string;
  ast : Ast.program;
  tcenv : Tc.t;
  prog : Ir.program;
  prepared : R.Precompile.t;
      (** prepared once; every interpreter run of this compilation
          (the compile's one run, the verifier's replays, CLI execution)
          shares it *)
  effects : A.Effects.t;
  md : Metadata.t;
  commset_graph : string Digraph.t;
  profile : R.Profile.t;
  target : target;
  trace : R.Trace.t;
  sync : T.Sync.t;
  sync_none : T.Sync.t;
  commutative : string -> bool;
      (** output lines some commset member emitted in the trace: the
          commset classifier {!judge} hands {!Equiv.check} *)
  plan_ctx_comm : plan_ctx;
  plan_ctx_plain : plan_ctx;
  setup : setup;
  verification : V.Verdict.report option;
      (** per-pair commutativity verdicts, when compiled with [~verify:true] *)
}

type verdict = Equiv.verdict = Exact | Commutative_equal | Mismatch

type run = {
  plan : T.Plan.t;
  speedup : float;
  makespan : float;  (** whole-program simulated cycles *)
  fidelity : verdict;
  lock_contended : int;
  tx_aborts : int;
  timelines : (float * float * string) list array;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let fresh_machine setup () =
  let m = R.Machine.create () in
  setup m;
  m

(* The target loop's analyses, its two PDGs and its trace, built from
   the event log of the compile's one run. With [verify], the static
   pass runs too; its report comes back for {!V.Dynamic.refine}. *)
let build_target prog effects (lookup : A.Effects.lookup) md ~fname ~header ~prepared ~log
    ~verify : target * R.Trace.t * V.Verdict.report option =
  let func =
    match Ir.find_func prog fname with
    | Some f -> f
    | None -> Diag.error "internal: target function '%s' not found" fname
  in
  let cfg = A.Cfg.of_func func in
  let dom = A.Dominance.compute cfg in
  let post = A.Dominance.compute_post cfg in
  let loops = A.Loops.compute cfg dom in
  let loop =
    match A.Loops.find_by_header loops header with
    | Some l -> l
    | None -> Diag.error "internal: target loop at L%d not found in '%s'" header fname
  in
  let induction = A.Induction.compute func cfg dom loop in
  let priv = A.Privatization.compute effects lookup func loop in
  let reaching = A.Reaching.compute cfg loop in
  let input =
    {
      Pdg_builder.func;
      cfg;
      dom;
      post;
      loop;
      effects;
      lookup;
      priv;
      induction;
      reaching;
    }
  in
  let pdg = Pdg_builder.build input in
  let pdg_plain = Pdg_builder.build input in
  let static =
    if verify then
      Some
        (Recorder.with_span ~cat:"compile" "compile.verify" (fun () ->
             V.Static.run ~md ~target_fname:fname ~loop ~induction ()))
    else None
  in
  let trace = R.Trace.of_log prepared pdg log in
  R.Trace.apply_weights trace [ pdg; pdg_plain ];
  let n_uco, n_ico = Dep_analysis.annotate md pdg dom induction in
  ( {
      func;
      cfg;
      dom;
      post;
      loop;
      induction;
      priv;
      reaching;
      pdg;
      pdg_plain;
      n_uco;
      n_ico;
    },
    trace,
    static )

let src_log = Logs.Src.create "commset.pipeline" ~doc:"COMMSET parallelization workflow"

module Log = (val Logs.src_log src_log : Logs.LOG)

(** Compile a miniC source: all static stages plus one run of the
    program, on a fresh machine built by [setup], that profiles it, logs
    the events its trace is built from and, with [verify], records the
    verifier's replay instances. Stage progress is reported on the
    [commset.pipeline] log source (paper Figure 5's workflow). *)
let compile ?(name = "<program>") ?(setup : setup = fun _ -> ()) ?(verify = false)
    (source : string) : t =
  Recorder.with_span ~cat:"compile" "pipeline.compile" @@ fun () ->
  (* each Figure-5 stage gets its own flight-recorder span so traces
     show where compile time goes; [stage] is a no-op when disabled *)
  let stage n f = Recorder.with_span ~cat:"compile" n f in
  let lookup = R.Builtins.lookup_spec in
  Log.info (fun m -> m "[%s] frontend: parsing and type checking" name);
  let ast, tcenv =
    stage "compile.parse" @@ fun () ->
    let ast = Parser.parse_program ~file:name source in
    (ast, Tc.check ~externs:R.Builtins.extern_sigs ast)
  in
  Log.info (fun m -> m "[%s] lowering to IR" name);
  let prog = stage "compile.lower" (fun () -> Lower.lower_program ast) in
  Log.info (fun m -> m "[%s] effect analysis over %d function(s)" name
      (List.length prog.Ir.func_order));
  let effects = stage "compile.effects" (fun () -> A.Effects.analyze lookup prog) in
  Log.info (fun m -> m "[%s] COMMSET metadata manager and well-formedness checks" name);
  let md, commset_graph =
    stage "compile.metadata" @@ fun () ->
    let md = Metadata.build prog tcenv effects in
    (md, Wellformed.check md ~lookup)
  in
  Log.info (fun m -> m "[%s] preparing the program for execution" name);
  let prepared = stage "compile.prepare" (fun () -> R.Precompile.prepare prog) in
  Log.info (fun m -> m "[%s] profiling to select the hottest loop" name);
  (* the replay instances are recorded whatever the target: the static
     report that decides whether they are needed comes later *)
  let recording = if verify then Some (V.Dynamic.recording ~md prepared) else None in
  let profile, log =
    stage "compile.profile" (fun () ->
        R.Profile.run
          ?tap:(Option.map V.Dynamic.tap recording)
          ~machine:(fresh_machine setup ()) prepared)
  in
  let hottest =
    match R.Profile.hottest profile with
    | Some h -> h
    | None -> Diag.error "program '%s' has no loop to parallelize" name
  in
  Log.info (fun m ->
      m "[%s] target loop: %s at L%d (%.1f%% of execution)" name hottest.R.Profile.lr_func
        hottest.R.Profile.lr_header
        (100. *. hottest.R.Profile.lr_fraction));
  let target, trace, static =
    stage "compile.pdg" (fun () ->
        build_target prog effects lookup md ~fname:hottest.R.Profile.lr_func
          ~header:hottest.R.Profile.lr_header ~prepared ~log ~verify)
  in
  Log.info (fun m ->
      m "[%s] PDG built (%d nodes, %d edges); Algorithm 1: %d uco, %d ico" name
        (Array.length target.pdg.Pdg.nodes)
        (List.length target.pdg.Pdg.edges)
        target.n_uco target.n_ico);
  (* the classifier is built here, once, and not lazily: the simulator
     reads it from the domain pool *)
  let sync, commutative =
    stage "compile.sync" (fun () ->
        let sync = T.Sync.compute md target.pdg trace target.priv in
        (sync, Equiv.commutative_outputs ~sync ~trace))
  in
  Log.info (fun m -> m "[%s] synchronization engine: %d node(s) compiler-locked" name
      (Hashtbl.length sync.T.Sync.node_locks));
  let sync_none = T.Sync.none md in
  let verification =
    match static with
    | None -> None
    | Some report ->
      Log.info (fun m -> m "[%s] commutativity sanitizer: differencing + replay" name);
      let instances = Option.fold ~none:[] ~some:V.Dynamic.instances recording in
      let report =
        stage "compile.verify" (fun () -> V.Dynamic.refine ~prepared ~md ~instances report)
      in
      Log.info (fun m ->
          m "[%s] sanitizer verdicts: %d proved, %d unknown, %d refuted" name
            (V.Verdict.n_proved report) (V.Verdict.n_unknown report)
            (V.Verdict.n_refuted report));
      Some report
  in
  let plan_ctx_of pdg =
    stage "compile.planctx" @@ fun () ->
    {
      reductions = Commset_pdg.Reduction.detect pdg;
      scc = Scc.compute pdg ~edges:(Pdg.effective_edges pdg);
    }
  in
  {
    name;
    source;
    ast;
    tcenv;
    prog;
    prepared;
    effects;
    md;
    commset_graph;
    profile;
    target;
    trace;
    sync;
    sync_none;
    commutative;
    plan_ctx_comm = plan_ctx_of target.pdg;
    plan_ctx_plain = plan_ctx_of target.pdg_plain;
    setup;
    verification;
  }

let judge t ~commset actual =
  Equiv.check
    ~commutative:(if commset then t.commutative else fun _ -> false)
    ~reference:t.trace.R.Trace.seq_outputs ~actual

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(** All plans at a given thread count: COMMSET-enabled plans over the
    annotated PDG plus non-COMMSET baseline plans over the plain PDG.
    Reductions and SCCs are thread-count independent and come from the
    compile-time {!plan_ctx}, so a sweep over thread counts only pays
    for the schedulers themselves. *)
let plans t ~threads : T.Plan.t list =
  Recorder.with_span ~cat:"pipeline" "pipeline.plans" @@ fun () ->
  let comm =
    let pdg = t.target.pdg in
    let { reductions; scc } = t.plan_ctx_comm in
    T.Doall.plans ~reductions t.sync t.trace pdg ~threads ~uses_commset:true
    @ T.Dswp.plans pdg t.sync scc t.trace ~threads ~uses_commset:true
    @ T.Spec.plans t.md t.sync pdg ~threads ~uses_commset:true
  in
  let plain =
    let pdg = t.target.pdg_plain in
    let { reductions; scc } = t.plan_ctx_plain in
    T.Doall.plans ~reductions t.sync_none t.trace pdg ~threads ~uses_commset:false
    @ T.Dswp.plans pdg t.sync_none scc t.trace ~threads ~uses_commset:false
  in
  comm @ plain

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

let plan_pdg t (plan : T.Plan.t) =
  if plan.T.Plan.uses_commset then t.target.pdg else t.target.pdg_plain

(* The trace lowered for emission. Each public entry point builds it
   once and shares it read-only across its simulations; it is never
   kept in [t], where it would outlive the call that needs it. *)
let lower t =
  Recorder.with_span ~cat:"pipeline" "pipeline.lower" (fun () ->
      T.Emit.lower ~pdg:t.target.pdg t.trace)

(* one plan on a lowered trace; the emission comes back too, so the real
   engine can share its lock registry *)
let simulate_lowered ~record_timeline t low (plan : T.Plan.t) : run * T.Emit.t =
  Recorder.with_span ~cat:"pipeline" "pipeline.simulate" @@ fun () ->
  let emitted = T.Emit.emit ~plan ~pdg:(plan_pdg t plan) low in
  let result = T.Emit.simulate ~record_timeline ~plan emitted in
  let makespan = result.R.Sim.makespan +. t.trace.R.Trace.other_cost in
  ( {
      plan;
      speedup = t.trace.R.Trace.seq_total /. makespan;
      makespan;
      fidelity =
        judge t ~commset:plan.T.Plan.uses_commset
          (t.trace.R.Trace.outputs_before
          @ List.map snd result.R.Sim.outputs
          @ t.trace.R.Trace.outputs_after);
      lock_contended = result.R.Sim.lock_contended;
      tx_aborts = result.R.Sim.tx_aborts;
      timelines = result.R.Sim.timelines;
    },
    emitted )

let simulate ?(record_timeline = false) t (plan : T.Plan.t) : run =
  fst (simulate_lowered ~record_timeline t (lower t) plan)

let evaluate_lowered ~record_timeline t low plans : run list =
  Recorder.with_span ~cat:"pipeline" "pipeline.evaluate" @@ fun () ->
  Pool.parmap (fun plan -> fst (simulate_lowered ~record_timeline t low plan)) plans
  |> List.stable_sort (fun a b -> compare b.speedup a.speedup)

(** Simulate every plan at [threads]; sorted by speedup, best first.
    Simulations are independent, so they fan out over the domain pool;
    the sort key and the deterministic plan order make the result
    identical to the sequential path. *)
let evaluate ?(record_timeline = false) t ~threads : run list =
  evaluate_lowered ~record_timeline t (lower t) (plans t ~threads)

let best ?record_timeline t ~threads : run option =
  match evaluate ?record_timeline t ~threads with [] -> None | r :: _ -> Some r

(* ------------------------------------------------------------------ *)
(* Real execution                                                      *)
(* ------------------------------------------------------------------ *)

type exec_run = {
  xplan : T.Plan.t;
  xpredicted : float;  (** the simulator's speedup prediction for the same plan *)
  xstats : Commset_exec.Exec.stats;
  xfidelity : verdict;
}

(** Plans at [threads] the real backend can execute (TM and speculative
    plans stay simulator-only). *)
let executable_plans t ~threads : T.Plan.t list =
  List.filter
    (fun p -> Result.is_ok (Commset_exec.Exec.supported p))
    (plans t ~threads)

(** Execute a plan on real domains (Commset_exec) next to one simulation
    of the same plan, so predicted and measured speedups and verdicts
    arrive as a pair. *)
let run_parallel ?engine ?jobs ?attrib t (plan : T.Plan.t) : exec_run =
  Recorder.with_span ~cat:"pipeline" "pipeline.run_parallel" @@ fun () ->
  let predicted, emitted = simulate_lowered ~record_timeline:false t (lower t) plan in
  (* the real engine indexes the same lock registry the simulation used *)
  let xstats =
    Commset_exec.Exec.run ?engine ?jobs ?attrib ~plan ~pdg:(plan_pdg t plan) ~trace:t.trace
      ~locks:emitted.T.Emit.locks
      ~judge:(judge t ~commset:plan.T.Plan.uses_commset)
      ~prepared:t.prepared ~setup:t.setup ()
  in
  let xfidelity = xstats.Commset_exec.Exec.x_verdict in
  { xplan = plan; xpredicted = predicted.speedup; xstats; xfidelity }

(** Speedup curves: series name -> (threads, speedup) points, for thread
    counts 1..max_threads. Thread counts are evaluated on the
    domain pool; [precomputed] supplies run lists for thread counts that
    were already evaluated (e.g. the 8-thread runs the caller needed
    anyway), so no configuration is ever simulated twice. *)
let sweep ?(precomputed = []) t ~max_threads : (string * (int * float) list) list =
  Recorder.with_span ~cat:"pipeline" "pipeline.sweep" @@ fun () ->
  let counts = List.init (max 0 max_threads) (fun i -> i + 1) in
  let low = lower t in
  let runs_per_count =
    Pool.parmap
      (fun threads ->
        match List.assoc_opt threads precomputed with
        | Some runs -> (threads, runs)
        | None -> (threads, evaluate_lowered ~record_timeline:false t low (plans t ~threads)))
      counts
  in
  (* fold in ascending thread order: series appear in first-encounter
     order, exactly as the sequential loop produced them *)
  let table : (string, (int * float) list) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (threads, runs) ->
      List.iter
        (fun r ->
          let key = r.plan.T.Plan.series in
          if not (Hashtbl.mem table key) then order := key :: !order;
          let cur = Option.value ~default:[] (Hashtbl.find_opt table key) in
          (* keep the best plan per series per thread count *)
          match List.assoc_opt threads cur with
          | Some s when s >= r.speedup -> ()
          | _ ->
              Hashtbl.replace table key
                ((threads, r.speedup) :: List.remove_assoc threads cur))
        runs)
    runs_per_count;
  List.rev_map
    (fun key -> (key, List.sort compare (Hashtbl.find table key)))
    !order

(* ------------------------------------------------------------------ *)
(* Plan-cache keys; the benchmark's compile-and-plan pass             *)
(* ------------------------------------------------------------------ *)

(** A compile plus its best executable plan's simulated run. The daemon
    caches the compile alone; only the repository benchmark builds a
    [service], to measure and execute that plan. *)
type service = {
  sv_name : string;
  sv_compiled : t;
  sv_threads : int;  (** thread count [sv_best] was planned for *)
  sv_best : run option;
      (** strongest executable plan by simulated speedup; [None] when no
          plan the real backend supports exists at [sv_threads] *)
  sv_compile_s : float;  (** wall seconds the compile-time stages took *)
}

(** Content hash of a source text, the daemon's plan-cache key (with the
    workload name for by-name requests, whose set-up differs). Two
    sources differing in any byte (annotations included) get distinct
    entries. *)
let content_key source = Digest.to_hex (Digest.string source)

let prepare_service ?(name = "<service>") ?(setup : setup = fun _ -> ())
    ?(verify = false) ?(threads = 8) (source : string) : service =
  Recorder.with_span ~cat:"serve" "serve.prepare_service" @@ fun () ->
  let t0 = Commset_obs.Clock.now_ns () in
  let compiled = compile ~name ~setup ~verify source in
  (* the sort is stable, so among equal speedups the first executable
     plan wins, as it would among all plans *)
  let best =
    match
      evaluate_lowered ~record_timeline:false compiled (lower compiled)
        (executable_plans compiled ~threads)
    with
    | [] -> None
    | r :: _ -> Some r
  in
  let compile_s = (Commset_obs.Clock.now_ns () -. t0) /. 1e9 in
  { sv_name = name; sv_compiled = compiled; sv_threads = threads; sv_best = best;
    sv_compile_s = compile_s }

(* ------------------------------------------------------------------ *)
(* Fidelity gate (run --strict)                                       *)
(* ------------------------------------------------------------------ *)

type gate_verdict =
  | Gate_ok of float  (** worst relative gap over the gated runs *)
  | Gate_exceeded of (string * float) list
      (** (plan label, gap) for every run outside the band *)
  | Gate_skipped of string  (** why the gate did not apply *)

(** Predicted-vs-measured fidelity gate: every run's relative speedup
    gap [|predicted - measured| / measured] must stay within [band]
    (default {!Commset_runtime.Costmodel.fidelity_band}). Applies only
    when the machine is not oversubscribed — [cores >= jobs + 1], one
    core per worker domain plus the coordinator; otherwise measured
    speedups are time-slicing artifacts and the gate reports
    [Gate_skipped] (callers must print the skip visibly). *)
let fidelity_gate ~cores ~jobs ?band (runs : exec_run list) : gate_verdict =
  let band = match band with Some b -> b | None -> R.Costmodel.fidelity_band () in
  if cores < jobs + 1 then
    Gate_skipped
      (Printf.sprintf
         "%d core(s) for %d worker domain(s) + coordinator (oversubscribed)" cores jobs)
  else if runs = [] then Gate_skipped "no measured runs to gate"
  else begin
    let gap (r : exec_run) =
      let m = r.xstats.Commset_exec.Exec.x_measured_speedup in
      Float.abs (r.xpredicted -. m) /. Float.max 1e-9 m
    in
    let over =
      List.filter_map
        (fun r -> if gap r > band then Some (r.xplan.T.Plan.label, gap r) else None)
        runs
    in
    if over <> [] then Gate_exceeded over
    else Gate_ok (List.fold_left (fun acc r -> Float.max acc (gap r)) 0. runs)
  end

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** Count of COMMSET pragma annotations in the source. *)
let count_annotations source =
  String.split_on_char '\n' source
  |> List.filter (fun line ->
         let l = String.trim line in
         String.length l >= 7 && String.sub l 0 7 = "#pragma")
  |> List.length

(** Source lines of code (non-blank, non-comment-only). *)
let sloc source =
  String.split_on_char '\n' source
  |> List.filter (fun line ->
         let l = String.trim line in
         l <> "" && not (String.length l >= 2 && String.sub l 0 2 = "//"))
  |> List.length

(** Fraction of program cycles spent in the target loop. *)
let loop_fraction t =
  match R.Profile.hottest t.profile with
  | Some h -> h.R.Profile.lr_fraction
  | None -> 0.

(** COMMSET feature letters used (Table 2: PI, PC, C, I, S, G). *)
let features_used t : string list =
  let ast = t.ast in
  let has_region_members = ref false in
  let has_iface_members = ref false in
  let has_pred_iface = ref false in
  let has_pred_client = ref false in
  let has_self = ref false in
  let has_group = ref false in
  let predicated set = Tc.predicate t.tcenv set <> None in
  let kind set = Tc.set_kind t.tcenv set in
  let scan_ref ~client (r : Ast.commset_ref) =
    if r.Ast.set_name = "SELF" then has_self := true
    else begin
      (match kind r.Ast.set_name with
      | Some Ast.Self_set -> has_self := true
      | Some Ast.Group_set -> has_group := true
      | None -> ());
      if predicated r.Ast.set_name then
        if client then has_pred_client := true else has_pred_iface := true
    end
  in
  List.iter
    (fun (f : Ast.fundecl) ->
      List.iter
        (fun (p : Ast.pragma) ->
          match p.Ast.pdesc with
          | Ast.P_member refs ->
              has_iface_members := true;
              List.iter (scan_ref ~client:false) refs
          | _ -> ())
        f.Ast.fannots;
      Ast.iter_blocks
        (fun b ->
          List.iter
            (fun (p : Ast.pragma) ->
              match p.Ast.pdesc with
              | Ast.P_member refs ->
                  has_region_members := true;
                  List.iter (scan_ref ~client:true) refs
              | _ -> ())
            b.Ast.annots)
        f.Ast.body;
      Ast.iter_stmts
        (fun s ->
          match s.Ast.sdesc with
          | Ast.Pragma_stmt { Ast.pdesc = Ast.P_enable { sets; _ }; _ } ->
              has_region_members := true;
              List.iter (scan_ref ~client:true) sets
          | _ -> ())
        f.Ast.body)
    (Ast.functions ast);
  List.filter_map
    (fun (flag, name) -> if !flag then Some name else None)
    [
      (has_pred_iface, "PI");
      (has_pred_client, "PC");
      (has_region_members, "C");
      (has_iface_members, "I");
      (has_self, "S");
      (has_group, "G");
    ]

(** Names of the transform families applicable with COMMSET annotations. *)
let applicable_transforms t : string list =
  let pdg = t.target.pdg in
  let scc = t.plan_ctx_comm.scc in
  let doall = T.Doall.applicable pdg in
  let pipeline_plans = T.Dswp.plans pdg t.sync scc t.trace ~threads:8 ~uses_commset:true in
  let has_psdswp = List.exists T.Plan.is_psdswp pipeline_plans in
  let has_dswp =
    List.exists (fun (p : T.Plan.t) -> not (T.Plan.is_psdswp p)) pipeline_plans
  in
  List.filter_map
    (fun (flag, name) -> if flag then Some name else None)
    [ (doall, "DOALL"); (has_dswp, "DSWP"); (has_psdswp, "PS-DSWP") ]

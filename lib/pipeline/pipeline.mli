(** The end-to-end COMMSET parallelization pipeline (paper Figure 5) and
    the library's main public entry point:

    source → frontend → lowering → effect analysis → metadata manager →
    well-formedness checks → profiling (hot-loop selection) → PDG →
    Algorithm 1 → DOALL / (PS-)DSWP / speculative plans with automatic
    concurrency control → simulated multicore execution with performance
    estimates. Simulated, executed and served output is judged by one
    rule, {!judge}. *)

module Ast = Commset_lang.Ast
module Tc = Commset_lang.Typecheck
module Ir = Commset_ir.Ir
module A = Commset_analysis
module Pdg = Commset_pdg.Pdg
module Metadata = Commset_core.Metadata
module T = Commset_transforms
module R = Commset_runtime
module V = Commset_verify
open Commset_support

(** Prepares a fresh machine's input data (files, packets, database rows). *)
type setup = R.Machine.t -> unit

(** Analyses of the hottest loop. *)
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
    at compile time and reused by every {!plans} call of a sweep. *)
type plan_ctx = { reductions : Commset_pdg.Reduction.t list; scc : Commset_pdg.Scc.t }

(** A compiled program: every static stage plus one run of the program on
    the prepared-program engine, which profiles it and logs the events its
    trace is built from. *)
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
      (** the commset classifier, built once per compile: [true] for
          output lines some commset member emitted in the trace
          ({!Commset_exec.Equiv.commutative_outputs} under [sync]) *)
  plan_ctx_comm : plan_ctx;
  plan_ctx_plain : plan_ctx;
  setup : setup;
  verification : V.Verdict.report option;
      (** per-pair commutativity verdicts, when compiled with [~verify:true] *)
}

(** How a parallel run's output compares with the sequential run; named
    by {!Commset_exec.Equiv.verdict_to_string} and
    {!Commset_exec.Equiv.verdict_name}. *)
type verdict = Commset_exec.Equiv.verdict = Exact | Commutative_equal | Mismatch

type run = {
  plan : T.Plan.t;
  speedup : float;
  makespan : float;  (** whole-program simulated cycles *)
  fidelity : verdict;  (** {!judge} on the simulated output stream *)
  lock_contended : int;
  tx_aborts : int;
  timelines : (float * float * string) list array;
}

(** Compile a miniC source. Raises {!Diag.Error} on any frontend,
    metadata, well-formedness or runtime failure. With [~verify:true]
    the commutativity sanitizer also runs (static differencing plus
    dynamic replay) and its verdicts land in [verification]. *)
val compile : ?name:string -> ?setup:setup -> ?verify:bool -> string -> t

(** [judge t ~commset actual]: the one output rule, which judges
    simulated, executed and served output alike —
    {!Commset_exec.Equiv.check} of [actual] against the sequential
    output of the compile's run, with the [commutative] classifier when
    [commset] (COMMSET plans, served requests) and with none for
    baseline plans, which must print every line in sequential order. *)
val judge : t -> commset:bool -> string list -> verdict

(** All plans at a thread count: COMMSET-enabled plans over the annotated
    PDG plus non-COMMSET baseline plans over the plain PDG. *)
val plans : t -> threads:int -> T.Plan.t list

val simulate : ?record_timeline:bool -> t -> T.Plan.t -> run

(** Simulate every plan; sorted by speedup, best first. Independent
    simulations fan out over the {!Commset_support.Pool} domain pool;
    the result is identical to the sequential path. *)
val evaluate : ?record_timeline:bool -> t -> threads:int -> run list

val best : ?record_timeline:bool -> t -> threads:int -> run option

(** One plan executed on real OCaml domains (the {!Commset_exec}
    backend) beside one simulation of the same plan. *)
type exec_run = {
  xplan : T.Plan.t;
  xpredicted : float;  (** the simulator's speedup prediction *)
  xstats : Commset_exec.Exec.stats;
  xfidelity : verdict;  (** the executor's verdict, [xstats.x_verdict] *)
}

(** Plans at [threads] the real backend can execute; TM and speculative
    plans are simulator-only. *)
val executable_plans : t -> threads:int -> T.Plan.t list

(** Execute a plan on real domains with the mandatory output-equivalence
    check; raises a CS014 {!Diag.Error} on unsupported plans and on
    target loops the real engine cannot split. [engine] selects the
    realization (default: the interpreted real engine); [jobs] pins the
    worker-domain count (default: {!Commset_exec.Exec.default_jobs});
    [attrib] (default [true]) toggles the per-iteration attribution
    layer (the summary lands in [xstats.x_attrib]). *)
val run_parallel :
  ?engine:Commset_exec.Exec.engine ->
  ?jobs:int ->
  ?attrib:bool ->
  t ->
  T.Plan.t ->
  exec_run

(** Speedup curves: series name -> (threads, speedup) points for thread
    counts 1..[max_threads].
    [precomputed] supplies already-evaluated run lists per thread count
    (e.g. the 8-thread runs from {!evaluate}) so those configurations are
    not simulated a second time. *)
val sweep :
  ?precomputed:(int * run list) list ->
  t ->
  max_threads:int ->
  (string * (int * float) list) list

(** {2 Compile-time / serve-time split (daemon mode)}

    [commsetc serve] amortizes compilation across requests: a {!service}
    is the compile-time state (parse → verify → plan), keyed into the
    daemon's plan cache by {!content_key} (with the workload name for
    by-name requests); each request then runs
    {!Commset_exec.Exec.run_seq} on a fresh machine, safe to run
    concurrently from the warm pool's worker domains. *)

type service = {
  sv_name : string;
  sv_compiled : t;
  sv_threads : int;  (** thread count [sv_best] was planned for *)
  sv_best : run option;
      (** strongest executable plan by simulated speedup, if any; only
          the executable plans are simulated *)
  sv_compile_s : float;  (** wall seconds the compile-time stages took *)
}

(** Content hash (MD5, hex) of a source text. *)
val content_key : string -> string

val prepare_service :
  ?name:string -> ?setup:setup -> ?verify:bool -> ?threads:int -> string -> service

(** {2 Fidelity gate} *)

type gate_verdict =
  | Gate_ok of float  (** worst relative gap over the gated runs *)
  | Gate_exceeded of (string * float) list
      (** (plan label, gap) for every run outside the band *)
  | Gate_skipped of string  (** why the gate did not apply *)

(** Gate measured runs on the predicted-vs-measured fidelity band
    ({!Commset_runtime.Costmodel.fidelity_band} unless [band] is given):
    skipped (with the reason) when [cores < jobs + 1] — oversubscribed
    measurements are time-slicing artifacts. *)
val fidelity_gate : cores:int -> jobs:int -> ?band:float -> exec_run list -> gate_verdict

(* reporting helpers *)
val count_annotations : string -> int
val sloc : string -> int
val loop_fraction : t -> float

(** COMMSET feature letters used (Table 2: PI, PC, C, I, S, G). *)
val features_used : t -> string list

val applicable_transforms : t -> string list

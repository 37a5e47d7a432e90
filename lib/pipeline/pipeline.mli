(** The end-to-end COMMSET parallelization pipeline (paper Figure 5) and
    the library's main public entry point:

    source → frontend → lowering → effect analysis → metadata manager →
    well-formedness checks → profiling (hot-loop selection) → PDG →
    Algorithm 1 → DOALL / (PS-)DSWP / speculative plans with automatic
    concurrency control → simulated multicore execution with performance
    estimates and output-fidelity checks. *)

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

(** A compiled program: every static stage plus one profiling run and one
    tracing run (both on the prepared-program engine). *)
type t = {
  name : string;
  source : string;
  ast : Ast.program;
  tcenv : Tc.t;
  prog : Ir.program;
  prepared : R.Precompile.t;
      (** prepared once; every interpreter run of this compilation
          (profiling, tracing, verification, CLI execution) shares it *)
  effects : A.Effects.t;
  md : Metadata.t;
  commset_graph : string Digraph.t;
  profile : R.Profile.t;
  target : target;
  trace : R.Trace.t;
  sync : T.Sync.t;
  sync_none : T.Sync.t;
  plan_ctx_comm : plan_ctx;
  plan_ctx_plain : plan_ctx;
  setup : setup;
  verification : V.Verdict.report option;
      (** per-pair commutativity verdicts, when compiled with [~verify:true] *)
}

(** How a simulated schedule's output compares with the sequential run. *)
type output_fidelity = Exact | Multiset_equal | Mismatch

type run = {
  plan : T.Plan.t;
  speedup : float;
  makespan : float;  (** whole-program simulated cycles *)
  fidelity : output_fidelity;
  lock_contended : int;
  tx_aborts : int;
  timelines : (float * float * string) list array;
}

(** For people: [exact (deterministic)], [multiset-equal], [MISMATCH]. *)
val fidelity_to_string : output_fidelity -> string

(** The one machine-readable name every JSON document uses: [exact],
    [multiset-equal], [MISMATCH]. *)
val fidelity_name : output_fidelity -> string

(** Compile a miniC source. Raises {!Diag.Error} on any frontend,
    metadata, well-formedness or runtime failure. With [~verify:true]
    the commutativity sanitizer also runs (static differencing plus
    dynamic replay) and its verdicts land in [verification]. *)
val compile : ?name:string -> ?setup:setup -> ?verify:bool -> string -> t

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
  xfidelity : output_fidelity;  (** the executor's equivalence verdict *)
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

(** Speedup curves: series name -> (threads, speedup) points.
    [precomputed] supplies already-evaluated run lists per thread count
    (e.g. the 8-thread runs from {!evaluate}) so those configurations are
    not simulated a second time. *)
val sweep :
  ?min_threads:int ->
  ?precomputed:(int * run list) list ->
  t ->
  max_threads:int ->
  (string * (int * float) list) list

(** {2 Compile-time / serve-time split (daemon mode)}

    [commsetc serve] amortizes compilation across requests: a {!service}
    is the compile-time state (parse → verify → plan), keyed by
    {!content_key} into the daemon's plan cache, and {!serve_request} is
    the serve-time state — a fresh machine per request, safe to run
    concurrently from the warm pool's worker domains. *)

type service = {
  sv_key : string;  (** {!content_key} of the source text *)
  sv_name : string;
  sv_compiled : t;
  sv_threads : int;  (** thread count [sv_best] was planned for *)
  sv_best : run option;
      (** strongest executable plan by simulated speedup, if any *)
  sv_compile_s : float;  (** wall seconds the compile-time stages took *)
}

(** Content hash of a source text — the plan-cache key. *)
val content_key : string -> string

val prepare_service :
  ?name:string -> ?setup:setup -> ?verify:bool -> ?threads:int -> string -> service

(** Execute the service once on a fresh machine; returns the output
    stream. Concurrency-safe across domains. *)
val serve_request : service -> string list

(** The compile-time sequential reference stream (Equiv sampling). *)
val service_reference : service -> string list

(** Output classifier for {!Commset_exec.Equiv.check}. *)
val service_commutative : service -> string -> bool

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

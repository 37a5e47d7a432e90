(** Dynamic refutation of commutativity annotations: replay recorded
    member instances in both orders on cloned machine state and compare
    the outcomes. Upgrades [Unknown] pairs to [Refuted] with a concrete
    witness; never upgrades to [Proved] — a passed trial is evidence,
    not proof. *)

module Ir = Commset_ir.Ir
module Metadata = Commset_core.Metadata
module Machine = Commset_runtime.Machine
module Value = Commset_runtime.Value
module Precompile := Commset_runtime.Precompile

(** How to re-execute a recorded instance. *)
type body =
  | Bregion of { bfunc : Ir.func; bregion : Ir.region; bregs : Value.t array }
  | Bfun of { bfunc : Ir.func; bargs : Value.t list }

(** One recorded dynamic instance of a member. *)
type inv = {
  imember : Metadata.member;
  iactuals : (string * Value.t list) list;
  ibody : body;
  iseq : int;
  isnap : (Machine.t * (string * Value.t) list) option;
}

(** Member instances recorded by the run a {!tap} observes. *)
type recording

(** An empty recording; the first two instances of each member will
    carry a state snapshot. *)
val recording : md:Metadata.t -> Precompile.t -> recording

(** [tap rc ex o] extends the observer [o] to record member instances of
    the run [ex] executes, for {!Commset_runtime.Profile.run}'s [tap]:
    instances are recorded in the compile's one run, whatever its target
    loop, with no run of their own; replay runs them through
    {!Precompile.run_region} and {!Precompile.run_func}. *)
val tap : recording -> Precompile.exec -> Precompile.observer -> Precompile.observer

(** The recorded instances, in recording order. *)
val instances : recording -> inv list

(** Does the static report leave an [Unknown] pair that may be replayed
    fairly — both members' writes confined to snapshot-covered or
    member-local state — so that {!refine} uses the recorded instances? *)
val wanted : Metadata.t -> Verdict.report -> bool

(** Re-try every eligible [Unknown] pair of a static report concretely
    from recorded instances, at most three trials a pair; the report is
    returned as is unless {!wanted}. *)
val refine :
  prepared:Precompile.t ->
  md:Metadata.t ->
  instances:inv list ->
  Verdict.report ->
  Verdict.report

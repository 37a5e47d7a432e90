(** Dynamic refutation of commutativity annotations: replay recorded
    member instances in both orders on cloned machine state and compare
    the outcomes. Upgrades [Unknown] pairs to [Refuted] with a concrete
    witness; never upgrades to [Proved] — a passed trial is evidence,
    not proof. *)

module Ir = Commset_ir.Ir
module Metadata = Commset_core.Metadata
module Machine = Commset_runtime.Machine
module Value = Commset_runtime.Value

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

(** Run the prepared program once under instrumentation and record
    member instances with state snapshots; replay runs them through
    {!Commset_runtime.Precompile.run_region} and
    {!Commset_runtime.Precompile.run_func}. *)
val record :
  max_snapshots:int ->
  prepared:Commset_runtime.Precompile.t ->
  md:Metadata.t ->
  setup:(Machine.t -> unit) ->
  inv list

(** May this pair be replayed fairly (writes confined to snapshot-covered
    or member-local state)? *)
val eligible : Metadata.t -> Metadata.member -> Metadata.member -> bool

(** Try to refute one pair from recorded instances. *)
val refute_pair :
  prepared:Commset_runtime.Precompile.t ->
  max_trials:int ->
  inv list ->
  Metadata.set_info ->
  Metadata.member ->
  Metadata.member ->
  pself:bool ->
  Verdict.t option * int

(** Re-try every [Unknown] pair of a static report concretely. *)
val refine :
  ?max_snapshots:int ->
  ?max_trials:int ->
  prepared:Commset_runtime.Precompile.t ->
  md:Metadata.t ->
  setup:(Machine.t -> unit) ->
  Verdict.report ->
  Verdict.report

(** Structured difference residue of two member interleavings: one
    {!atom} per conflicting abstract location, describing exactly how
    the two orders [A;B] and [B;A] relate there. The residue is the
    obstruction to commutativity; the synthesizer picks predicates that
    make it vanish and the verifier folds it into verdicts. *)

module S = Commset_analysis.Symexec
module Effects = Commset_analysis.Effects

type divergence = { dloc : Effects.location; dv1 : S.sval; dv2 : S.sval }

type status =
  | Agree  (** provably equal final state *)
  | Benign  (** equal modulo observation equivalence (renaming/exchange) *)
  | Opaque  (** cannot be decided *)
  | Diverge of divergence  (** final stores provably differ *)

type atom = { rloc : Effects.location option; rstatus : status; rdetail : string }
type t = atom list

val rank : status -> int
val atom : ?loc:Effects.location -> status -> string -> atom

(** Worst status present; [Agree] when empty. *)
val worst : t -> status

(** Every atom is [Agree] or [Benign] — a sound annotation may claim it. *)
val clean : t -> bool

(** Every atom is [Agree] — exact store equality. *)
val exact : t -> bool

val divergence : t -> divergence option

(** One-line summary led by the most severe atom. *)
val describe : t -> string

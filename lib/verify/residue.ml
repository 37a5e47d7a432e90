(** Structured *difference residue* of two member interleavings.

    Differencing the final abstract stores of [A;B] and [B;A] no longer
    collapses straight to a verdict: each conflicting location
    contributes one {!atom} describing exactly how (or whether) the two
    orders disagree there. The residue as a whole is the obstruction to
    commutativity — an empty (or all-[Agree]) residue means the orders
    provably reach equal stores, a [Benign]-only residue means they
    agree modulo the paper's observation equivalence (handle renaming,
    exchanged cursor/RNG draws), and the first [Opaque] or [Diverge]
    atom names the location and reason commutativity could not be
    established. The synthesizer consumes residues to decide which
    membership claims (and which predicates) make the obstruction
    vanish; the verifier folds them into {!Verdict.t}s. *)

module S = Commset_analysis.Symexec
module Effects = Commset_analysis.Effects

(** A provable disagreement of the final stores: location plus the two
    symbolic final values ([dv1] for order B;A, [dv2] for A;B). *)
type divergence = { dloc : Effects.location; dv1 : S.sval; dv2 : S.sval }

(** How the two orders relate at one location. *)
type status =
  | Agree  (** provably equal final state *)
  | Benign  (** equal modulo observation equivalence (renaming/exchange) *)
  | Opaque  (** cannot be decided with the available structure *)
  | Diverge of divergence  (** the final stores provably differ *)

type atom = {
  rloc : Effects.location option;
      (** the conflicting location, when the disagreement is localized *)
  rstatus : status;
  rdetail : string;  (** human-readable reason *)
}

type t = atom list

let rank = function Agree -> 0 | Benign -> 1 | Opaque -> 2 | Diverge _ -> 3

let atom ?loc status detail = { rloc = loc; rstatus = status; rdetail = detail }

(** The worst status in the residue; an empty residue agrees. *)
let worst (r : t) =
  List.fold_left
    (fun acc a -> if rank a.rstatus > rank acc then a.rstatus else acc)
    Agree r

(** Clean residues are those a sound annotation may claim: every atom is
    [Agree] or [Benign]. *)
let clean r = rank (worst r) <= rank Benign

(** Exactly provable: every atom agrees outright. *)
let exact r = worst r = Agree

let divergence r =
  List.find_map
    (fun a -> match a.rstatus with Diverge d -> Some d | _ -> None)
    r

(* the most severe atom, for one-line summaries *)
let dominant (r : t) =
  List.fold_left
    (fun acc a ->
      match acc with
      | None -> Some a
      | Some b -> if rank a.rstatus > rank b.rstatus then Some a else acc)
    None r

let describe (r : t) =
  match dominant r with
  | None -> "no conflicting state"
  | Some a -> (
      let where =
        match a.rloc with
        | Some l -> Format.asprintf " at %a" Effects.pp_location l
        | None -> ""
      in
      match a.rstatus with
      | Agree -> a.rdetail
      | Benign -> a.rdetail
      | Opaque -> Printf.sprintf "%s%s" a.rdetail where
      | Diverge _ -> Printf.sprintf "final stores differ%s: %s" where a.rdetail)

(** Dominator and post-dominator trees (Cooper–Harvey–Kennedy iterative
    algorithm). Post-dominance runs on the reverse CFG with a virtual
    exit joining every [Ret] block. *)

module Ir = Commset_ir.Ir

type t

(** Dominator tree of a CFG rooted at its entry. *)
val compute : Cfg.t -> t

(** Immediate dominator; [None] for the root. *)
val idom : t -> Ir.label -> Ir.label option

(** Reflexive dominance: does the first label dominate the second? *)
val dominates : t -> Ir.label -> Ir.label -> bool

(** All dominators of a label, from itself up to the root. *)
val dominators : t -> Ir.label -> Ir.label list

type post

val compute_post : Cfg.t -> post

(** Reflexive post-dominance. *)
val post_dominates : post -> Ir.label -> Ir.label -> bool

(** The builtin (extern) functions of miniC: signatures for the type
    checker, effect specifications for the analyses, thread-safety and
    TM-safety flags for the synchronization engine, and implementations
    plus cost functions for the interpreter. The abstract resources each
    builtin touches are documented in the implementation. *)

module Ast = Commset_lang.Ast
module Effects = Commset_analysis.Effects
module Tc = Commset_lang.Typecheck

type impl = Machine.t -> Value.t list -> Value.t * float

type t = {
  id : int;  (** position in {!all}: dense, for per-run tables indexed by builtin *)
  name : string;
  params : Ast.ty list;
  ret : Ast.ty;
  spec : Effects.builtin_spec;
  thread_safe : bool;  (** internally synchronized (the paper's Lib mode) *)
  tm_safe : bool;  (** may execute inside a transaction *)
  impl : impl;
}

val all : t list
val find : string -> t option
val find_exn : string -> t

(** Effect lookup for the analyses. *)
val lookup_spec : Effects.lookup

(** Extern signatures for the type checker. *)
val extern_sigs : Tc.extern_sig list

(** Abstract resources a builtin touches (for Lib-mode locking). *)
val resources : t -> string list

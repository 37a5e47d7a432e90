(** Per-member effect summaries with operation classes, the input to the
    abstract-store differencing of {!Abstore}. Calls to user-defined
    functions are summarized transitively; structurally recognized
    patterns (read-modify-write array accumulation, deterministic global
    self-updates) upgrade otherwise-opaque writes; accesses to
    partitioned resources carry the partitioning *key* operand. A
    builtin's class and partition come from its descriptor. *)

module Ir = Commset_ir.Ir
module Effects = Commset_analysis.Effects
module Metadata = Commset_core.Metadata

(** How a write combines with a concurrent write to the same location. *)
type opclass =
  | Accum of string  (** commutative-associative accumulation *)
  | Multiset of string  (** append to an order-insensitive sink *)
  | Alloc of string  (** allocator bump; equal up to handle renaming *)
  | Cursor of string  (** shared-cursor advance; drawn values exchanged *)
  | Rng  (** pseudo-random stream draw *)
  | Advance of string
      (** deterministic self-update [g = f(g)] of one global: both
          orders leave [f(f(g))], per-instance results exchanged *)
  | Overwrite  (** last-writer-wins store *)
  | Opaque of string  (** no algebraic structure known *)

val opclass_to_string : opclass -> string

(** The class of a builtin's writes, from its descriptor. *)
val write_class : Commset_runtime.Builtins.t -> opclass

(** One abstract-store access of a member. *)
type access = {
  aloc : Effects.location;
  awrite : bool;
  aclass : opclass;
  avalue : Ir.operand option;  (** stored operand of a [Store_global] *)
  akey : Ir.operand option;
      (** sub-resource key, in the summarized function's own frame *)
}

(** Summary of one commset member. *)
type t = {
  smember : Metadata.member;
  sowner : string;  (** the function whose registers the body reads *)
  sacc : access list;
  srw : Effects.rw;
}

val of_member : Metadata.t -> Metadata.member -> t

(** The summary mentions state the engines cannot attribute precisely. *)
val has_unanalyzable : t -> bool

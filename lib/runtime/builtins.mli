(** The builtin (extern) functions of miniC, one descriptor each. Every
    layer reads its view of a builtin from this record — the type
    checker, the analyses, the verifier, the simulator's lock model and
    the real engine's routes — so adding a builtin is adding one record.
    The abstract resources each builtin touches are documented in the
    implementation. *)

module Ast = Commset_lang.Ast
module Effects = Commset_analysis.Effects
module Tc = Commset_lang.Typecheck

type impl = Machine.t -> Value.t list -> Value.t * float

(** How a builtin's writes combine with a concurrent write to the same
    resource, as the verifier's operation classes ([Verify.Summary.opclass]). *)
type wclass = Accum of string | Multiset of string | Alloc of string | Cursor of string
  | Rng | Overwrite | Opaque

(** What a call shares with calls on other domains, which is how a real
    engine worker runs it: directly; under the machine mutex (the default
    when a resource is declared; em3d's graph setters declare none but
    mutate machine tables); in iteration order, as its value depends on
    every earlier call; or as a bitmap allocation, release or access,
    which on a bitmap its iteration owns runs the function on the payload. *)
type sharing = Free | Shared | Ordered | Bitmap_alloc | Bitmap_free
  | Bitmap_access of (Bytes.t -> Value.t list -> Value.t)

type t = {
  id : int;  (** position in {!all}: dense, for per-run tables indexed by builtin *)
  name : string;
  params : Ast.ty list;
  ret : Ast.ty;
  spec : Effects.builtin_spec;  (** effects and update-family role *)
  resources : string list;  (** abstract resources read or written (Lib-mode locks) *)
  thread_safe : bool;  (** internally synchronized (the paper's Lib mode) *)
  tm_safe : bool;  (** may execute inside a transaction *)
  sharing : sharing;
  wclass : wclass;
  partition : (string * int) option;
      (** [(r, i)]: resource [r] splits into independent parts keyed by argument [i] *)
  injective : bool;  (** unary, and distinct arguments give distinct results *)
  arg_cost : (Value.t list -> float) option;
      (** the cost of a call from its arguments alone, when it follows from them *)
  impl : impl;  (** the value and the cost of a call *)
}

val all : t list
val find : string -> t option
val find_exn : string -> t

(** Effect lookup for the analyses. *)
val lookup_spec : Effects.lookup

(** Extern signatures for the type checker. *)
val extern_sigs : Tc.extern_sig list

(** The cost a route that defers or bypasses [impl] (a buffered update,
    a private bitmap) charges for a call: [arg_cost], which [impl]
    charges too. Raises [Invalid_argument] without one; every update
    writer and bitmap accessor has one. *)
val deferred_cost : t -> Value.t list -> float

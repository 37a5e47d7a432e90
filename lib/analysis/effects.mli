(** Memory effect analysis: every instruction is summarized by the sets
    of abstract locations it may read and write; function summaries
    compose bottom-up over the call graph. See DESIGN.md for the
    abstraction (builtin resource effects, name-based array provenance,
    iteration privatization). *)

module Ir = Commset_ir.Ir

(** Provenance of an array value. *)
type source =
  | Sglobal of string  (** arrays reachable from a global *)
  | Sparam of int  (** arrays passed via a parameter of the current function *)
  | Slocal of Ir.reg  (** arrays held in a local register (allocated inside) *)
  | Sunknown

type location =
  | Lglobal of string  (** a global variable cell *)
  | Lheap of source  (** elements of arrays with the given provenance *)
  | Lext of string  (** an abstract resource owned by a builtin *)
  | Lunknown  (** conservative top, conflicts with everything *)

module LocSet : Set.S with type elt = location
module SrcSet : Set.S with type elt = source

type rw = { reads : LocSet.t; writes : LocSet.t }

val rw_empty : rw
val rw_union : rw -> rw -> rw
val add_read : location -> rw -> rw
val add_write : location -> rw -> rw

(** A builtin's part in an order-free update family (see {!bufferable_updates}):
    none, an update returning unit, or an observer of the family's state. *)
type update_role = No_update | Update_writer of string | Update_reader of string

(** Effect specification of a builtin, supplied by the runtime. *)
type builtin_spec = {
  bs_reads : string list;  (** abstract resources read *)
  bs_writes : string list;  (** abstract resources written *)
  bs_reads_arrays : int list;  (** argument positions whose array elements are read *)
  bs_writes_arrays : int list;  (** argument positions whose array elements are written *)
  bs_allocates : bool;  (** the result is a freshly allocated array *)
  bs_update : update_role;
}

type lookup = string -> builtin_spec option

type prov = (Ir.reg, SrcSet.t) Hashtbl.t

val prov_of : prov -> Ir.reg -> SrcSet.t

(** Summary of one function's effects, in its own terms. *)
type summary = {
  sm_rw : rw;  (** effects with [Sparam] relative to this function *)
  sm_ret_prov : SrcSet.t;  (** provenance of the returned array, if any *)
  sm_ret_fresh : bool;  (** the returned array is freshly allocated inside *)
}

type t

(** Build effect summaries for every function, bottom-up over the call
    graph with a fixpoint for recursive cycles. *)
val analyze : lookup -> Ir.program -> t

val summary : t -> string -> summary option
val prov_of_func : t -> string -> prov option

(** Effects of one instruction of [fname], in that function's own terms. *)
val instr_rw : t -> fname:string -> Ir.instr -> rw

(** Effects of a set of instructions of [fname]. *)
val instrs_rw : t -> fname:string -> Ir.instr list -> rw

(** Instantiate an effect set expressed in a callee's own terms at a call
    site in [fname] with the given argument operands and destination. *)
val instantiate_rw :
  t -> fname:string -> args:Ir.operand list -> dst:Ir.reg option -> rw -> rw

(** May these two locations denote overlapping state? *)
val locs_conflict : location -> location -> bool

val sets_conflict : LocSet.t -> LocSet.t -> bool

(** Write/write, write/read or read/write overlap. *)
val conflict : rw -> rw -> bool

(** The locations of the first effect set involved in a conflict with the
    second. *)
val conflict_locs : rw -> rw -> LocSet.t

val pp_source : Format.formatter -> source -> unit
val pp_location : Format.formatter -> location -> unit
val pp_rw : Format.formatter -> rw -> unit

(** {2 Commutative-update classes}

    Any interleaving of a family's writers reaches the same final state
    {e provided} the updates are ultimately applied in one well-defined
    order, which the real engine's per-domain buffering with an
    iteration-ordered merge guarantees. [bufferable_updates] returns the
    families safe to buffer in a loop: a writer call reachable from
    [body] (through user callees), no same-family reader there, and no
    writer call using its result. *)
val bufferable_updates :
  lookup -> Ir.program -> Ir.func -> Ir.label list -> (string, unit) Hashtbl.t

(** The COMMSET metadata manager (paper §4.2): the registry of commsets
    (kind, predicate, nosync flag, global lock rank) and the resolution of
    the three member kinds — annotated regions, interface-level function
    members, and named optional blocks enabled at call sites — into the
    per-PDG-node membership *facets* consumed by Algorithm 1 and the
    synchronization engine. *)

module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast
module Effects = Commset_analysis.Effects
module Pdg = Commset_pdg.Pdg

type set_kind = Ast.set_kind = Self_set | Group_set

type predicate = { params1 : string list; params2 : string list; body : Ast.expr }

type set_info = {
  sname : string;
  kind : set_kind;
  predicate : predicate option;
  nosync : bool;
  rank : int;  (** global lock-acquisition order *)
}

(** Identity of a commset member. *)
type member =
  | Mregion of string * int  (** function name, region id *)
  | Mfun of string  (** interface-level membership *)
  | Mnamed of string * string  (** named block of a callee, enabled by a client *)

val member_to_string : member -> string

(** One member identity with its commset bindings and the portion of a
    node's memory effects it covers. *)
type facet = {
  fmember : member;
  fsets : (string * Ir.operand list) list;  (** set name, actual operands (caller terms) *)
  frw : Effects.rw;
}

type t = {
  sets : (string, set_info) Hashtbl.t;
  set_order : string list;
  members : (string, member list) Hashtbl.t;
  prog : Ir.program;
  tcenv : Commset_lang.Typecheck.t;
  effects : Effects.t;
}

val build : Ir.program -> Commset_lang.Typecheck.t -> Effects.t -> t

val set_info : t -> string -> set_info option
val set_info_exn : t -> string -> set_info
val sets_in_rank_order : t -> set_info list
val members_of : t -> string -> member list

(** Names of materialized SELF sets: [self_fun_set_name] names a
    function's ([Lower.self_region_set] a region's), and
    [is_materialized_self] recognizes either. *)
val self_fun_set_name : string -> string
val is_materialized_self : string -> bool

(** Interface membership of a function: set name and the parameter
    indices its predicate actuals bind to. *)
val interface_refs : t -> string -> (string * int list) list

(** The named region of a function, by exported name. *)
val named_region : t -> string -> string -> Ir.region option

(** Instructions belonging to a region of a function. *)
val region_instrs : Ir.func -> int -> Ir.instr list

(** Effects of a function's named block, instantiated at a call site. *)
val named_block_rw :
  t ->
  callee:string ->
  bname:string ->
  args:Ir.operand list ->
  dst:Ir.reg option ->
  caller:string ->
  Effects.rw

(** The call instruction and callee of a PDG node, when it is one. *)
val call_of_node : Pdg.node -> (Ir.instr * string) option

(** Membership facets of a PDG node in the given function. *)
val facets : t -> caller:string -> Pdg.node -> facet list

(** All commset names a node belongs to (for synchronization). *)
val node_sets : t -> caller:string -> Pdg.node -> string list

(** Three-address intermediate representation.

    A function is a CFG of basic blocks over virtual registers.
    Commutative COMMSET regions are lowered at *whole-block* granularity:
    entering or leaving an annotated source block always starts a fresh
    basic block, so a region is a set of blocks with a unique entry.
    Every instruction and block records its enclosing region ids. *)

open Commset_support

type reg = int
type label = int

type const = Cint of int | Cfloat of float | Cbool of bool | Cstring of string

type operand = Reg of reg | Const of const

type ty = Commset_lang.Ast.ty
type binop = Commset_lang.Ast.binop
type unop = Commset_lang.Ast.unop

type instr_desc =
  | Move of reg * operand
  | Binop of binop * ty * reg * operand * operand
      (** [ty] is the operand type (int/float/bool/string) *)
  | Unop of unop * ty * reg * operand
  | Load_global of reg * string
  | Store_global of string * operand
  | Load_index of reg * operand * operand  (** dst, array, index *)
  | Store_index of operand * operand * operand  (** array, index, value *)
  | Call of { dst : reg option; callee : string; args : operand list; enabled : enable list }

(** A named block of [callee] enabled into commsets at this call site
    (the paper's COMMSETNAMEDARGADD). *)
and enable = { en_block : string; en_sets : (string * operand list) list }

(** An [enable] pragma as recorded during lowering, before its predicate
    actuals are evaluated at each call site. *)
type enable_spec = { es_block : string; es_sets : (string * Commset_lang.Ast.expr list) list }

type instr = {
  iid : int;  (** unique within the function *)
  desc : instr_desc;
  iloc : Loc.t;
  iregions : int list;  (** enclosing region ids, innermost first *)
}

type terminator = Jump of label | Branch of operand * label * label | Ret of operand option

type block = {
  label : label;
  mutable instrs : instr list;
  mutable term : terminator;
  mutable bregions : int list;  (** region ids this block belongs to, innermost first *)
}

(** One lowered commutative region (an annotated source block): its
    commset references with actual operands evaluated at region entry
    ("SELF" references are materialized singleton self sets). *)
type region = {
  rid : int;
  rname : string option;  (** name when this is a COMMSETNAMEDBLOCK *)
  rrefs : (string * operand list) list;
  rentry : label;
  rloc : Loc.t;
}

type func = {
  fname : string;
  fparams : (ty * string) list;
  mutable param_regs : reg list;
  fret : ty;
  entry : label;
  blocks : (label, block) Hashtbl.t;
  mutable block_order : label list;  (** creation order; entry first *)
  reg_names : (reg, string) Hashtbl.t;  (** debug names for local-variable registers *)
  reg_types : (reg, ty) Hashtbl.t;
  mutable n_regs : int;
  mutable n_labels : int;
  mutable n_instrs : int;
  mutable fregions : region list;  (** creation order *)
  mutable loop_locals : (reg * Loc.t) list;
      (** array-typed locals declared inside loops; input to privatization *)
}

type program = {
  funcs : (string, func) Hashtbl.t;
  func_order : string list;
  prog_globals : (string * ty * const) list;  (** name, type, initial value *)
  source : Commset_lang.Ast.program;  (** the typed AST this was lowered from *)
}

(* accessors *)
val block : func -> label -> block
val blocks_in_order : func -> block list
val find_func : program -> string -> func option
val iter_instrs : func -> (block -> instr -> unit) -> unit
val instr_defs : instr -> reg list
val operand_uses : operand -> reg list
val instr_uses : instr -> reg list
val term_uses : terminator -> reg list
val successors : block -> label list
val find_region : func -> int -> region option
val callee_of : instr -> string option

(* printing *)
val const_to_string : const -> string
val operand_to_string : func -> operand -> string
val pp_instr : func -> Format.formatter -> instr -> unit
val pp_terminator : func -> Format.formatter -> terminator -> unit
val pp_func : Format.formatter -> func -> unit

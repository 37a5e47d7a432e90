(** Induction-variable detection and affine classification of operands —
    the input to the symbolic commutativity-predicate proof (§4.4).

    A *basic* induction variable is an int register updated exactly once
    per iteration by [r = r ± c]; operands are classified as affine
    functions [mul·iv + add] of a basic IV, loop-invariant, or unknown. *)

module Ir = Commset_ir.Ir

type iv = { iv_reg : Ir.reg; step : int }

type classification =
  | Affine of { iv : iv; mul : int; add : int }
  | Invariant
  | Unknown

type t

val compute : Ir.func -> Cfg.t -> Dominance.t -> Loops.loop -> t
val basic_ivs : t -> iv list

(** Classify an operand's value inside the loop, following chains of
    uniquely-defined registers up to a small depth. *)
val classify : t -> Ir.operand -> classification

(** The in-loop definitions of every register (shared with privatization). *)
val defs_table : Ir.func -> Loops.loop -> (Ir.reg, Ir.instr list) Hashtbl.t

(** The unique in-loop defining instruction of a register, if unique. *)
val unique_def : (Ir.reg, Ir.instr list) Hashtbl.t -> Ir.reg -> Ir.instr option

(** The reference interpreter: a tree-walking evaluator of IR programs
    with cycle accounting and the {!hooks} event stream, kept as the
    differential oracle of the prepared engine. Runtime failures raise
    {!Commset_support.Diag.Error} (division or modulo by zero and an
    index out of bounds with CS018);
    exhausting the fuel (charged per instruction and per block) raises
    {!Commset_runtime.Precompile.Out_of_fuel}. *)

module Ir = Commset_ir.Ir
module R := Commset_runtime

(** The reference event stream: every instruction, block entry, cost,
    builtin, output, call and return, in execution order. *)
type hooks = {
  mutable on_instr : Ir.func -> Ir.instr -> unit;
  mutable on_block : Ir.func -> Ir.label -> unit;
  mutable on_base_cost : float -> unit;
  mutable on_builtin : R.Builtins.t -> float -> unit;
  mutable on_output : string -> unit;
  mutable on_enter_func : Ir.func -> unit;
  mutable on_exit_func : Ir.func -> unit;
  mutable on_region_enter :
    Ir.func -> Ir.region -> (string * R.Value.t list) list -> R.Value.t array -> unit;
      (** fired on entry to a commutative region, with the predicate
          actuals of each of its commsets evaluated at that instant and
          the live register file (for replay, snapshot it) *)
  mutable on_call_actuals :
    Ir.instr -> R.Value.t list -> (string * (string * R.Value.t list) list) list -> unit;
      (** fired before a call to a user-defined function, with the
          evaluated argument values and, per COMMSETNAMEDARGADD enable on
          the call, the evaluated (block, set actuals) bindings *)
}

val null_hooks : unit -> hooks

type t = {
  prog : Ir.program;
  machine : R.Machine.t;
  globals : (string, R.Value.t) Hashtbl.t;
  hooks : hooks;
  region_entries : (string * Ir.label, Ir.region) Hashtbl.t;
  mutable fuel : int;
  mutable total_cost : float;
}

val create :
  ?hooks:hooks -> ?fuel:int -> ?machine:R.Machine.t -> Ir.program -> t

val exec_func : t -> Ir.func -> R.Value.t list -> R.Value.t option

(** Execute one commutative region of a function in isolation, from its
    entry block with the given register file, stopping when control
    leaves the region or the function returns. Does not re-fire
    [on_region_enter]. *)
val exec_region : t -> Ir.func -> R.Value.t array -> Ir.region -> unit

(** Run [main()] to completion; returns total simulated cycles. *)
val run_main : t -> float

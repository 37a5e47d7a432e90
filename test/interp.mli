(** The reference interpreter: a tree-walking evaluator of IR programs
    with cycle accounting and the {!Commset_runtime.Precompile.hooks}
    event stream, kept as the differential oracle of the prepared
    engine. Runtime failures raise {!Commset_support.Diag.Error};
    exhausting the fuel (charged per instruction and per block) raises
    {!Commset_runtime.Precompile.Out_of_fuel}. *)

module Ir = Commset_ir.Ir
module R := Commset_runtime

type t = {
  prog : Ir.program;
  machine : R.Machine.t;
  globals : (string, R.Value.t) Hashtbl.t;
  hooks : R.Precompile.hooks;
  region_entries : (string * Ir.label, Ir.region) Hashtbl.t;
  mutable fuel : int;
  mutable total_cost : float;
}

val create :
  ?hooks:R.Precompile.hooks -> ?fuel:int -> ?machine:R.Machine.t -> Ir.program -> t

val exec_func : t -> Ir.func -> R.Value.t list -> R.Value.t option

(** Execute one commutative region of a function in isolation, from its
    entry block with the given register file, stopping when control
    leaves the region or the function returns. Does not re-fire
    [on_region_enter]. *)
val exec_region : t -> Ir.func -> R.Value.t array -> Ir.region -> unit

(** Run [main()] to completion; returns total simulated cycles. *)
val run_main : t -> float

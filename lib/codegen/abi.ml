(** The versioned registration interface between the host process and a
    dynlinked compiled-iteration module.

    A generated module's last toplevel binding calls {!register} with
    the ABI version it was emitted against and its content-hash key;
    the loader ({!Build}) retrieves the registration with {!take}
    immediately after [Dynlink.loadfile_private] returns and validates
    both fields — a stale plugin (emitted by an older emitter against a
    changed [ctx]) is rejected and recompiled rather than trusted.

    Bump {!abi_version} whenever {!ctx} or the generated calling
    convention changes shape: the version participates in the cache key,
    so old cache entries are simply never looked up again. *)

module Value = Commset_runtime.Value
module Builtins = Commset_runtime.Builtins

(** Version 1: [ctx] record below, [iter_fn = ctx -> regs -> unit]. *)
let abi_version = 1

(** Everything a compiled iteration body needs from the executing
    worker. The closures are the same ones the interpreted path passes
    to {!Commset_runtime.Precompile.run_iteration} — compiled code and
    interpreted code drive identical lock/frontier/buffering machinery. *)
type ctx = {
  cg_globals : Value.t array;  (** executor-shared global value slots *)
  cg_gdefined : bool array;  (** executor-shared defined flags *)
  cg_node : int -> unit;
      (** node transition: called with the PDG node id of the next
          instruction group ([-1] = no node). Implements commset lock
          acquire/release and frontier awaits, exactly like the
          interpreted path's [on_instr]. *)
  cg_builtin : Builtins.t -> Value.t list -> has_dst:bool -> Value.t * float;
      (** every builtin call, at any nesting depth *)
  cg_charge : steps:int -> cost:float -> unit;
      (** flush locally-accounted fuel steps and simulated cycles into
          the worker state: called once as the iteration exits, normally
          or by an exception (the worker's totals are read only between
          iterations) *)
  cg_fuel_left : unit -> int;  (** worker fuel at iteration entry *)
}

type iter_fn = ctx -> Value.t array -> unit

(* The registration slot. Loading is serialized under {!Build}'s lock,
   and a plugin registers exactly once from its module initializer, so a
   single slot (not a table) is sufficient and keeps the plugin side
   trivial. *)
let pending : (int * string * iter_fn) option ref = ref None

(** Called by generated modules only. *)
let register ~version ~key fn = pending := Some (version, key, fn)

(** Retrieve and clear the registration left by the last loaded module. *)
let take () =
  let p = !pending in
  pending := None;
  p

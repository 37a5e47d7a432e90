(** Prepared-program execution layer: a one-time pass resolving an
    {!Ir.program} into an array-indexed, closure-threaded form, and the
    interpreter loops over it. Two loops: the fast loop carries every
    run (plain runs, the compile-time recorders' observed runs, the
    real engine's coordinator, workers' nested calls and the verifier's
    replay); [run_iteration] keeps its own target-depth loop. An
    observed run ({!run_observed}) reports block entries, calls,
    builtins and, on request, region and call actuals, once per block
    entry and once per event, never per instruction. Per instruction the
    fast loop makes one closure call (a binop on a register and a
    register or constant adds one more, to its operator) and one charge
    to an unboxed running total; comparisons return the shared
    {!Value.vtrue}/{!Value.vfalse}. What it still allocates is every
    [int] or [float] result (a boxed {!Value.t}) and, per builtin call,
    the argument list and the result pair.

    Contract: outputs, total cycles, diagnostics, fuel exhaustion point,
    and observed events are identical to the reference interpreter kept
    in [test/] as the oracle, on every program. Division or modulo by
    zero and an index out of bounds raise CS018. The differential tests
    in [test/test_precompile.ml] and [test/test_fuzz.ml] enforce this. *)

module Ir := Commset_ir.Ir

(** Raised when a run exhausts its fuel (charged per instruction and per
    block entry), so that a non-terminating program stops. *)
exception Out_of_fuel

val default_fuel : int

(** [fuel_guard f] runs [f ()], turning an escaping {!Out_of_fuel} into
    a CS017 diagnostic. Command and request boundaries wrap their work
    in it; the engines themselves keep raising {!Out_of_fuel}. *)
val fuel_guard : (unit -> 'a) -> 'a

(** A prepared program: immutable once built, safe to share across
    domains (each executor gets its own mutable state). *)
type t

val prepare : Ir.program -> t
val program : t -> Ir.program

(** One run of a prepared program: private machine, globals, fuel and
    cycle counter. The executor installs the machine's output sink. *)
type exec

val executor : ?fuel:int -> ?machine:Machine.t -> t -> exec

(** Run [main()] to completion; returns total simulated cycles. Raises
    the same {!Commset_support.Diag.Error}s / {!Out_of_fuel} as the
    reference interpreter. *)
val run_main : exec -> float

(** What an observed run reports beyond its effects, in the reference
    interpreter's event order. Output lines are not here: they go to
    the machine's {!Machine.emit} sink, which an observer may wrap. *)
type observer = {
  on_block : Ir.func -> Ir.label -> unit;
      (** at every block entry, after its fuel step (a jump to a label
          with no block reports the label, then raises [Not_found]) *)
  on_region :
    (Ir.func -> Ir.region -> (string * Value.t list) list -> Value.t array -> unit) option;
      (** after [on_block] of a commutative region's entry block: the
          predicate actuals of each of its commsets evaluated at that
          instant and the live register file (for replay, copy it) *)
  on_enter : Ir.func -> unit;  (** before a call or [main] binds its arguments *)
  on_call :
    (Ir.func -> Value.t list -> (string * (string * Value.t list) list) list -> unit) option;
      (** before [on_enter] of a call to a user function: the callee,
          the evaluated argument values and, per COMMSETNAMEDARGADD
          enable on the call, the evaluated (block, set actuals) *)
  on_exit : Ir.func -> unit;  (** after a call returns normally *)
  on_builtin : (Builtins.t -> float -> unit) option;
      (** after a builtin returns, with the cost it charged *)
}

(** Like {!run_main}, with [observer] told of every event, on the fast
    loop: {!total_cost} advances per instruction in reference order, so
    an observer reading it at an event sees the reference's total. The
    optional payloads are evaluated only when present. *)
val run_observed : exec -> observer -> float

val machine : exec -> Machine.t
val total_cost : exec -> float

(** Interpreter steps retired so far by this executor (block entries +
    instructions), derived from fuel accounting at zero hot-path cost.
    Also accumulated into the [interp.steps] metric once per run. *)
val steps : exec -> int

(** Live global bindings after (or during) a run, as the reference
    interpreter's globals hashtable would hold them — declared globals
    plus any undeclared names created by an executed store. *)
val globals : exec -> (string * Value.t) list

(** {2 Replay entries}

    Re-execute a recorded instance on a fresh executor (the verifier's
    dynamic replay), on the fast loop. *)

(** Replace every global binding with [bindings] (the shape {!globals}
    returns): names absent from the list become unbound. Raises
    [Not_found] for a name the program has no slot for. *)
val set_globals : exec -> (string * Value.t) list -> unit

(** Call a user function of the program with argument values (extra
    values are ignored, a missing one traps) and return its result. *)
val run_func : exec -> Ir.func -> Value.t list -> Value.t

(** Run one commutative region of a function of the program from its
    entry block with the given register file, until control leaves the
    region's blocks or the function returns. *)
val run_region : exec -> Ir.func -> Ir.region -> Value.t array -> unit

(** {2 Real-execution support}

    The real multicore backend ([Commset_exec]) splits one prepared
    program between a coordinator domain and worker domains: the
    coordinator runs the whole program but executes only the target
    loop's control backbone (the backward slice of the header condition,
    confined to the header and the single latch block), handing the live
    register file to [on_iter] at every continuing header entry; workers
    then run the full iteration body against the shared machine and
    global slots. *)

(** A compiled real-execution plan for one target loop. *)
type rtarget

(** Validate the loop shape and compute the coordinator's backbone.
    Returns [Error reason] when the loop cannot be split this way (the
    caller falls back to another engine): multiple latches, a header
    containing non-control work, a control slice escaping header+latch,
    a machine-writing builtin or user call in the slice, or a register
    written in the loop body and read after the loop. *)
val plan_real :
  t ->
  fname:string ->
  header:Ir.label ->
  latches:Ir.label list ->
  body:Ir.label list ->
  (rtarget, string) result

(** Instruction iids the coordinator executes inside the loop. *)
val rtarget_backbone : rtarget -> int list

(** Run [main()] with the target loop in dispatch mode, on the fast
    loop. [on_iter k regs] fires at every
    header entry that continues into the body — [regs] is the live
    register file, valid only for the duration of the callback (copy it
    to keep it). [on_loop_done] fires at every exit from the loop,
    before the epilogue resumes. Returns total simulated cycles of the
    coordinator's own work. *)
val run_main_real :
  exec ->
  rtarget ->
  on_iter:(int -> Value.t array -> unit) ->
  on_loop_done:(unit -> unit) ->
  float

(** A worker's private execution state (own fuel and cycle counter)
    sharing the executor's machine and global slot arrays. *)
type wstate

val worker_state : exec -> fuel:int -> wstate
val wstate_fuel_left : wstate -> int

(** Simulated cycles this worker has retired. *)
val wstate_total : wstate -> float

(** The executor-shared global slot arrays this worker writes through
    (value and defined-flag slots, indexed by {!global_slot}). Exposed
    for the codegen backend, whose compiled iteration bodies access the
    slots directly. *)
val wstate_globals : wstate -> Value.t array

val wstate_gdefined : wstate -> bool array

(** Retire [steps] fuel steps and [cost] simulated cycles in one batch.
    Compiled iteration bodies account locally and flush through here
    once, as the iteration exits; fuel totals stay identical to the
    interpreted path, cycle totals may differ in the last ulp (batched
    float accumulation). Allocates nothing. *)
val wstate_charge : wstate -> steps:int -> cost:float -> unit

(** {2 Typed iteration-body IR view (codegen input)}

    A read-only projection of the prepared form: original instructions
    paired with everything the prepare pass resolved — dense block
    indices, per-instruction static costs, global slots. The codegen
    backend translates from this view so its output agrees with the
    interpreter on block structure and accounting by construction. *)

type view_term =
  | Vjump of int
  | Vbranch of int * int * int  (** condition register, then-idx, else-idx *)
  | Vbranch_const of Value.t
      (** non-bool constant branch condition: traps like the reference *)
  | Vret_reg of int
  | Vret_const of Value.t
  | Vret_none
      (** Jump targets are block indices, or [-1 - label] for an edge to
          a label with no block (the trap stays behind the condition). *)

type view_block = {
  vb_label : Ir.label;
  vb_instrs : Ir.instr array;
  vb_costs : float array;  (** parallel static instruction costs *)
  vb_term : view_term;
}

type view_func = {
  vf_name : string;
  vf_nregs : int;  (** register-file length (the frame layout) *)
  vf_params : int array;  (** parameter registers, in order *)
  vf_entry : int;  (** entry block index *)
  vf_blocks : view_block array;
}

val view_func : t -> string -> view_func option

(** The target function's view plus the loop geometry [plan_real]
    validated: header and body-entry block indices and the per-block
    in-loop mask (workers execute exactly the in-loop blocks). *)
val rtarget_view : rtarget -> view_func

val rtarget_header : rtarget -> int
val rtarget_body_entry : rtarget -> int
val rtarget_in_loop : rtarget -> bool array

(** Dense slot index of a global name, as the prepare pass assigned it
    ([None] for names no instruction mentions). *)
val global_slot : t -> string -> int option

(** Whether the name is a declared global (loads never trap) as opposed
    to an undeclared name some store creates at run time. *)
val global_declared : t -> string -> bool

(** Execute one full iteration body, from the loop's body entry until a
    terminator re-enters the header. [on_instr] fires before every
    instruction at target-function depth (node tracking); [builtin]
    replaces every builtin call at any depth — implementations usually
    wrap [Builtins.impl] with locking, ordering, or buffering. [regs]
    must be a private copy of the register file passed to [on_iter].
    Raises a [Diag.Error] if the iteration returns or branches out of
    the loop. *)
val run_iteration :
  wstate ->
  rtarget ->
  on_instr:(Ir.instr -> unit) ->
  builtin:(Builtins.t -> Value.t list -> has_dst:bool -> Value.t * float) ->
  Value.t array ->
  unit

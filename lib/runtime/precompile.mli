(** Prepared-program execution layer: a one-time pass resolving an
    {!Ir.program} into an array-indexed, closure-threaded form, and two
    engines over it — a null-hooks fast path (zero dispatch, zero
    allocation per instruction) and an instrumented path firing the
    exact {!Interp.hooks} event stream of the reference interpreter.

    Contract: outputs, total cycles, diagnostics, fuel exhaustion point,
    and (instrumented) hook event streams are identical to {!Interp} on
    every program. The differential tests in [test/test_precompile.ml]
    and [test/test_fuzz.ml] enforce this. *)

(** A prepared program: immutable once built, safe to share across
    domains (each executor gets its own mutable state). *)
type t

val prepare : Commset_ir.Ir.program -> t
val program : t -> Commset_ir.Ir.program

(** One run of a prepared program: private machine, globals, fuel and
    cycle counter. Passing [?hooks] selects the instrumented engine;
    omitting it selects the allocation-free fast path. *)
type exec

val executor : ?hooks:Interp.hooks -> ?fuel:int -> ?machine:Machine.t -> t -> exec

(** Run [main()] to completion; returns total simulated cycles. Raises
    the same {!Commset_support.Diag.Error}s / {!Interp.Out_of_fuel} as
    the reference interpreter. *)
val run_main : exec -> float

(** Like {!run_main}, but hooks run block-grained: only [on_enter_func],
    [on_exit_func], [on_block] and [on_output] fire; per-instruction
    hooks ([on_instr], [on_base_cost], [on_builtin]) and actuals hooks
    ([on_region_enter], [on_call_actuals]) are skipped while
    {!total_cost} still advances per instruction in reference order.
    For block-grained observers (the profiler) this costs the same as
    the fast path. *)
val run_main_coarse : exec -> float

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
  header:Commset_ir.Ir.label ->
  latches:Commset_ir.Ir.label list ->
  body:Commset_ir.Ir.label list ->
  (rtarget, string) result

(** Instruction iids the coordinator executes inside the loop. *)
val rtarget_backbone : rtarget -> int list

val rtarget_nregs : rtarget -> int
val rtarget_fname : rtarget -> string

(** Run [main()] with the target loop in dispatch mode (fast path only;
    the executor's hooks are ignored). [on_iter k regs] fires at every
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
    Compiled iteration bodies account locally and flush through here at
    node transitions, builtin calls and iteration exit; fuel totals stay
    identical to the interpreted path, cycle totals may differ in the
    last ulp (batched float accumulation). *)
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
  vb_label : Commset_ir.Ir.label;
  vb_instrs : Commset_ir.Ir.instr array;
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
  on_instr:(Commset_ir.Ir.instr -> unit) ->
  builtin:(Builtins.t -> Value.t list -> has_dst:bool -> Value.t * float) ->
  Value.t array ->
  unit

(** Cost model of the simulated multicore (all values in simulated cycles).

    The constants are set by hand so that the *relative* behaviour of the
    paper's eight workloads is preserved: short contended critical
    sections favour spin locks over mutexes, software TM pays re-execution
    on conflict, pipeline communication costs tens of cycles per token,
    and blocking mutex handoffs pay a sleep/wakeup penalty (see DESIGN.md
    §7). *)

module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast

(* --- instruction costs ------------------------------------------------ *)

let instr_cost (d : Ir.instr_desc) =
  match d with
  | Ir.Move _ -> 1.0
  | Ir.Binop (op, ty, _, _, _) -> (
      match (op, ty) with
      | (Ast.Div | Ast.Mod), Ast.Tint -> 8.0
      | Ast.Div, Ast.Tfloat -> 12.0
      | _, Ast.Tfloat -> 3.0
      | _, Ast.Tstring -> 6.0
      | _, _ -> 1.0)
  | Ir.Unop _ -> 1.0
  | Ir.Load_global _ | Ir.Store_global _ -> 2.0
  | Ir.Load_index _ | Ir.Store_index _ -> 3.0
  | Ir.Call _ -> 5.0 (* call overhead; builtin/body costs are separate *)

let terminator_cost = 1.0

(* --- synchronization -------------------------------------------------- *)

type lock_flavor = Mutex | Spin | Libsafe

(** Cost of an uncontended acquire or release. A futex fast path makes an
    uncontended mutex slightly cheaper than a spin lock's atomic
    exchange+fence sequence; contention behaviour (below) reverses this. *)
let acquire_base = function Mutex -> 16.0 | Spin -> 26.0 | Libsafe -> 10.0

let release_base = function Mutex -> 12.0 | Spin -> 12.0 | Libsafe -> 8.0

(** Extra latency before a blocked thread obtains a released lock.
    Mutexes pay an OS sleep/wakeup; spin locks pay cache-line bouncing
    that grows with the number of spinners; thread-safe libraries use
    short internal critical sections. *)
let mutex_wakeup = 2800.0
let spin_handoff_base = 50.0

(* a knob the ablation benchmarks sweep; atomic so a sweep can retune it
   while the (parallel) evaluation harness reads it from worker domains
   without tearing *)
let spin_handoff_per_waiter = Atomic.make 45.0

let libsafe_handoff = 45.0

let handoff_penalty flavor ~n_waiters =
  match flavor with
  | Mutex -> mutex_wakeup
  | Spin ->
      spin_handoff_base
      +. (Atomic.get spin_handoff_per_waiter *. float_of_int (max 0 (n_waiters - 1)))
  | Libsafe -> libsafe_handoff

(* --- transactions ------------------------------------------------------ *)

let tx_begin_cost = 60.0
let tx_commit_cost = 80.0
let tx_abort_penalty = 250.0
let tx_max_retries = 64

(** Read/write-set instrumentation slows code executed inside a software
    transaction (the "kicking the tires of STM" effect). Tunable for the
    ablation benchmarks. *)
let tx_instrumentation_factor = Atomic.make 1.8

(* --- pipeline queues ---------------------------------------------------- *)

let queue_push_cost = 35.0
let queue_pop_cost = 35.0

(** Bounded queue capacity (tokens); tunable for the ablation benchmarks. *)
let queue_capacity = Atomic.make 32

(* --- real-execution realization ---------------------------------------- *)

(** The real multicore executor ([lib/exec]) takes its bounded-queue
    capacity from {!queue_capacity} and its lock flavors from
    {!lock_flavor}, so the simulator and the executor cannot silently
    drift apart on queue sizes. *)

(* Kept only for the repository benchmark's no-burns guard (see the
   interface); nothing in the library reads it. *)
let exec_ns_per_cycle_cell = Atomic.make 1.0
let exec_ns_per_cycle () = Atomic.get exec_ns_per_cycle_cell
let set_exec_ns_per_cycle v = Atomic.set exec_ns_per_cycle_cell (Float.max 0. v)

(* Relative predicted-vs-measured speedup gap the strict gate accepts
   (run --strict). *)
let fidelity_band_cell = Atomic.make (-1.0)

let fidelity_band () =
  let v = Atomic.get fidelity_band_cell in
  if v >= 0. then v
  else
    let v =
      match Sys.getenv_opt "COMMSET_FIDELITY_BAND" with
      | None | Some "" -> 0.5
      | Some s -> (
          match float_of_string_opt (String.trim s) with
          | Some f when f >= 0. && Float.is_finite f -> f
          | _ ->
              Commset_support.Diag.error ~code:"CS013"
                "invalid COMMSET_FIDELITY_BAND value '%s': expected a \
                 non-negative relative gap"
                s)
    in
    Atomic.set fidelity_band_cell v;
    v

(* --- builtin cost helpers ---------------------------------------------- *)

let per_byte = 0.3
let md5_cost_per_byte = 6.5
let trace_cost_per_byte = 9.0
let file_open_cost = 420.0
let file_close_cost = 300.0
let file_read_base = 150.0
let file_write_base = 500.0
let write_per_byte = 0.9
let print_cost = 320.0
let rng_cost = 14.0
let hist_cost = 24.0
let alloc_base = 90.0
let alloc_per_slot = 0.18
let collection_op_cost = 30.0
let db_read_cost = 210.0
let packet_dequeue_cost = 60.0
let log_write_base = 110.0

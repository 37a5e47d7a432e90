(** The compile's one observed run. It attributes inclusive simulated
    cycles to each basic block (callee time counted at the call site) and
    ranks the program's loops by execution share — the hot-loop
    selection step of the paper's workflow — and it logs the run's
    events, from which {!Trace.of_log} builds the chosen loop's trace
    without running the program again. *)

module Ir = Commset_ir.Ir

type loop_report = {
  lr_func : string;
  lr_header : Ir.label;
  lr_cost : float;
  lr_fraction : float;  (** share of total program cycles *)
  lr_depth : int;
}

type t = { reports : loop_report list; total : float }

(** The event log of one run: block entries (the function implied by
    enter/exit nesting), function entries and exits, builtins with their
    costs, output lines, region entries with their predicate actuals and
    user calls with their argument values, in run order. Events and
    costs are numbers in fixed 8K-element float chunks, which a replay
    hands back for later runs to reuse (at most 4 MB are kept); the rest
    goes to a payload stream. *)
type log

(** Run the prepared program once, observed on the fast loop: rank its
    loops by inclusive cost and log its events. Block costs accumulate
    in one float array per function, indexed by label and found once per
    call. Per block entry the run boxes one reading of
    {!Precompile.total_cost} and appends one number; per event it
    appends a number and at most a cost or a payload. [tap], given the run's
    executor and the profiler's observer, returns the observer the run
    uses: the verifier records its replay instances through it. *)
val run :
  ?tap:(Precompile.exec -> Precompile.observer -> Precompile.observer) ->
  ?machine:Machine.t ->
  Precompile.t ->
  t * log

(** The run's total simulated cycles. *)
val log_total : log -> float

(** Feed the logged events to the observer in run order, and the output
    lines to [on_output] where they were emitted. A region entry comes
    with an empty register file and a call with no enables: the log
    keeps neither. A log is replayed once: its chunks then go back for
    reuse, and a second replay raises [Invalid_argument]. *)
val replay : log -> Precompile.observer -> on_output:(string -> unit) -> unit

(** The hottest outermost loop — the parallelization target. *)
val hottest : t -> loop_report option

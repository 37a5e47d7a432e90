(** Monotonic time source for the flight recorder.

    Backed by [CLOCK_MONOTONIC] via the [bechamel.monotonic_clock] stubs,
    so recorded spans are immune to wall-clock adjustments. Times are returned as
    floats of nanoseconds: a double holds integral nanoseconds exactly up
    to 2^53 ns (~104 days of uptime), far beyond any recording session. *)

(** Current monotonic time in nanoseconds. *)
val now_ns : unit -> float

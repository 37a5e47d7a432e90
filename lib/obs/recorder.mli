(** The flight recorder: low-overhead span collection on per-domain
    buffers.

    Each domain that records gets its own fixed-capacity buffer (lazily
    created through [Domain.DLS] on first use), laid out as parallel
    unboxed arrays — recording a span is a handful of array stores on
    domain-local memory with {e no shared-heap allocation}. Spans follow
    stack discipline by construction ([with_span] is the only way to
    record), so every buffer's spans are well-nested per domain.

    When the recorder is disabled (the default), [with_span] is a single
    atomic-flag load followed by a direct call of the thunk: it touches
    no buffer, takes no clock reading, and allocates nothing
    ([test/test_obs.ml] asserts the zero-allocation property via a
    [Gc.minor_words] delta). Enable it with {!set_enabled} — the
    [commsetc trace] subcommand and the [COMMSET_TRACE] env hook do.

    Buffers are bounded: [COMMSET_TRACE_BUF] (default 32768 spans per
    domain) caps each buffer, and spans past capacity are counted in
    {!dropped_total} rather than recorded — a flight recorder must never
    grow without bound under tracing. *)

(** Whether spans are currently being recorded. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** [with_span ~cat name f] runs [f ()]; when the recorder is enabled,
    its wall-time window on the monotonic clock is recorded as a span
    named [name] on the calling domain's buffer (the span is recorded
    even if [f] raises). [cat] is the Chrome trace-event category
    (defaults to [""]). *)
val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a

(** One recorded span. [dom] is the recorder's dense domain slot (0 is
    the first domain that ever recorded); [depth] the nesting level at
    recording time; [sid] a process-unique id ([dom lsl 40 lor seq]).
    Times are monotonic-clock nanoseconds. *)
type span = {
  sid : int;
  dom : int;
  depth : int;
  name : string;
  cat : string;
  t0_ns : float;
  t1_ns : float;
}

(** Snapshot of every span recorded so far, ordered by domain slot then
    recording order. Call it from a quiescent point (after workers have
    joined): concurrent recorders may be mid-append on their own
    buffers. *)
val dump : unit -> span list

(** Spans discarded because some domain's buffer was full. *)
val dropped_total : unit -> int

(** Discard all recorded spans (buffers stay allocated); also resets
    the dropped count. For tests and benchmark legs. *)
val reset : unit -> unit

(** The one JSON layer: a value type, its printer, a strict parser
    (RFC 8259 grammar, no extensions) and a Chrome trace-event
    validator over it. Every machine-readable document the program
    writes is built as a {!t} and printed by {!to_string}.

    Strictness: no trailing commas, no comments, no [NaN]/[Infinity],
    no unquoted keys, duplicate keys within one object rejected, the
    whole input must be consumed. This is the in-repo acceptance gate
    for everything the exporters emit — if Perfetto or [about://tracing]
    would choke, so does this parser, in CI. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** in source order; keys unique *)

(** [int n] is [Num (float_of_int n)]. *)
val int : int -> t

(** [opt f x] is [f v] for [Some v] and [Null] for [None]. *)
val opt : ('a -> t) -> 'a option -> t

(** [to_string v] prints [v] as JSON. Strings escape the quote, the
    backslash and every control byte (other bytes pass through); an
    integral number below 2{^53} in magnitude prints without a
    fraction, any other finite number as the shortest decimal that
    reads back to the same float, and a non-finite number as [null] (a
    schema that needs a number then rejects it). The output is compact. With [~expand:d],
    containers nested less than [d] deep put each element on its own
    line, indented two spaces per level — a trace with one event per
    line, or a committed file reviewed as a diff. For any value with
    unique keys, [parse (to_string v) = Ok v] up to non-finite
    numbers. *)
val to_string : ?expand:int -> t -> string

val parse : string -> (t, string) result

(** Member lookup on an [Obj]; [None] on other constructors. *)
val member : string -> t -> t option

(** [validate_chrome_trace s] parses [s] strictly and checks it is a
    Chrome trace-event JSON object: a top-level object with a
    ["traceEvents"] array; every event an object with a one-character
    ["ph"] among [B E X i I C M], numeric ["pid"]/["tid"], a numeric
    ["ts"] (except metadata events), a non-negative ["dur"] on [X]
    events, a string ["name"] (except [E] events, where it is optional),
    and balanced [B]/[E] nesting per [(pid, tid)] track. Returns the
    number of events on success. *)
val validate_chrome_trace : string -> (int, string) result

(** Compiler diagnostics: errors and warnings carrying source locations.

    All front-end and analysis failures are reported through {!error},
    which raises {!Error}; drivers catch it once at the top level.
    Lint-style passes run under {!collect}, which accumulates many
    diagnostics instead of stopping at the first one. *)

type severity = Error_sev | Warning_sev

type diagnostic = {
  severity : severity;
  loc : Loc.t;
  code : string option;  (** stable machine-readable code, e.g. ["CS001"] *)
  message : string;
}

exception Error of diagnostic

val diagnostic : ?code:string -> severity -> Loc.t -> string -> diagnostic

(** [error ~loc ~code fmt ...] raises {!Error} with the formatted message. *)
val error : ?loc:Loc.t -> ?code:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [report d] appends [d] to the active {!collect} sink; outside of
    [collect] an error is raised and a warning is dropped. *)
val report : diagnostic -> unit

(** [warn ~loc ~code fmt ...] reports a warning diagnostic (see {!report}). *)
val warn : ?loc:Loc.t -> ?code:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** [collect f] runs [f ()] with an accumulation sink installed and
    returns every diagnostic reported, in order. A raised [Error] is
    captured as the final diagnostic instead of propagating. *)
val collect : (unit -> unit) -> diagnostic list

val pp_severity : Format.formatter -> severity -> unit
val pp : Format.formatter -> diagnostic -> unit
val to_string : diagnostic -> string

(** The JSON shape lint and suggest share:
    [{"severity", "code" (null when absent), "loc", "message"}]. *)
val to_json : diagnostic -> Commset_obs.Json_strict.t

(** [guard f] runs [f ()] and converts a raised diagnostic into [Error]. *)
val guard : (unit -> 'a) -> ('a, diagnostic) result

(** [message_of_exn e] renders a diagnostic exception for test assertions. *)
val message_of_exn : exn -> string option

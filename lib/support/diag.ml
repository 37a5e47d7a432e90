(** Compiler diagnostics: errors and warnings carrying source locations.

    All front-end and analysis failures are reported through [error], which
    raises [Error]. Drivers catch it once at the top level.

    Lint-style passes that want to surface many findings at once run under
    [collect], which installs an accumulation sink: [report]/[warn] append
    to it instead of raising, and a diagnostic raised inside the thunk is
    captured as the final entry rather than escaping. Diagnostics carry an
    optional stable code (["CS001"], ...) so tools can match on findings
    without parsing messages. *)

type severity = Error_sev | Warning_sev

type diagnostic = {
  severity : severity;
  loc : Loc.t;
  code : string option;  (** stable machine-readable code, e.g. ["CS001"] *)
  message : string;
}

exception Error of diagnostic

let diagnostic ?code severity loc message = { severity; loc; code; message }

let error ?(loc = Loc.dummy) ?code fmt =
  Format.kasprintf (fun message -> raise (Error (diagnostic ?code Error_sev loc message))) fmt

(* The sink is intentionally a plain ref: collection happens on the driver
   domain only; parallel workers never report through it. *)
let sink : diagnostic list ref option ref = ref None

(** [report d] appends [d] to the active [collect] sink. Outside of
    [collect], an error diagnostic is raised and a warning is dropped
    (warnings are only meaningful to accumulating consumers). *)
let report d =
  match !sink with
  | Some acc -> acc := d :: !acc
  | None -> ( match d.severity with Error_sev -> raise (Error d) | Warning_sev -> ())

let warn ?(loc = Loc.dummy) ?code fmt =
  Format.kasprintf (fun message -> report (diagnostic ?code Warning_sev loc message)) fmt

(** [collect f] runs [f ()] with an accumulation sink installed and returns
    every diagnostic reported, in order. A [Diag.Error] raised by [f] is
    captured as the final diagnostic instead of propagating, so one raising
    check does not hide the findings gathered before it. *)
let collect f =
  let acc = ref [] in
  let saved = !sink in
  sink := Some acc;
  Fun.protect
    ~finally:(fun () -> sink := saved)
    (fun () -> try f () with Error d -> acc := d :: !acc);
  List.rev !acc

let pp_severity ppf = function
  | Error_sev -> Fmt.string ppf "error"
  | Warning_sev -> Fmt.string ppf "warning"

let pp ppf d =
  match d.code with
  | Some c -> Fmt.pf ppf "%a: %a[%s]: %s" Loc.pp d.loc pp_severity d.severity c d.message
  | None -> Fmt.pf ppf "%a: %a: %s" Loc.pp d.loc pp_severity d.severity d.message

let to_string d = Fmt.str "%a" pp d

let to_json d =
  let module J = Commset_obs.Json_strict in
  J.Obj
    [
      ("severity", J.Str (Fmt.str "%a" pp_severity d.severity));
      ("code", J.opt (fun c -> J.Str c) d.code);
      ("loc", J.Str (Fmt.str "%a" Loc.pp d.loc));
      ("message", J.Str d.message);
    ]

(** [guard f] runs [f ()] and converts a raised diagnostic into [Error]. *)
let guard f = match f () with v -> Ok v | exception Error d -> (Error d : ('a, diagnostic) result)

(** [message_of_exn e] renders a diagnostic exception for test assertions. *)
let message_of_exn = function Error d -> Some d.message | _ -> None

(** The serve daemon's wire protocol: length-prefixed frames carrying
    strict-JSON payloads over a Unix-domain stream socket.

    Framing: each message is a 4-byte big-endian unsigned payload
    length followed by that many payload bytes. Frames above
    {!max_frame} are rejected — a corrupt or hostile length prefix
    must not make the daemon allocate gigabytes.

    Requests: [{"id": n, "workload": "name"}] runs a registered
    workload by name; [{"id": n, "source": "..."}] compiles and runs
    inline miniC source (keyed by content hash, so repeats hit the plan
    cache). Optional ["echo": true] asks for the full output stream in
    the response instead of just its digest.

    Responses: [{"id", "status": "ok"|"error", "workload", "cache":
    "hit"|"miss", "n_outputs", "digest", "queue_us", "service_us"}]
    plus ["outputs"] when echoed and ["error"] when failed. *)

(** Hard payload-size ceiling, bytes (16 MiB). *)
val max_frame : int

(** Blocking frame write (handles short writes and EINTR). Raises
    [Invalid_argument] above {!max_frame}; [Unix.Unix_error] on I/O
    failure. *)
val send_frame : Unix.file_descr -> string -> unit

(** Blocking frame read: [None] on clean EOF at a frame boundary.
    Raises [Failure] on a truncated frame or oversized length. *)
val recv_frame : Unix.file_descr -> string option

(** Incremental frame decoder for the daemon's non-blocking reads: feed
    raw chunks in, complete payloads come out. *)
module Framer : sig
  type t

  val create : unit -> t

  (** [feed t buf len] consumes [len] bytes from [buf]; returns the
      payloads of every frame completed by this chunk, in order.
      Raises [Failure] on an oversized length prefix. *)
  val feed : t -> bytes -> int -> string list
end

type request = {
  rq_id : int;
  rq_workload : string option;  (** registered workload name *)
  rq_source : string option;  (** inline miniC source *)
  rq_echo : bool;
}

val request_to_json : request -> string

(** Strict parse + shape check: exactly one of ["workload"] /
    ["source"] must be present, and a present ["id"] must be an integer
    below 2{^53} in magnitude (an absent one reads as 0). *)
val request_of_json : string -> (request, string) result

type response = {
  rs_id : int;
  rs_error : string option;  (** [None] = status ok *)
  rs_workload : string;
  rs_hit : bool;
  rs_n_outputs : int;
  rs_digest : string;  (** MD5 hex of the newline-joined output stream *)
  rs_outputs : string list option;  (** present iff the request echoed *)
  rs_queue_us : float;
  rs_service_us : float;
}

val response_to_json : response -> string

(** Same integer rule for ["id"] and ["n_outputs"]. *)
val response_of_json : string -> (response, string) result

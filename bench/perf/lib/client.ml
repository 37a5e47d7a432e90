(** The [commsetc serve] daemon as a child process, and a single-threaded
    client driving it over its Unix-domain socket with {!Proto} frames. *)

module Proto = Commset_serve.Proto
module J = Commset_obs.Json_strict

let now () = Commset_obs.Clock.now_ns () /. 1e9

type daemon = { pid : int; sock : string; status : string }

(** Start [exe serve --socket ... --jobs 1] with its status report going
    to a file in [dir]. The daemon's stdout (its report) is discarded and
    its stderr appended to [dir/daemon.log]. Cycle burns are pinned off
    and tracing is not inherited. *)
let spawn ~exe ~dir ~tag =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let status = Filename.concat dir (tag ^ ".status.json") in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not
             (List.exists
                (fun p -> String.starts_with ~prefix:p kv)
                [ "COMMSET_EXEC_NS_PER_CYCLE="; "COMMSET_TRACE=" ]))
    |> List.cons "COMMSET_EXEC_NS_PER_CYCLE=0"
    |> Array.of_list
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close log)
      (fun () ->
        Unix.create_process_env exe
          [| exe; "serve"; "--socket"; sock; "--jobs"; "1"; "--status-out"; status |]
          env devnull devnull log)
  in
  { pid; sock; status }

(** Connect to the daemon's socket, retrying while it starts up. *)
let connect d =
  let deadline = now () +. 30. in
  let rec attempt () =
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> failwith "serve daemon exited during start-up (see daemon.log)");
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline
      ->
        Unix.close fd;
        Unix.sleepf 0.01;
        attempt ()
  in
  attempt ()

(** Peak resident set of a live process, in MB ([VmHWM]). *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
              kb /. 1024.)
        else scan ()
      in
      scan ())

(** SIGKILL the daemon and reap it, for when a run is abandoned. *)
let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(** SIGTERM the daemon, wait for its drain and exit, and return its
    status report. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, st = Unix.waitpid [] d.pid in
  if st <> Unix.WEXITED 0 then failwith "serve daemon did not exit cleanly (see daemon.log)";
  let text = In_channel.with_open_bin d.status In_channel.input_all in
  Sys.remove d.status;
  match J.parse text with Ok v -> v | Error e -> failwith ("daemon status report: " ^ e)

(** One request's timeline, seconds on the monotonic clock. *)
type sample = {
  workload : string;
  intended : float;  (** when the schedule said to send it *)
  mutable sent : float;
  mutable received : float;  (** [nan] until the response arrives *)
  mutable response : Proto.response option;
}

(** Send [arrivals] ([(offset_s, workload)], offsets from now) as one
    open-loop stream over [fd], keeping at most [window] requests
    outstanding, and collect every response until all are in or
    [timeout_s] after the last scheduled send. Request ids start at
    [first_id]. A response that never arrives keeps [received = nan]. *)
let drive fd ~first_id ~window ~timeout_s (arrivals : (float * string) array) : sample array =
  let t0 = now () in
  let samples =
    Array.map
      (fun (at, w) ->
        { workload = w; intended = t0 +. at; sent = nan; received = nan; response = None })
      arrivals
  in
  let n = Array.length samples in
  let last_due = if n = 0 then t0 else samples.(n - 1).intended in
  let deadline = last_due +. timeout_s in
  let framer = Proto.Framer.create () in
  let buf = Bytes.create 65536 in
  let next = ref 0 and received = ref 0 in
  let on_payload payload =
    match Proto.response_of_json payload with
    | Ok r ->
        let i = r.Proto.rs_id - first_id in
        if i >= 0 && i < !next && samples.(i).response = None then begin
          samples.(i).received <- now ();
          samples.(i).response <- Some r;
          incr received
        end
    | Error _ -> ()
  in
  let pump timeout =
    match Unix.select [ fd ] [] [] (Float.max 0. timeout) with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> failwith "serve daemon closed the connection"
        | k -> List.iter on_payload (Proto.Framer.feed framer buf k))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while !received < n && now () < deadline do
    if !next < n && !next - !received < window then begin
      let s = samples.(!next) in
      let wait = s.intended -. now () in
      if wait > 0. then pump wait
      else begin
        s.sent <- now ();
        Proto.send_frame fd
          (Proto.request_to_json
             {
               Proto.rq_id = first_id + !next;
               rq_workload = Some s.workload;
               rq_source = None;
               rq_echo = false;
             });
        incr next
      end
    end
    else pump (Float.min 0.05 (deadline -. now ()))
  done;
  samples

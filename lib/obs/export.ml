(** Chrome trace-event exporters; see the interface. *)

type arg = Astr of string | Aint of int | Afloat of float

type event =
  | Complete of {
      pid : int;
      tid : int;
      name : string;
      cat : string;
      ts : float;
      dur : float;
      args : (string * arg) list;
    }
  | Instant of {
      pid : int;
      tid : int;
      name : string;
      cat : string;
      ts : float;
      args : (string * arg) list;
    }
  | Counter of { pid : int; tid : int; name : string; ts : float; series : (string * float) list }
  | Process_name of { pid : int; name : string }
  | Thread_name of { pid : int; tid : int; name : string }

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let of_recorder ?(pid = 0) (spans : Recorder.span list) : event list =
  match spans with
  | [] -> []
  | _ ->
      let base = List.fold_left (fun acc s -> min acc s.Recorder.t0_ns) infinity spans in
      let doms = List.sort_uniq compare (List.map (fun s -> s.Recorder.dom) spans) in
      Process_name { pid; name = "real time (monotonic clock)" }
      :: List.map (fun d -> Thread_name { pid; tid = d; name = Printf.sprintf "domain %d" d }) doms
      @ List.map
          (fun (s : Recorder.span) ->
            Complete
              {
                pid;
                tid = s.Recorder.dom;
                name = s.Recorder.name;
                cat = (if s.Recorder.cat = "" then "span" else s.Recorder.cat);
                ts = (s.Recorder.t0_ns -. base) /. 1e3;
                dur = (s.Recorder.t1_ns -. s.Recorder.t0_ns) /. 1e3;
                args = [ ("id", Aint s.Recorder.sid); ("depth", Aint s.Recorder.depth) ];
              })
          spans

let of_attrib ?(pid = 0) ?base_ns (s : Attrib.summary) : event list =
  let samples = List.filter (fun (_, a) -> Array.length a > 0) s.Attrib.a_samples in
  match samples with
  | [] -> []
  | _ ->
      let base =
        match base_ns with
        | Some b -> b
        | None ->
            List.fold_left (fun acc (_, a) -> min acc a.(0).Attrib.s_t_ns) infinity samples
      in
      let counter wi (sm : Attrib.sample) =
        Counter
          {
            pid;
            tid = 1000 + wi;
            name = Printf.sprintf "attrib worker %d (ms)" wi;
            ts = (sm.Attrib.s_t_ns -. base) /. 1e3;
            series =
              [
                ("dispatch_wait", sm.Attrib.s_dispatch /. 1e6);
                ("lock_wait", sm.Attrib.s_lock /. 1e6);
                ("frontier_wait", sm.Attrib.s_frontier /. 1e6);
                ("builtin", sm.Attrib.s_builtin /. 1e6);
                ("compute", sm.Attrib.s_compute /. 1e6);
              ];
          }
      in
      List.concat_map
        (fun (wi, a) ->
          Thread_name { pid; tid = 1000 + wi; name = Printf.sprintf "attrib worker %d" wi }
          :: List.map (counter wi) (Array.to_list a))
        samples

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let of_sim_timelines ~pid ~name (timelines : (float * float * string) list array) : event list
    =
  let events = ref [] in
  Array.iteri
    (fun tid intervals ->
      events := Thread_name { pid; tid; name = Printf.sprintf "sim thread %d" tid } :: !events;
      List.iter
        (fun (start, stop, tag) ->
          let cat =
            if has_prefix ~prefix:"wait:" tag then "wait"
            else if has_prefix ~prefix:"abort:" tag then "abort"
            else "sim"
          in
          events :=
            Complete { pid; tid; name = tag; cat; ts = start; dur = stop -. start; args = [] }
            :: !events)
        intervals)
    timelines;
  Process_name { pid; name = Printf.sprintf "virtual clock: %s" name } :: List.rev !events

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

module J = Json_strict

let event_json ev =
  let head ph ~pid ~tid name =
    [ ("ph", J.Str ph); ("pid", J.int pid); ("tid", J.int tid); ("name", J.Str name) ]
  in
  let args = function
    | [] -> []
    | args ->
        let arg = function Astr s -> J.Str s | Aint n -> J.int n | Afloat v -> J.Num v in
        [ ("args", J.Obj (List.map (fun (k, a) -> (k, arg a)) args)) ]
  in
  J.Obj
    (match ev with
    | Complete { pid; tid; name; cat; ts; dur; args = a } ->
        head "X" ~pid ~tid name
        @ [ ("cat", J.Str cat); ("ts", J.Num ts); ("dur", J.Num (Float.max 0. dur)) ]
        @ args a
    | Instant { pid; tid; name; cat; ts; args = a } ->
        head "i" ~pid ~tid name
        @ [ ("cat", J.Str cat); ("ts", J.Num ts); ("s", J.Str "t") ]
        @ args a
    | Counter { pid; tid; name; ts; series } ->
        head "C" ~pid ~tid name
        @ (("ts", J.Num ts) :: args (List.map (fun (k, v) -> (k, Afloat v)) series))
    | Process_name { pid; name } ->
        head "M" ~pid ~tid:0 "process_name" @ args [ ("name", Astr name) ]
    | Thread_name { pid; tid; name } ->
        head "M" ~pid ~tid "thread_name" @ args [ ("name", Astr name) ])

(* one event per line *)
let chrome_json (events : event list) : string =
  J.to_string ~expand:2
    (J.Obj
       [ ("traceEvents", J.Arr (List.map event_json events)); ("displayTimeUnit", J.Str "ms") ])
  ^ "\n"

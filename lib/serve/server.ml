(** Daemon core; see the interface for the architecture. *)

module P = Commset_pipeline.Pipeline
module Exec = Commset_exec.Exec
module Workers = Commset_exec.Workers
module Clock = Commset_obs.Clock
module Recorder = Commset_obs.Recorder
module Metrics = Commset_obs.Metrics
module J = Commset_obs.Json_strict
module Diag = Commset_support.Diag
module Plan = Commset_transforms.Plan

let src_log = Logs.Src.create "commset.serve" ~doc:"Request-serving daemon"

module Log = (val Logs.src_log src_log : Logs.LOG)

type lookup = string -> (string * P.setup, string) result

type config = {
  s_jobs : int;
  s_cache_capacity : int;
  s_equiv_every : int;
  s_threads : int;
  s_lookup : lookup;
}

let default_config ~lookup =
  {
    s_jobs = Exec.default_jobs ();
    s_cache_capacity = 8;
    s_equiv_every = 100;
    s_threads = 8;
    s_lookup = lookup;
  }

(* per-worker task-ring capacity of the warm pool *)
let ring = 256

type load = { l_spec : Gen.spec; l_requests : int }

type latency = { p50_us : float; p95_us : float; p99_us : float; mean_us : float }

type workload_report = {
  wr_name : string;
  wr_key : string;
  wr_requests : int;
  wr_compile_s : float;
  wr_best_plan : string option;
  wr_predicted : float option;
}

type report = {
  r_offered : int;
  r_served : int;
  r_failed : int;
  r_duration_s : float;
  r_throughput_rps : float;
  r_offered_rate_rps : float option;
  r_jobs : int;
  r_cores : int;
  r_oversubscribed : bool;
  r_queue : latency;
  r_service : latency;
  r_total : latency;
  r_equiv_every : int;
  r_equiv_checked : int;
  r_equiv_failures : int;
  r_equiv_first_failure : string option;
  r_cache : Plancache.stats;
  r_pool : Commset_exec.Workers.stats;
  r_workloads : workload_report list;
  r_drained : bool;
  r_stopped_by : string;
  r_seed : int option;
  r_burst : float option;
  r_mix : (string * float) list;
  r_services : (string * P.service) list;
}

(* one flag per process: a daemon serves until told to drain *)
let stop = Atomic.make false
let request_stop () = Atomic.set stop true

let c_requests = Metrics.counter ~doc:"serve requests admitted" "serve.requests"
let c_equiv_checked = Metrics.counter ~doc:"serve Equiv samples" "serve.equiv_checks"
let c_equiv_failures = Metrics.counter ~doc:"serve Equiv mismatches" "serve.equiv_failures"

(** One cached compiled workload plus its serve-time counters. *)
type svc = {
  sv : P.service;
  served : int Atomic.t;
  tick : int Atomic.t;  (** Equiv sampling clock *)
}

type conn = {
  c_fd : Unix.file_descr;
  c_mu : Mutex.t;  (** serializes worker response writes and close *)
  c_framer : Proto.Framer.t;
  mutable c_closed : bool;
}

type kind = By_name of string | Inline of string

type pending = {
  q_id : int;
  q_kind : kind;
  q_echo : bool;
  q_enqueue_ns : float;
      (** generated requests carry their intended arrival time, so
          coordinator backpressure shows up as queue wait (open loop) *)
  q_conn : conn option;
}

type state = {
  cfg : config;
  cache : svc Plancache.t;
  pool : Workers.t;
  seen : (string, svc) Hashtbl.t;  (** every service ever compiled, by key *)
  seen_mu : Mutex.t;
  queue_h : Metrics.histogram;
  service_h : Metrics.histogram;
  total_h : Metrics.histogram;
  done_ok : int Atomic.t;
  done_err : int Atomic.t;
  equiv_checked : int Atomic.t;
  equiv_failures : int Atomic.t;
  first_failure : string option ref;
  fail_mu : Mutex.t;
}

(* ---------- request execution (worker domains) ---------- *)

(* [key] names what decides the compile: the source alone for an inline
   request, the workload name too for a by-name one, whose set-up the
   source does not show *)
let exec_source st ~key ~name ~setup source =
  match
    Commset_runtime.Precompile.fuel_guard @@ fun () ->
    Plancache.find_or_compile st.cache ~key ~compile:(fun () ->
        let sv = P.prepare_service ~name ~setup ~threads:st.cfg.s_threads source in
        let svc = { sv; served = Atomic.make 0; tick = Atomic.make 0 } in
        Mutex.lock st.seen_mu;
        Hashtbl.replace st.seen key svc;
        Mutex.unlock st.seen_mu;
        svc)
  with
  | svc, hit ->
      let c = svc.sv.P.sv_compiled in
      Ok (svc, hit, (Exec.run_seq ~prepared:c.P.prepared ~setup:c.P.setup).Exec.seq_outputs)
  | exception Diag.Error d -> Error (Diag.to_string d)
  | exception exn -> Error (Printexc.to_string exn)

let sample_equiv st name svc outputs =
  let every = st.cfg.s_equiv_every in
  if every > 0 && Atomic.fetch_and_add svc.tick 1 mod every = 0 then begin
    Atomic.incr st.equiv_checked;
    Metrics.incr c_equiv_checked;
    match P.judge svc.sv.P.sv_compiled ~commset:true outputs with
    | P.Exact | P.Commutative_equal -> ()
    | P.Mismatch ->
        Atomic.incr st.equiv_failures;
        Metrics.incr c_equiv_failures;
        Mutex.lock st.fail_mu;
        if !(st.first_failure) = None then
          st.first_failure :=
            Some
              (Printf.sprintf "%s: response stream diverged from the sequential reference"
                 name);
        Mutex.unlock st.fail_mu;
        Log.err (fun m -> m "Equiv mismatch on %s" name)
  end

let respond req resp =
  match req.q_conn with
  | None -> ()
  | Some conn ->
      Mutex.lock conn.c_mu;
      (if not conn.c_closed then
         try Proto.send_frame conn.c_fd (Proto.response_to_json resp)
         with _ -> conn.c_closed <- true (* peer went away; coordinator reaps the fd *));
      Mutex.unlock conn.c_mu

let handle st req =
  Recorder.with_span ~cat:"serve" "serve.request" @@ fun () ->
  let t_start = Clock.now_ns () in
  let queue_ns = Float.max 0. (t_start -. req.q_enqueue_ns) in
  let name, outcome =
    match req.q_kind with
    | By_name n -> (
        match st.cfg.s_lookup n with
        | Error msg -> (n, Error msg)
        | Ok (source, setup) ->
            (n, exec_source st ~key:(n ^ ":" ^ P.content_key source) ~name:n ~setup source))
    | Inline source ->
        let key = P.content_key source in
        let name = "inline:" ^ String.sub key 0 8 in
        (name, exec_source st ~key ~name ~setup:(fun _ -> ()) source)
  in
  (match outcome with
  | Ok (svc, _, outputs) ->
      Atomic.incr svc.served;
      sample_equiv st name svc outputs
  | Error _ -> ());
  let service_ns = Clock.now_ns () -. t_start in
  (* observe in µs, not ns: the log₂ histogram represents [2⁻³², 2³²),
     and a saturated daemon's queue waits overflow a 2³²-ns (~4.3 s)
     ceiling; 2³² µs (~71 min) does not *)
  Metrics.observe st.queue_h (queue_ns /. 1e3);
  Metrics.observe st.service_h (service_ns /. 1e3);
  Metrics.observe st.total_h ((queue_ns +. service_ns) /. 1e3);
  let base =
    {
      Proto.rs_id = req.q_id;
      rs_error = None;
      rs_workload = name;
      rs_hit = false;
      rs_n_outputs = 0;
      rs_digest = "";
      rs_outputs = None;
      rs_queue_us = queue_ns /. 1e3;
      rs_service_us = service_ns /. 1e3;
    }
  in
  match outcome with
  | Ok (_, hit, outputs) ->
      Atomic.incr st.done_ok;
      respond req
        {
          base with
          rs_hit = hit;
          rs_n_outputs = List.length outputs;
          rs_digest = Digest.to_hex (Digest.string (String.concat "\n" outputs));
          rs_outputs = (if req.q_echo then Some outputs else None);
        }
  | Error msg ->
      Atomic.incr st.done_err;
      Log.warn (fun m -> m "request %d (%s) failed: %s" req.q_id name msg);
      respond req { base with rs_error = Some msg }

(* ---------- coordinator ---------- *)

let close_conn conns conn =
  Mutex.lock conn.c_mu;
  if not conn.c_closed then begin
    conn.c_closed <- true;
    try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.c_mu;
  conns := List.filter (fun c -> c != conn) !conns

let run ?load ?socket cfg =
  if load = None && socket = None then
    invalid_arg "Server.run: need a generated load and/or a socket";
  Atomic.set stop false;
  let cfg = { cfg with s_jobs = max 1 cfg.s_jobs } in
  let st =
    {
      cfg;
      cache = Plancache.create ~capacity:(max 1 cfg.s_cache_capacity);
      pool = Workers.spawn ~ring ~jobs:cfg.s_jobs ();
      seen = Hashtbl.create 16;
      seen_mu = Mutex.create ();
      queue_h = Metrics.hist_make ();
      service_h = Metrics.hist_make ();
      total_h = Metrics.hist_make ();
      done_ok = Atomic.make 0;
      done_err = Atomic.make 0;
      equiv_checked = Atomic.make 0;
      equiv_failures = Atomic.make 0;
      first_failure = ref None;
      fail_mu = Mutex.create ();
    }
  in
  let listener =
    Option.map
      (fun path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 16;
        Log.info (fun m -> m "listening on %s" path);
        (fd, path))
      socket
  in
  let conns = ref [] in
  let gen = Option.map (fun l -> (Gen.create l.l_spec, ref (max 0 l.l_requests))) load in
  let submitted = ref 0 in
  let next_id = ref 0 in
  let t0 = Clock.now_ns () in
  let now_s () = (Clock.now_ns () -. t0) /. 1e9 in
  let admit ~id ~kind ~echo ~enqueue_ns ~conn =
    incr submitted;
    Metrics.incr c_requests;
    let req = { q_id = id; q_kind = kind; q_echo = echo; q_enqueue_ns = enqueue_ns; q_conn = conn } in
    Workers.submit st.pool (fun () -> handle st req)
  in
  (* one-arrival lookahead into the generator's schedule *)
  let pending_arrival = ref None in
  let fetch () =
    pending_arrival :=
      match gen with
      | Some (g, remaining) when !remaining > 0 ->
          decr remaining;
          Some (Gen.next g)
      | _ -> None
  in
  fetch ();
  let read_chunk = Bytes.create 4096 in
  let service_conn conn =
    match Unix.read conn.c_fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> close_conn conns conn
    | n -> (
        match Proto.Framer.feed conn.c_framer read_chunk n with
        | payloads ->
            List.iter
              (fun payload ->
                match Proto.request_of_json payload with
                | Ok r ->
                    let kind =
                      match (r.Proto.rq_workload, r.Proto.rq_source) with
                      | Some w, _ -> By_name w
                      | _, Some s -> Inline s
                      | None, None -> assert false
                    in
                    admit ~id:r.Proto.rq_id ~kind ~echo:r.Proto.rq_echo
                      ~enqueue_ns:(Clock.now_ns ()) ~conn:(Some conn)
                | Error e ->
                    (* malformed frame: answer from the coordinator, keep the conn *)
                    Mutex.lock conn.c_mu;
                    (if not conn.c_closed then
                       try
                         Proto.send_frame conn.c_fd
                           (Proto.response_to_json
                              {
                                Proto.rs_id = 0;
                                rs_error = Some e;
                                rs_workload = "";
                                rs_hit = false;
                                rs_n_outputs = 0;
                                rs_digest = "";
                                rs_outputs = None;
                                rs_queue_us = 0.;
                                rs_service_us = 0.;
                              })
                       with _ -> conn.c_closed <- true);
                    Mutex.unlock conn.c_mu)
              payloads
        | exception Failure e ->
            Log.err (fun m -> m "dropping connection: %s" e);
            close_conn conns conn)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn conns conn
  in
  let select_and_service lfd timeout =
    let fds = lfd :: List.map (fun c -> c.c_fd) !conns in
    match Unix.select fds [] [] timeout with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = lfd then begin
              let cfd, _ = Unix.accept lfd in
              conns :=
                { c_fd = cfd; c_mu = Mutex.create (); c_framer = Proto.Framer.create (); c_closed = false }
                :: !conns
            end
            else
              match List.find_opt (fun c -> c.c_fd = fd) !conns with
              | Some conn -> service_conn conn
              | None -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let chunked_sleep delay =
    let delay = Float.min delay 0.05 in
    if delay > 0. then
      try Unix.sleepf delay with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let running = ref true in
  while !running && not (Atomic.get stop) do
    match (!pending_arrival, listener) with
    | Some (at, w), _ when at <= now_s () ->
        incr next_id;
        (* enqueue stamp = intended arrival: coordinator lag is queue wait *)
        admit ~id:!next_id ~kind:(By_name w) ~echo:false
          ~enqueue_ns:(t0 +. (at *. 1e9))
          ~conn:None;
        fetch ()
    | Some (at, _), None -> chunked_sleep (at -. now_s ())
    | Some (at, _), Some (lfd, _) ->
        select_and_service lfd (Float.max 0. (Float.min (at -. now_s ()) 0.05))
    | None, Some (lfd, _) -> select_and_service lfd 0.1
    | None, None -> running := false
  done;
  let stopped_by = if Atomic.get stop then "signal" else "completed" in
  Log.info (fun m ->
      m "draining: %d admitted, %d queued (%s)" !submitted (Workers.pending st.pool) stopped_by);
  Workers.shutdown st.pool;
  let t_end = Clock.now_ns () in
  List.iter (fun c -> close_conn conns c) !conns;
  Option.iter
    (fun (fd, path) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    listener;
  let lat h =
    let n = Metrics.hist_count h in
    {
      p50_us = Metrics.hist_quantile h 0.5;
      p95_us = Metrics.hist_quantile h 0.95;
      p99_us = Metrics.hist_quantile h 0.99;
      mean_us = (if n = 0 then 0. else Metrics.hist_sum h /. float_of_int n);
    }
  in
  let served = Atomic.get st.done_ok and failed = Atomic.get st.done_err in
  let duration_s = Float.max 1e-9 ((t_end -. t0) /. 1e9) in
  let workloads =
    Hashtbl.fold
      (fun key svc acc ->
        {
          wr_name = svc.sv.P.sv_name;
          wr_key = key;
          wr_requests = Atomic.get svc.served;
          wr_compile_s = svc.sv.P.sv_compile_s;
          wr_best_plan = Option.map (fun r -> r.P.plan.Plan.label) svc.sv.P.sv_best;
          wr_predicted = Option.map (fun r -> r.P.speedup) svc.sv.P.sv_best;
        }
        :: acc)
      st.seen []
    |> List.sort (fun a b -> compare a.wr_name b.wr_name)
  in
  let cores = Domain.recommended_domain_count () in
  {
    r_offered = !submitted;
    r_served = served;
    r_failed = failed;
    r_duration_s = duration_s;
    r_throughput_rps = float_of_int (served + failed) /. duration_s;
    r_offered_rate_rps = Option.map (fun l -> l.l_spec.Gen.g_rate) load;
    r_jobs = cfg.s_jobs;
    r_cores = cores;
    r_oversubscribed = cores < cfg.s_jobs + 1;
    r_queue = lat st.queue_h;
    r_service = lat st.service_h;
    r_total = lat st.total_h;
    r_equiv_every = cfg.s_equiv_every;
    r_equiv_checked = Atomic.get st.equiv_checked;
    r_equiv_failures = Atomic.get st.equiv_failures;
    r_equiv_first_failure = !(st.first_failure);
    r_cache = Plancache.stats st.cache;
    r_pool = Workers.stats st.pool;
    r_workloads = workloads;
    r_drained = served + failed = !submitted;
    r_stopped_by = stopped_by;
    r_seed = Option.map (fun l -> l.l_spec.Gen.g_seed) load;
    r_burst = Option.map (fun l -> l.l_spec.Gen.g_burst) load;
    r_mix = (match load with Some l -> l.l_spec.Gen.g_mix | None -> []);
    r_services =
      Hashtbl.fold (fun _ svc acc -> (svc.sv.P.sv_name, svc.sv) :: acc) st.seen []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

(* ---------- report JSON ---------- *)

let report_json r =
  let cache = r.r_cache in
  let lookups = cache.Plancache.pc_hits + cache.Plancache.pc_misses in
  let hit_rate =
    if lookups = 0 then 1.0 else float_of_int cache.Plancache.pc_hits /. float_of_int lookups
  in
  let str s = J.Str s and num x = J.Num x in
  let latency l =
    J.Obj
      [ ("p50_us", num l.p50_us); ("p95_us", num l.p95_us); ("p99_us", num l.p99_us);
        ("mean_us", num l.mean_us) ]
  in
  let workload w =
    J.Obj
      [ ("name", str w.wr_name); ("key", str w.wr_key); ("requests", J.int w.wr_requests);
        ("compile_s", num w.wr_compile_s); ("best_plan", J.opt str w.wr_best_plan);
        ("predicted_speedup", J.opt num w.wr_predicted) ]
  in
  J.Obj
    [
      ("requests_offered", J.int r.r_offered);
      ("requests_served", J.int r.r_served);
      ("requests_failed", J.int r.r_failed);
      ("duration_s", num r.r_duration_s);
      ("throughput_rps", num r.r_throughput_rps);
      ("offered_rate_rps", J.opt num r.r_offered_rate_rps);
      ("jobs", J.int r.r_jobs);
      ("available_cores", J.int r.r_cores);
      ("oversubscribed", J.Bool r.r_oversubscribed);
      ( "latency_us",
        J.Obj
          [ ("queue", latency r.r_queue); ("service", latency r.r_service);
            ("total", latency r.r_total) ] );
      ( "equiv",
        J.Obj
          [ ("every", J.int r.r_equiv_every); ("checked", J.int r.r_equiv_checked);
            ("failures", J.int r.r_equiv_failures);
            ("first_failure", J.opt str r.r_equiv_first_failure) ] );
      ( "plan_cache",
        J.Obj
          [ ("capacity", J.int cache.Plancache.pc_capacity);
            ("entries", J.int cache.Plancache.pc_entries);
            ("hits", J.int cache.Plancache.pc_hits); ("misses", J.int cache.Plancache.pc_misses);
            ("evictions", J.int cache.Plancache.pc_evictions);
            ("single_flight_waits", J.int cache.Plancache.pc_waits);
            ("compile_failures", J.int cache.Plancache.pc_failures); ("hit_rate", num hit_rate) ] );
      ( "pool",
        J.Obj
          [ ("executed", J.int r.r_pool.Workers.w_executed);
            ("task_errors", J.int r.r_pool.Workers.w_task_errors);
            ("backpressure_waits", J.int r.r_pool.Workers.w_backpressure) ] );
      ("workloads", J.Arr (List.map workload r.r_workloads));
      ("drained", J.Bool r.r_drained);
      ("stopped_by", str r.r_stopped_by);
      ("seed", J.opt J.int r.r_seed);
      ("burst", J.opt num r.r_burst);
      ("mix", J.Arr (List.map (fun (n, w) -> J.Obj [ ("name", str n); ("weight", num w) ]) r.r_mix));
    ]

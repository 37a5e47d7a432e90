(** Tests for the serve subsystem: the LRU + single-flight plan cache
    (concurrent dedup, eviction under tiny capacity, content-hash
    keying, failure retry, by-name and inline requests for one source
    kept apart), the deterministic open-loop generator
    (schedule determinism, rate algebra, mix proportions), the
    length-prefixed framing (roundtrip, incremental decoding, oversize
    rejection), the long-idle backoff tier (escalation schedule and
    bounded wakeup latency), the warm worker pool, and the daemon core
    end to end — selftest runs with per-request Equiv checks and the
    Unix-socket request path. *)

module P = Commset_pipeline.Pipeline
module R = Commset_runtime
module Plancache = Commset_serve.Plancache
module Gen = Commset_serve.Gen
module Proto = Commset_serve.Proto
module Server = Commset_serve.Server
module Spin = Commset_exec.Spin
module Workers = Commset_exec.Workers
module Clock = Commset_obs.Clock
module Json = Commset_obs.Json_strict
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry

let check = Alcotest.check

(* a deliberately cheap annotated program so daemon tests measure the
   serve machinery, not workload compile time *)
let tiny_src =
  {|
#pragma commset decl LOG group

#pragma commset member LOG, SELF
void log_item(int x) {
  print(int_to_string(x));
}

void main() {
  for (int i = 0; i < 12; i++) {
    log_item(i * 3);
  }
}
|}

(* same shape, different constant: a distinct content key *)
let tiny2_src =
  {|
#pragma commset decl LOG group

#pragma commset member LOG, SELF
void log_item(int x) {
  print(int_to_string(x));
}

void main() {
  for (int i = 0; i < 10; i++) {
    log_item(i * 5);
  }
}
|}

(* ---- plan cache ---- *)

let test_cache_hit_miss () =
  let c = Plancache.create ~capacity:4 in
  let v, hit = Plancache.find_or_compile c ~key:"a" ~compile:(fun () -> 1) in
  check Alcotest.int "computed" 1 v;
  check Alcotest.bool "first is a miss" false hit;
  let v, hit = Plancache.find_or_compile c ~key:"a" ~compile:(fun () -> 2) in
  check Alcotest.int "cached value, not recomputed" 1 v;
  check Alcotest.bool "second is a hit" true hit;
  check Alcotest.bool "mem sees it" true (Plancache.mem c "a");
  let s = Plancache.stats c in
  check Alcotest.int "hits" 1 s.Plancache.pc_hits;
  check Alcotest.int "misses" 1 s.Plancache.pc_misses;
  check Alcotest.int "entries" 1 s.Plancache.pc_entries

let test_cache_lru_eviction () =
  let c = Plancache.create ~capacity:2 in
  let get k = fst (Plancache.find_or_compile c ~key:k ~compile:(fun () -> k)) in
  ignore (get "k1");
  ignore (get "k2");
  ignore (get "k1");
  (* k2 is now least recently used *)
  ignore (get "k3");
  check Alcotest.bool "recently-touched k1 kept" true (Plancache.mem c "k1");
  check Alcotest.bool "LRU k2 evicted" false (Plancache.mem c "k2");
  check Alcotest.bool "new k3 resident" true (Plancache.mem c "k3");
  let s = Plancache.stats c in
  check Alcotest.int "one eviction" 1 s.Plancache.pc_evictions;
  check Alcotest.int "entries at capacity" 2 s.Plancache.pc_entries;
  (* an evicted key recompiles *)
  ignore (get "k2");
  check Alcotest.int "eviction forced a recompile" 4 (Plancache.stats c).Plancache.pc_misses

let test_cache_single_flight () =
  let c = Plancache.create ~capacity:4 in
  let compiles = Atomic.make 0 in
  let compile () =
    Atomic.incr compiles;
    Unix.sleepf 0.03;
    42
  in
  let worker () = Plancache.find_or_compile c ~key:"shared" ~compile in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let v1, _ = Domain.join d1 and v2, _ = Domain.join d2 in
  check Alcotest.int "both callers got the value" 42 v1;
  check Alcotest.int "both callers got the value" 42 v2;
  check Alcotest.int "exactly one compile ran" 1 (Atomic.get compiles);
  let s = Plancache.stats c in
  check Alcotest.int "one miss (the flight owner)" 1 s.Plancache.pc_misses;
  check Alcotest.int "one hit (the waiter)" 1 s.Plancache.pc_hits;
  check Alcotest.bool "the waiter blocked on the flight" true (s.Plancache.pc_waits >= 1)

let test_cache_failure_not_cached () =
  let c = Plancache.create ~capacity:4 in
  let attempts = ref 0 in
  let failing () =
    incr attempts;
    failwith "bad source"
  in
  (match Plancache.find_or_compile c ~key:"k" ~compile:failing with
  | _ -> Alcotest.fail "failing compile returned"
  | exception Failure _ -> ());
  check Alcotest.bool "failure not cached" false (Plancache.mem c "k");
  let v, hit = Plancache.find_or_compile c ~key:"k" ~compile:(fun () -> 7) in
  check Alcotest.int "retry succeeded" 7 v;
  check Alcotest.bool "retry was a fresh compile" false hit;
  check Alcotest.int "both attempts ran" 1 !attempts;
  check Alcotest.int "failure counted" 1 (Plancache.stats c).Plancache.pc_failures

let test_content_key () =
  check Alcotest.bool "same source, same key" true
    (P.content_key tiny_src = P.content_key tiny_src);
  check Alcotest.bool "different source, different key" false
    (P.content_key tiny_src = P.content_key (tiny_src ^ " "))

(* ---- generator ---- *)

let spec ?(seed = 11) ?(rate = 500.) ?(burst = 3.) ?(mix = [ ("a", 1.) ]) () =
  { Gen.g_seed = seed; g_rate = rate; g_burst = burst; g_on_s = 0.05; g_off_s = 0.15; g_mix = mix }

let test_gen_deterministic () =
  let a = Gen.create (spec ()) and b = Gen.create (spec ()) in
  for i = 1 to 200 do
    let ta, wa = Gen.next a and tb, wb = Gen.next b in
    if ta <> tb || wa <> wb then
      Alcotest.failf "arrival %d diverged: (%f, %s) vs (%f, %s)" i ta wa tb wb
  done;
  let c = Gen.create (spec ~seed:12 ()) in
  let t1, _ = Gen.next a and t2, _ = Gen.next c in
  check Alcotest.bool "different seed, different schedule" true (t1 <> t2)

let test_gen_rate_and_monotone () =
  let g = Gen.create (spec ()) in
  let n = 2000 in
  let last = ref 0. in
  for _ = 1 to n do
    let t, _ = Gen.next g in
    if t < !last then Alcotest.failf "arrival time went backwards: %f < %f" t !last;
    last := t
  done;
  let realized = float_of_int n /. !last in
  if realized < 250. || realized > 1000. then
    Alcotest.failf "realized rate %.0f rps too far from nominal 500" realized

let test_gen_mix_proportions () =
  let g = Gen.create (spec ~mix:[ ("x", 1.); ("y", 3.) ] ()) in
  let y = ref 0 in
  let n = 4000 in
  for _ = 1 to n do
    if snd (Gen.next g) = "y" then incr y
  done;
  let frac = float_of_int !y /. float_of_int n in
  if frac < 0.70 || frac > 0.80 then
    Alcotest.failf "weight-3 workload drew %.3f of the stream, want ~0.75" frac

let test_gen_rate_algebra () =
  (* duty 0.25, burst 3 -> lambda_off = rate * (1 - 0.75) / 0.75 = rate / 3 *)
  let s = spec ~rate:600. () in
  check (Alcotest.float 1e-6) "off-phase intensity" 200. (Gen.off_rate s);
  (* burst 1 degenerates to plain Poisson: both phases at the mean *)
  check (Alcotest.float 1e-6) "burst=1 is Poisson" 600. (Gen.off_rate (spec ~rate:600. ~burst:1. ()));
  (* burst 4 at duty 0.25 concentrates everything in ON; OFF clamps to silent *)
  check (Alcotest.float 1e-6) "over-concentrated burst clamps" 0.
    (Gen.off_rate (spec ~rate:600. ~burst:5. ()))

let test_gen_validation () =
  let bad f = match Gen.create (f ()) with
    | _ -> Alcotest.fail "invalid spec accepted"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () -> spec ~rate:0. ());
  bad (fun () -> spec ~burst:0.5 ());
  bad (fun () -> spec ~mix:[] ());
  bad (fun () -> spec ~mix:[ ("a", 0.) ] ())

(* ---- framing protocol ---- *)

let test_proto_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let payloads = [ "hello"; ""; String.make 70000 'x'; "{\"id\":1}" ] in
      List.iter (fun p -> Proto.send_frame a p) payloads;
      List.iter
        (fun expect ->
          match Proto.recv_frame b with
          | Some got -> check Alcotest.string "frame payload" expect got
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      Unix.close a;
      (match Proto.recv_frame b with
      | None -> ()
      | Some _ -> Alcotest.fail "expected clean EOF");
      (* recv_frame consumed the close; reopen for the truncation case *)
      ())

let test_proto_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> (try Unix.close a with _ -> ()); Unix.close b)
    (fun () ->
      (* a length prefix promising 100 bytes, then EOF after 3 *)
      let buf = Bytes.create 7 in
      Bytes.set_int32_be buf 0 100l;
      Bytes.blit_string "abc" 0 buf 4 3;
      ignore (Unix.write a buf 0 7);
      Unix.close a;
      match Proto.recv_frame b with
      | _ -> Alcotest.fail "truncated frame accepted"
      | exception Failure _ -> ())

let test_framer_incremental () =
  let framer = Proto.Framer.create () in
  let frame payload =
    let len = String.length payload in
    let b = Bytes.create (4 + len) in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    Bytes.blit_string payload 0 b 4 len;
    b
  in
  let wire = Bytes.concat Bytes.empty [ frame "one"; frame ""; frame "three" ] in
  (* feed one byte at a time: every boundary is exercised *)
  let out = ref [] in
  Bytes.iter
    (fun ch ->
      let one = Bytes.make 1 ch in
      out := !out @ Proto.Framer.feed framer one 1)
    wire;
  check Alcotest.(list string) "frames reassembled" [ "one"; ""; "three" ] !out;
  (* oversized prefix rejected *)
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 (Int32.of_int (Proto.max_frame + 1));
  match Proto.Framer.feed framer evil 4 with
  | _ -> Alcotest.fail "oversized frame length accepted"
  | exception Failure _ -> ()

(* U+1F600 in UTF-8, and as the JSON escapes Python's json.dumps writes *)
let astral = "\xf0\x9f\x98\x80"
let astral_escaped = {|\ud83d\ude00|}

let test_proto_request_json () =
  let r = { Proto.rq_id = 7; rq_workload = Some "url"; rq_source = None; rq_echo = true } in
  (match Proto.request_of_json (Proto.request_to_json r) with
  | Ok r' -> check Alcotest.bool "request roundtrips" true (r = r')
  | Error e -> Alcotest.fail e);
  (match Proto.request_of_json {|{"id":1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request without workload/source accepted");
  (match Proto.request_of_json {|{"id":1,"workload":"a","source":"b"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request with both workload and source accepted");
  (match Proto.request_of_json "{nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted");
  (* the id comes from outside the program: an integer below 2^53 in
     magnitude, or absent (0) *)
  let id_of body =
    match Proto.request_of_json (Printf.sprintf {|{%s"workload":"url"}|} body) with
    | Ok r -> Some r.Proto.rq_id
    | Error _ -> None
  in
  List.iter
    (fun (body, want) -> check Alcotest.(option int) body want (id_of body))
    [
      ("", Some 0);
      ({|"id":-3,|}, Some (-3));
      ({|"id":9007199254740991,|}, Some 9007199254740991);
      ({|"id":1.5,|}, None);
      ({|"id":"7",|}, None);
      ({|"id":null,|}, None);
      ({|"id":1e300,|}, None);
      ({|"id":9007199254740992,|}, None);
    ];
  (* an escaped surrogate pair is one astral character; a lone
     surrogate makes the request malformed *)
  (match Proto.request_of_json {|{"id":4,"source":"\ud83d\ude00"}|} with
  | Ok r -> check Alcotest.(option string) "escaped pair" (Some astral) r.Proto.rq_source
  | Error e -> Alcotest.fail e);
  List.iter
    (fun body ->
      match Proto.request_of_json (Printf.sprintf {|{"id":5,"source":"%s"}|} body) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "lone surrogate accepted: %s" body)
    [ {|\ud83d|}; {|\ude00|}; {|\ud83d\u0041|} ];
  (* a hostile source string survives the frame byte for byte *)
  let src = String.init 256 Char.chr ^ "\"\\ caf\xc3\xa9" in
  let r = { Proto.rq_id = 3; rq_workload = None; rq_source = Some src; rq_echo = false } in
  match Proto.request_of_json (Proto.request_to_json r) with
  | Ok r' -> check Alcotest.bool "hostile source roundtrips" true (r = r')
  | Error e -> Alcotest.fail e

let test_proto_response_json () =
  let r =
    {
      Proto.rs_id = 9;
      rs_error = None;
      rs_workload = "md5sum";
      rs_hit = true;
      rs_n_outputs = 3;
      rs_digest = "abc123";
      rs_outputs = Some [ "a"; "b \"quoted\""; String.init 32 Char.chr; "\\ caf\xc3\xa9\x7f" ];
      rs_queue_us = 12.5;
      rs_service_us = 100.0 /. 3.;
    }
  in
  let json = Proto.response_to_json r in
  (match Json.parse json with
  | Ok doc ->
      List.iter
        (fun k -> if Json.member k doc = None then Alcotest.failf "response lacks %S" k)
        [ "id"; "status"; "workload"; "cache"; "n_outputs"; "digest"; "outputs"; "queue_us"; "service_us" ]
  | Error e -> Alcotest.failf "response is not strict JSON: %s" e);
  (match Proto.response_of_json json with
  | Ok r' -> check Alcotest.bool "response roundtrips" true (r = r')
  | Error e -> Alcotest.fail e);
  List.iter
    (fun body ->
      match Proto.response_of_json body with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" body)
    [ {|{"id":2.5,"status":"ok"}|}; {|{"id":1,"status":"ok","n_outputs":"3"}|} ]

(* ---- long-idle backoff tier ---- *)

let test_spin_idle_escalation () =
  let base = Spin.sleep_s in
  let b = Spin.backoff () in
  (* burn the cpu_relax budget *)
  for _ = 1 to Spin.spin_rounds do Spin.once b done;
  check (Alcotest.float 1e-9) "still at base quantum" base (Spin.current_sleep_s b);
  (* the first [idle_after] sleeps all pay the base quantum; the next
     quantum only escalates once the [idle_after]th has been slept *)
  for _ = 1 to Spin.idle_after - 1 do Spin.once b done;
  check (Alcotest.float 1e-9) "responsive tier holds before `after` sleeps" base
    (Spin.current_sleep_s b);
  Spin.once b;
  check (Alcotest.float 1e-9) "first long-idle doubling" (base *. 2.)
    (Spin.current_sleep_s b);
  Spin.once b;
  check (Alcotest.float 1e-9) "second doubling" (base *. 4.) (Spin.current_sleep_s b);
  (* ...and clamps at the cap (4 x 50 us doubled 7 times passes 20 ms) *)
  for _ = 1 to 8 do Spin.once b done;
  check (Alcotest.float 1e-9) "clamped at the cap" Spin.sleep_cap_s (Spin.current_sleep_s b);
  (* reset returns to the responsive tier *)
  Spin.reset b;
  check (Alcotest.float 1e-9) "reset restores the base quantum" base
    (Spin.current_sleep_s b)

(* an idle worker wakes within the cap (plus scheduling noise), not
   within some unbounded exponential sleep *)
let test_idle_wakeup_latency_bounded () =
  let pool = Workers.spawn ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Workers.shutdown pool)
    (fun () ->
      (* let the worker park deep in the long-idle tier *)
      Unix.sleepf 0.25;
      let started = Atomic.make 0. in
      let t_submit = Clock.now_ns () in
      Workers.submit pool (fun () -> Atomic.set started (Clock.now_ns ()));
      let deadline = Unix.gettimeofday () +. 5. in
      while Atomic.get started = 0. && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let t_start = Atomic.get started in
      if t_start = 0. then Alcotest.fail "parked worker never woke";
      let wakeup_ms = (t_start -. t_submit) /. 1e6 in
      (* cap is 20ms; allow generous scheduler noise, but far below the
         unbounded-exponential failure mode this test exists to catch *)
      if wakeup_ms > 250. then
        Alcotest.failf "idle wakeup took %.1f ms (cap %.0f ms)" wakeup_ms
          (Spin.sleep_cap_s *. 1e3))

(* ---- warm worker pool ---- *)

let test_workers_execute_and_survive_errors () =
  let pool = Workers.spawn ~ring:8 ~jobs:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 20 do
    Workers.submit pool (fun () -> Atomic.incr hits)
  done;
  Workers.submit pool (fun () -> failwith "poisoned request");
  for _ = 1 to 20 do
    Workers.submit pool (fun () -> Atomic.incr hits)
  done;
  Workers.shutdown pool;
  check Alcotest.int "every healthy task ran" 40 (Atomic.get hits);
  let s = Workers.stats pool in
  check Alcotest.int "all tasks drained" 41 s.Workers.w_executed;
  check Alcotest.int "the poisoned task was caught" 1 s.Workers.w_task_errors;
  Workers.shutdown pool (* idempotent *);
  match Workers.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* ---- daemon core ---- *)

let tiny_lookup name =
  match name with
  | "tiny" -> Ok (tiny_src, fun _ -> ())
  | "tiny2" -> Ok (tiny2_src, fun _ -> ())
  | other -> Error ("unknown workload " ^ other)

let tiny_config ?(equiv_every = 1) ?(cache = 4) ?(jobs = 2) () =
  {
    (Server.default_config ~lookup:tiny_lookup) with
    Server.s_jobs = jobs;
    s_cache_capacity = cache;
    s_equiv_every = equiv_every;
  }

let selftest_load ?(requests = 40) ?(mix = [ ("tiny", 1.) ]) () =
  { Server.l_spec = spec ~seed:5 ~rate:5000. ~mix (); l_requests = requests }

let test_server_selftest () =
  let r = Server.run ~load:(selftest_load ()) (tiny_config ()) in
  check Alcotest.int "every request admitted" 40 r.Server.r_offered;
  check Alcotest.int "every request served" 40 r.Server.r_served;
  check Alcotest.int "no failures" 0 r.Server.r_failed;
  check Alcotest.bool "drained" true r.Server.r_drained;
  check Alcotest.string "ran to completion" "completed" r.Server.r_stopped_by;
  check Alcotest.int "every response Equiv-checked" 40 r.Server.r_equiv_checked;
  check Alcotest.int "zero Equiv failures" 0 r.Server.r_equiv_failures;
  let c = r.Server.r_cache in
  check Alcotest.int "compiled exactly once" 1 c.Plancache.pc_misses;
  check Alcotest.int "39 cache hits" 39 c.Plancache.pc_hits;
  check Alcotest.int "pool executed everything" 40 r.Server.r_pool.Workers.w_executed;
  (match r.Server.r_workloads with
  | [ w ] ->
      check Alcotest.string "workload name" "tiny" w.Server.wr_name;
      check Alcotest.int "per-workload count" 40 w.Server.wr_requests;
      check Alcotest.bool "compile time recorded" true (w.Server.wr_compile_s > 0.)
  | ws -> Alcotest.failf "expected one workload report, got %d" (List.length ws));
  (* the report renders as one strict-JSON object carrying what CI reads *)
  match Json.parse (Json.to_string (Server.report_json r)) with
  | Error e -> Alcotest.failf "report is not strict JSON: %s" e
  | Ok doc ->
      let rec get o = function
        | [] -> o
        | k :: path -> (
            match Json.member k o with
            | Some v -> get v path
            | None -> Alcotest.failf "report lacks %s" k)
      in
      check Alcotest.bool "equiv.failures" true (get doc [ "equiv"; "failures" ] = Json.Num 0.);
      check Alcotest.bool "drained" true (get doc [ "drained" ] = Json.Bool true);
      check Alcotest.bool "stopped_by" true (get doc [ "stopped_by" ] = Json.Str "completed");
      List.iter
        (fun path -> ignore (get doc path))
        [
          [ "requests_served" ];
          [ "requests_offered" ];
          [ "throughput_rps" ];
          [ "oversubscribed" ];
          [ "equiv"; "checked" ];
          [ "plan_cache"; "hit_rate" ];
          [ "latency_us"; "total"; "p99_us" ];
        ]

(* Two programs through a one-entry cache: every switch between them
   evicts the other, so the run recompiles several times. *)
let evicting_run ~requests =
  Server.run
    ~load:(selftest_load ~requests ~mix:[ ("tiny", 1.); ("tiny2", 1.) ] ())
    (tiny_config ~cache:1 ~jobs:1 ())

let m_sim_runs = Commset_obs.Metrics.counter "sim.runs"
let m_interp_runs = Commset_obs.Metrics.counter "interp.runs"

(* A miss runs the one compile, whose profile is one run of the
   program, and plans nothing: no simulation, and exactly one more run
   of the program per miss than the requests themselves make. *)
let test_server_miss_compiles_only () =
  let value = Commset_obs.Metrics.value in
  let sim0 = value m_sim_runs and interp0 = value m_interp_runs in
  let r = evicting_run ~requests:30 in
  let misses = r.Server.r_cache.Plancache.pc_misses in
  check Alcotest.bool "evictions forced recompiles" true (misses > 2);
  check Alcotest.int "every request served" 30 r.Server.r_served;
  check Alcotest.int "no simulation" 0 (value m_sim_runs - sim0);
  check Alcotest.int "one run per miss and per request" (misses + r.Server.r_served)
    (value m_interp_runs - interp0)

(* The cache alone holds compiled programs; a key's report row outlives
   its evictions, so a recompile neither drops nor restarts its counts. *)
let test_server_rows_survive_eviction () =
  let r = evicting_run ~requests:40 in
  let c = r.Server.r_cache in
  check Alcotest.bool "at least one eviction" true (c.Plancache.pc_evictions >= 1);
  check Alcotest.bool "at most one program held" true (c.Plancache.pc_entries <= 1);
  check Alcotest.int "every request served" 40 r.Server.r_served;
  check Alcotest.(list string) "one row per program" [ "tiny"; "tiny2" ]
    (List.map (fun w -> w.Server.wr_name) r.Server.r_workloads);
  check Alcotest.int "the rows count every request" r.Server.r_served
    (List.fold_left (fun n w -> n + w.Server.wr_requests) 0 r.Server.r_workloads);
  List.iter
    (fun w ->
      check Alcotest.bool (w.Server.wr_name ^ ": compile time recorded") true
        (w.Server.wr_compile_s > 0.))
    r.Server.r_workloads;
  check Alcotest.int "every response Equiv-checked" 40 r.Server.r_equiv_checked;
  check Alcotest.int "zero Equiv failures" 0 r.Server.r_equiv_failures

let test_server_mixed_and_errors () =
  let load = selftest_load ~requests:30 ~mix:[ ("tiny", 1.); ("tiny2", 1.); ("nope", 1.) ] () in
  let r = Server.run ~load (tiny_config ()) in
  check Alcotest.int "every request admitted" 30 r.Server.r_offered;
  check Alcotest.bool "drained" true r.Server.r_drained;
  check Alcotest.bool "unknown-workload requests failed" true (r.Server.r_failed > 0);
  check Alcotest.int "served + failed = offered" 30 (r.Server.r_served + r.Server.r_failed);
  check Alcotest.int "two distinct programs compiled" 2
    r.Server.r_cache.Plancache.pc_misses;
  check Alcotest.int "two services reported" 2 (List.length r.Server.r_workloads);
  check Alcotest.int "zero Equiv failures" 0 r.Server.r_equiv_failures

(* Run a daemon on a fresh socket and hand [f] a connection to it;
   returns the daemon's report once it stopped, and whether the socket
   file is left. *)
let with_daemon ?(config = tiny_config ()) f =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "commset-serve-test.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let daemon = Domain.spawn (fun () -> Server.run ~socket:path config) in
  (* wait for the listener *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = Unix.gettimeofday () +. 5. in
  let rec connect () =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        connect ()
  in
  connect ();
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () -> f fd);
  Server.request_stop ();
  let r = Domain.join daemon in
  (r, Sys.file_exists path)

let test_server_socket () =
  let r, socket_left =
    with_daemon @@ fun fd ->
      (* by-name request with echo *)
      Proto.send_frame fd
        (Proto.request_to_json
           { Proto.rq_id = 1; rq_workload = Some "tiny"; rq_source = None; rq_echo = true });
      (match Proto.recv_frame fd with
      | None -> Alcotest.fail "no response"
      | Some payload -> (
          match Proto.response_of_json payload with
          | Error e -> Alcotest.fail e
          | Ok resp ->
              check Alcotest.int "response id" 1 resp.Proto.rs_id;
              check Alcotest.bool "ok" true (resp.Proto.rs_error = None);
              check Alcotest.bool "first request compiles" false resp.Proto.rs_hit;
              check Alcotest.int "12 output lines" 12 resp.Proto.rs_n_outputs;
              (match resp.Proto.rs_outputs with
              | Some ("0" :: "3" :: _) -> ()
              | _ -> Alcotest.fail "echoed outputs wrong")));
      (* inline source identical to "tiny": a by-name service is keyed on
         the name too, so the inline request compiles its own *)
      Proto.send_frame fd
        (Proto.request_to_json
           { Proto.rq_id = 2; rq_workload = None; rq_source = Some tiny_src; rq_echo = false });
      (match Proto.recv_frame fd with
      | None -> Alcotest.fail "no response to inline request"
      | Some payload -> (
          match Proto.response_of_json payload with
          | Error e -> Alcotest.fail e
          | Ok resp ->
              check Alcotest.bool "inline ok" true (resp.Proto.rs_error = None);
              check Alcotest.bool "same source by name and inline is a miss" false
                resp.Proto.rs_hit));
      (* malformed payload gets an immediate error response *)
      Proto.send_frame fd "{not json";
      (match Proto.recv_frame fd with
      | None -> Alcotest.fail "no response to malformed request"
      | Some payload -> (
          match Proto.response_of_json payload with
          | Ok resp -> check Alcotest.bool "error status" true (resp.Proto.rs_error <> None)
          | Error e -> Alcotest.fail e))
  in
  check Alcotest.string "stopped by signal" "signal" r.Server.r_stopped_by;
  check Alcotest.bool "drained" true r.Server.r_drained;
  check Alcotest.int "two well-formed requests served" 2 r.Server.r_served;
  check Alcotest.bool "socket unlinked on shutdown" false socket_left

(* A by-name request compiles and runs with the workload's set-up, an
   inline one with none: md5sum's source prints different digests under
   the two, so the two request kinds must never share a service,
   whichever arrives first. *)
let test_server_setup_keying () =
  let w = Option.get (Registry.find "md5sum") in
  let digest setup =
    let c = P.compile ~name:w.W.wname ~setup w.W.source in
    Digest.to_hex (Digest.string (String.concat "\n" c.P.trace.R.Trace.seq_outputs))
  in
  let by_name = digest w.W.setup and inline = digest (fun _ -> ()) in
  check Alcotest.bool "the two set-ups print different outputs" true (by_name <> inline);
  let lookup name =
    match Registry.find name with
    | Some w -> Ok (w.W.source, w.W.setup)
    | None -> Error ("unknown workload " ^ name)
  in
  let request ~inline id =
    {
      Proto.rq_id = id;
      rq_workload = (if inline then None else Some w.W.wname);
      rq_source = (if inline then Some w.W.source else None);
      rq_echo = false;
    }
  in
  List.iter
    (fun (order, first_inline) ->
      let r, _ =
        with_daemon ~config:{ (tiny_config ()) with Server.s_lookup = lookup } @@ fun fd ->
        List.iteri
          (fun i inline_req ->
            let what = Printf.sprintf "%s, %s request" order (if inline_req then "inline" else "by-name") in
            Proto.send_frame fd (Proto.request_to_json (request ~inline:inline_req (i + 1)));
            match Option.map Proto.response_of_json (Proto.recv_frame fd) with
            | None -> Alcotest.failf "%s: no response" what
            | Some (Error e) -> Alcotest.failf "%s: %s" what e
            | Some (Ok resp) ->
                check Alcotest.(option string) (what ^ ": ok") None resp.Proto.rs_error;
                check Alcotest.string (what ^ ": its own reference's digest")
                  (if inline_req then inline else by_name)
                  resp.Proto.rs_digest)
          [ first_inline; not first_inline ]
      in
      check Alcotest.int (order ^ ": two misses") 2 r.Server.r_cache.Plancache.pc_misses)
    [ ("inline first", true); ("by name first", false) ]

let replace_all = Commset_codegen.Build.replace_all

(* A request whose inline source holds an astral character in a string
   literal, escaped as a surrogate pair, runs and is digested like the
   raw UTF-8 form; one holding a lone surrogate gets the malformed-frame
   error response. *)
let test_server_escaped_source () =
  let src =
    replace_all ~sub:"int_to_string(x)" ~by:("\"" ^ astral ^ " \" + int_to_string(x)") tiny_src
  in
  let request id =
    Proto.request_to_json
      { Proto.rq_id = id; rq_workload = None; rq_source = Some src; rq_echo = true }
  in
  let escaped = replace_all ~sub:astral ~by:astral_escaped (request 2) in
  check Alcotest.bool "the escaped frame is ASCII" true
    (String.for_all (fun c -> Char.code c < 0x80) escaped);
  let exchange fd payload =
    Proto.send_frame fd payload;
    match Proto.recv_frame fd with
    | None -> Alcotest.fail "no response"
    | Some payload -> (
        match Proto.response_of_json payload with Ok resp -> resp | Error e -> Alcotest.fail e)
  in
  let r, _ =
    with_daemon @@ fun fd ->
    let raw = exchange fd (request 1) and esc = exchange fd escaped in
    check Alcotest.bool "raw ok" true (raw.Proto.rs_error = None);
    check Alcotest.bool "escaped ok" true (esc.Proto.rs_error = None);
    check Alcotest.(option (list string)) "outputs" (Some [ astral ^ " 0"; astral ^ " 3" ])
      (Option.map (List.filteri (fun i _ -> i < 2)) raw.Proto.rs_outputs);
    check Alcotest.string "same digest" raw.Proto.rs_digest esc.Proto.rs_digest;
    check Alcotest.bool "same source, a cache hit" true esc.Proto.rs_hit;
    let lone = exchange fd (replace_all ~sub:astral_escaped ~by:{|\ud83d|} escaped) in
    check Alcotest.bool "lone surrogate: error status" true (lone.Proto.rs_error <> None)
  in
  check Alcotest.int "two well-formed requests served" 2 r.Server.r_served

(* ---- service plans ---- *)

(* [prepare_service] simulates only the plans the real engine can run;
   it must pick what the first executable plan among all simulated
   plans was, bit for bit. *)
let test_service_best () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (variant, src) ->
          let what = Printf.sprintf "%s/%s" w.W.wname variant in
          let sv = P.prepare_service ~name:w.W.wname ~setup:w.W.setup ~threads:8 src in
          let all =
            List.find_opt
              (fun (r : P.run) -> Result.is_ok (Commset_exec.Exec.supported r.P.plan))
              (P.evaluate sv.P.sv_compiled ~threads:8)
          in
          let show =
            Option.map (fun (r : P.run) ->
                Printf.sprintf "%s %Lx %s" r.P.plan.Commset_transforms.Plan.label
                  (Int64.bits_of_float r.P.speedup) (Commset_exec.Equiv.verdict_name r.P.fidelity))
          in
          check Alcotest.(option string) what (show all) (show sv.P.sv_best))
        (("base", w.W.source) :: w.W.variants))
    Registry.all

(* ---- fidelity gate ---- *)

let tiny_runs =
  lazy
    (let c = P.compile ~name:"tiny" tiny_src in
     match P.executable_plans c ~threads:2 with
     | [] -> Alcotest.fail "tiny has no executable plan"
     | plan :: _ -> [ P.run_parallel ~jobs:2 c plan ])

let test_fidelity_gate () =
  let runs = Lazy.force tiny_runs in
  (* oversubscribed: cores < jobs + 1 -> visible skip, never a failure *)
  (match P.fidelity_gate ~cores:1 ~jobs:2 runs with
  | P.Gate_skipped why ->
      check Alcotest.bool "skip names the oversubscription" true
        (String.length why > 0)
  | _ -> Alcotest.fail "oversubscribed gate did not skip");
  (match P.fidelity_gate ~cores:2 ~jobs:2 runs with
  | P.Gate_skipped _ -> ()
  | _ -> Alcotest.fail "cores = jobs must still skip (coordinator needs a core)");
  (* enough cores + an absurdly wide band: always within *)
  (match P.fidelity_gate ~cores:16 ~jobs:2 ~band:1e9 runs with
  | P.Gate_ok worst -> check Alcotest.bool "worst gap is finite" true (worst >= 0.)
  | _ -> Alcotest.fail "wide band did not pass");
  (* a zero-width band: any measurement noise exceeds it *)
  (match P.fidelity_gate ~cores:16 ~jobs:2 ~band:0. runs with
  | P.Gate_exceeded ((_, gap) :: _) -> check Alcotest.bool "gap reported" true (gap >= 0.)
  | P.Gate_exceeded [] -> Alcotest.fail "exceeded with no offenders"
  | _ -> Alcotest.fail "zero band did not fail");
  (* no measurements: nothing to gate *)
  match P.fidelity_gate ~cores:16 ~jobs:2 [] with
  | P.Gate_skipped _ -> ()
  | _ -> Alcotest.fail "empty run list did not skip"

let suite =
  ( "serve",
    [
      Alcotest.test_case "plancache: hit/miss and stats" `Quick test_cache_hit_miss;
      Alcotest.test_case "plancache: LRU eviction at capacity 2" `Quick
        test_cache_lru_eviction;
      Alcotest.test_case "plancache: concurrent single-flight compiles once" `Quick
        test_cache_single_flight;
      Alcotest.test_case "plancache: failures are retried, not cached" `Quick
        test_cache_failure_not_cached;
      Alcotest.test_case "plancache: content-hash keying" `Quick test_content_key;
      Alcotest.test_case "gen: seeded schedule is deterministic" `Quick
        test_gen_deterministic;
      Alcotest.test_case "gen: monotone arrivals near the nominal rate" `Quick
        test_gen_rate_and_monotone;
      Alcotest.test_case "gen: mix honors weights" `Quick test_gen_mix_proportions;
      Alcotest.test_case "gen: on/off rate algebra" `Quick test_gen_rate_algebra;
      Alcotest.test_case "gen: spec validation" `Quick test_gen_validation;
      Alcotest.test_case "proto: frame roundtrip and clean EOF" `Quick
        test_proto_roundtrip;
      Alcotest.test_case "proto: truncated frame rejected" `Quick test_proto_truncated;
      Alcotest.test_case "proto: byte-at-a-time incremental decoding" `Quick
        test_framer_incremental;
      Alcotest.test_case "proto: request JSON shape" `Quick test_proto_request_json;
      Alcotest.test_case "proto: response JSON roundtrip" `Quick test_proto_response_json;
      Alcotest.test_case "spin: long-idle escalation schedule" `Quick
        test_spin_idle_escalation;
      Alcotest.test_case "spin: idle wakeup latency bounded by the cap" `Quick
        test_idle_wakeup_latency_bounded;
      Alcotest.test_case "workers: warm pool executes and survives task errors" `Quick
        test_workers_execute_and_survive_errors;
      Alcotest.test_case "server: selftest stream, Equiv-checked, compile-once" `Quick
        test_server_selftest;
      Alcotest.test_case "server: mixed load with failing lookups drains clean" `Quick
        test_server_mixed_and_errors;
      Alcotest.test_case "server: a miss compiles once and simulates nothing" `Quick
        test_server_miss_compiles_only;
      Alcotest.test_case "server: evicted workloads keep their rows" `Quick
        test_server_rows_survive_eviction;
      Alcotest.test_case "server: socket requests, inline source, malformed frame" `Quick
        test_server_socket;
      Alcotest.test_case "pipeline: fidelity gate verdicts" `Quick test_fidelity_gate;
      Alcotest.test_case "server: by-name and inline source keyed apart" `Quick
        test_server_setup_keying;
      Alcotest.test_case "server: escaped astral source, lone surrogates" `Quick
        test_server_escaped_source;
      Alcotest.test_case "service: best plan from the executable plans alone" `Slow
        test_service_best;
    ] )

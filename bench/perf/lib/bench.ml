(** One benchmark run over one workload: cycles that each do one compile
    pass, one suggest, one execution round and a few served requests,
    with the set-ups spread over them, then a light serve phase. Each
    step times calls into one layer's public functions from outside;
    nothing inside [lib/] is instrumented for the benchmark. *)

module P = Commset_pipeline.Pipeline
module R = Commset_runtime
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module Pdg = Commset_pdg.Pdg
module Loops = Commset_analysis.Loops
module Ir = Commset_ir.Ir
module Plan = Commset_transforms.Plan
module Exec = Commset_exec.Exec
module Codegen = Commset_codegen.Codegen
module Abi = Commset_codegen.Abi
module Synth = Commset_synth.Synth
module Verdict = Commset_verify.Verdict
module Gen = Commset_serve.Gen
module Proto = Commset_serve.Proto
module Pool = Commset_support.Pool
module Recorder = Commset_obs.Recorder
module Attrib = Commset_obs.Attrib
module Export = Commset_obs.Export
module J = Commset_obs.Json_strict

let now = Client.now

type config = {
  workload : Workloads.t;
  seed : int;  (** shuffles every round's program order and draws the serve schedule *)
  seconds : float;  (** measured seconds, split over the phases *)
  trace : bool;  (** record spans and report per-layer metrics instead of end-to-end *)
  out_dir : string;  (** result, trace, codegen cache and daemon files go here *)
  commsetc : string;  (** the built [commsetc] executable the serve phase spawns *)
}

(** A measurement that breaks a physical bound or does different work
    than it claims to: the run is void. *)
exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* Share of the measured seconds the light serve phase gets; the cycles
   get the rest. *)
let share_light = 0.15

(* Saturation bursts: offered far above the one-worker capacity of either
   mix, with the client holding at most [saturate_window] requests
   outstanding so the daemon's queue stays bounded. A burst is
   [burst_windows] windows of [window_responses] responses. *)
let saturate_rps = 400.
let saturate_window = 32
let window_responses = 20
let burst_windows = 3

type metric = {
  name : string;
  unit : string;
  value : float;
  samples : float list;  (** the per-pass/round/request values behind [value] *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* ---------------------------------------------------------------- *)
(* Run state                                                         *)
(* ---------------------------------------------------------------- *)

type run = {
  cfg : config;
  rng : Random.State.t;
  mutable attempted : int;
  mutable failed : int;
  mutable spans : Recorder.span list list;  (** every dump, for the trace file *)
}

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      if r.failed <= 10 then prerr_endline ("perf: FAILED " ^ msg))
    fmt

(** One operation: counted as attempted; an exception counts it failed. *)
let attempt r what f =
  r.attempted <- r.attempted + 1;
  match f () with
  | v -> Some v
  | exception (Violation _ as e) -> raise e
  | exception e ->
      fail r "%s: %s" what (Printexc.to_string e);
      None

let shuffle r xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r.rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** Time [f] inside a [bench.<name>] span. *)
let timed name f =
  Recorder.with_span ~cat:"bench" ("bench." ^ name) @@ fun () ->
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(** Run [round i] until [budget_s] is spent: at least [min] times, and
    once more only while a round of the mean length so far still fits. *)
let rounds ?(min = 1) ~budget_s round =
  let t0 = now () in
  let n = ref 0 in
  let fits () =
    let spent = now () -. t0 in
    !n < min || spent +. (spent /. float_of_int !n) <= budget_s
  in
  while fits () do
    round !n;
    incr n
  done

(** Move the recorder's spans to the trace file's list, folding them
    into [into] if given, and clear the recorder. A dropped span would
    make a ledger undercount, so it voids the run. *)
let collect ?into r =
  if r.cfg.trace then begin
    let spans = Recorder.dump () in
    if Recorder.dropped_total () > 0 then
      violation "flight recorder dropped %d span(s)" (Recorder.dropped_total ());
    Recorder.reset ();
    Option.iter (fun ledger -> Ledger.add ledger spans) into;
    r.spans <- spans :: r.spans
  end

(** Cycle burns would make every timed path replay the cost model's
    prediction instead of running the program. *)
let require_no_burns () =
  let ns = R.Costmodel.exec_ns_per_cycle () in
  if ns <> 0. then violation "exec_ns_per_cycle is %g, not 0: timings would include burns" ns

(* ---------------------------------------------------------------- *)
(* Sources and compile signatures                                    *)
(* ---------------------------------------------------------------- *)

type source = { s_name : string; s_setup : P.setup; s_text : string }

let registry_entry name =
  match Registry.find name with
  | Some w -> w
  | None -> invalid_arg ("unknown registry program " ^ name)

(** The workload's programs followed by each one's annotation variants. *)
let sources (w : Workloads.t) =
  List.concat_map
    (fun name ->
      let e = registry_entry name in
      { s_name = name; s_setup = e.W.setup; s_text = e.W.source }
      :: List.map
           (fun (v, text) -> { s_name = name ^ "/" ^ v; s_setup = e.W.setup; s_text = text })
           e.W.variants)
    w.Workloads.programs

(** What a compile decided. Every pass must decide the same. *)
type signature = {
  plans : string list;
  best : (string * float) option;
  verdicts : int * int * int;  (** proved, unknown, refuted *)
  pdg : int * int;  (** nodes, edges *)
}

let signature (sv : P.service) =
  let c = sv.P.sv_compiled in
  let v = Option.get c.P.verification in
  {
    plans = List.map (fun (p : Plan.t) -> p.Plan.label) (P.plans c ~threads:sv.P.sv_threads);
    best = Option.map (fun (x : P.run) -> (x.P.plan.Plan.label, x.P.speedup)) sv.P.sv_best;
    verdicts = (Verdict.n_proved v, Verdict.n_unknown v, Verdict.n_refuted v);
    pdg = (Array.length c.P.target.P.pdg.Pdg.nodes, List.length c.P.target.P.pdg.Pdg.edges);
  }

let compile_source src =
  P.prepare_service ~name:src.s_name ~setup:src.s_setup ~verify:true ~threads:8 src.s_text

(* ---------------------------------------------------------------- *)
(* Programs and the three execution legs                             *)
(* ---------------------------------------------------------------- *)

type prog = {
  pname : string;
  comp : P.t;
  reference : string list;  (** the compile-time sequential run's output *)
  digest : string;  (** MD5 of [reference] joined by newlines, as the daemon digests *)
  iterations : int;  (** target-loop iterations the trace recorded *)
  rt : R.Precompile.rtarget;
  nid_of_iid : int -> int;
  cg : Codegen.compiled;
  plan : Plan.t;  (** the service's best executable plan, as [serve] plans it *)
}

let jobs () = Exec.default_jobs ()

let make_prog name (sv : P.service) =
  let c = sv.P.sv_compiled in
  let pdg = c.P.target.P.pdg in
  let loop = pdg.Pdg.loop in
  let rt =
    match
      R.Precompile.plan_real c.P.prepared ~fname:pdg.Pdg.func.Ir.fname
        ~header:loop.Loops.header ~latches:loop.Loops.latches ~body:loop.Loops.body
    with
    | Ok rt -> rt
    | Error why -> violation "%s: real engine refuses the target loop: %s" name why
  in
  let nid_of_iid iid = match Pdg.node_of_instr pdg iid with Some n -> n | None -> -1 in
  let cg =
    match Codegen.prepare ~prepared:c.P.prepared ~rt ~nid_of_iid () with
    | Ok cg -> cg
    | Error why -> violation "%s: codegen fell back: %s" name why
  in
  let plan =
    match sv.P.sv_best with
    | Some x -> x.P.plan
    | None -> violation "%s: no executable plan" name
  in
  let reference = c.P.trace.R.Trace.seq_outputs in
  {
    pname = name;
    comp = c;
    reference;
    digest = Digest.to_hex (Digest.string (String.concat "\n" reference));
    iterations = R.Trace.n_iterations c.P.trace;
    rt;
    nid_of_iid;
    cg;
    plan;
  }

let fresh_executor p =
  let machine = R.Machine.create () in
  p.comp.P.setup machine;
  (machine, R.Precompile.executor ~machine p.comp.P.prepared)

(** The whole program on the prepared-program fast path. *)
let seq_leg p () =
  let machine, ex = fresh_executor p in
  ignore (R.Precompile.run_main ex : float);
  (R.Machine.outputs machine, None)

(** The target loop driven through the engines' coordinator backbone,
    each dispatched iteration run inline on one worker state by [body]:
    one domain, no rings or locks, so the time is the iteration bodies
    plus the backbone. Returns the outputs and the iterations run. *)
let body_leg p body () =
  let machine, ex = fresh_executor p in
  let wst = R.Precompile.worker_state ex ~fuel:max_int in
  let builtin (bi : R.Builtins.t) argv ~has_dst:_ = bi.R.Builtins.impl machine argv in
  let iters = ref 0 in
  ignore
    (R.Precompile.run_main_real ex p.rt
       ~on_iter:(fun _ regs ->
         incr iters;
         body wst builtin (Array.copy regs))
       ~on_loop_done:ignore
      : float);
  (R.Machine.outputs machine, Some !iters)

(* The real engine's worker resolves every instruction to its PDG node
   and watches for transitions; the interpreted leg pays the same. *)
let interpreted_body p wst builtin regs =
  let cur = ref min_int in
  R.Precompile.run_iteration wst p.rt
    ~on_instr:(fun i ->
      let nid = p.nid_of_iid i.Ir.iid in
      if nid <> !cur then cur := nid)
    ~builtin regs

let compiled_body p wst builtin regs =
  let cur = ref min_int in
  p.cg.Codegen.cg_fn
    {
      Abi.cg_globals = R.Precompile.wstate_globals wst;
      cg_gdefined = R.Precompile.wstate_gdefined wst;
      cg_node = (fun nid -> if nid <> !cur then cur := nid);
      cg_builtin = builtin;
      cg_charge = (fun ~steps ~cost -> R.Precompile.wstate_charge wst ~steps ~cost);
      cg_fuel_left = (fun () -> R.Precompile.wstate_fuel_left wst);
    }
    regs

let legs p =
  [
    ("seq", seq_leg p);
    ("body_real", body_leg p (interpreted_body p));
    ("body_codegen", body_leg p (compiled_body p));
  ]

(** Time one leg and check its output and the work it did. *)
let run_leg r p (leg, f) =
  match attempt r (p.pname ^ " " ^ leg) (fun () -> timed leg f) with
  | None -> None
  | Some ((outputs, iters), dt) ->
      (match iters with
      | Some n when n <> p.iterations ->
          violation "%s %s ran %d iteration(s), the trace recorded %d" p.pname leg n
            p.iterations
      | _ -> ());
      if outputs <> p.reference then begin
        fail r "%s %s: output differs from the sequential reference" p.pname leg;
        None
      end
      else Some dt

(* ---------------------------------------------------------------- *)
(* Everything a run measures                                         *)
(* ---------------------------------------------------------------- *)

type ready = { progs : prog list; daemon : Client.daemon; fd : Unix.file_descr }

type tally = {
  mutable live : ready option;  (** the running daemon, stopped on any exit *)
  signatures : (string, signature) Hashtbl.t;  (** source -> first compile's decisions *)
  mutable setup_s : float list;
  mutable codegen_s : float list;  (** cold body compiles, one sum per set-up *)
  compile_s : Stats.table;  (** source -> compile seconds, recorder off *)
  compile_traced_s : Stats.table;  (** the same with the recorder on (traced runs) *)
  mutable alloc_mwords : float list;  (** words allocated per compile pass, millions *)
  suggest_s : Stats.table;  (** program -> suggest seconds *)
  suggested : (string, string * int * int) Hashtbl.t;
      (** program -> annotated source, suggestions, recommended *)
  legs : (string * Stats.table) list;  (** leg -> program -> seconds *)
  serve_ms : Stats.table;  (** served program -> closed-loop round trip, ms *)
  mutable window_rps : float list;  (** saturation: response rate per window *)
  mutable cycles : int;
  mutable next_id : int;  (** request ids, unique over the daemon connection's life *)
  compile_ledger : Ledger.t;
  suggest_ledger : Ledger.t;
}

let leg_names = [ "seq"; "body_real"; "body_codegen" ]

let new_tally () =
  {
    live = None;
    signatures = Hashtbl.create 16;
    setup_s = [];
    codegen_s = [];
    compile_s = Stats.table ();
    compile_traced_s = Stats.table ();
    alloc_mwords = [];
    suggest_s = Stats.table ();
    suggested = Hashtbl.create 8;
    legs = List.map (fun leg -> (leg, Stats.table ())) leg_names;
    serve_ms = Stats.table ();
    window_rps = [];
    cycles = 0;
    next_id = 0;
    compile_ledger = Ledger.create ();
    suggest_ledger = Ledger.create ();
  }

(** Check every response; returns the samples that came back right. *)
let check_responses r progs (samples : Client.sample array) =
  Array.to_list samples
  |> List.filter_map (fun (s : Client.sample) ->
         r.attempted <- r.attempted + 1;
         let expected = List.find_opt (fun p -> p.pname = s.Client.workload) progs in
         match (s.Client.response, expected) with
         | None, _ ->
             fail r "serve request for %s: no response" s.Client.workload;
             None
         | Some { Proto.rs_error = Some e; _ }, _ ->
             fail r "serve request for %s: error %s" s.Client.workload e;
             None
         | Some resp, Some p when resp.Proto.rs_digest = p.digest -> Some (s, resp)
         | Some _, _ ->
             fail r "serve request for %s: wrong output digest" s.Client.workload;
             None)

(** Send [arrivals] over the daemon connection with fresh request ids and
    keep the responses that came back right. *)
let send r t rd ~window arrivals =
  let first_id = t.next_id in
  t.next_id <- t.next_id + Array.length arrivals;
  Client.drive rd.fd ~first_id ~window ~timeout_s:60. arrivals
  |> check_responses r rd.progs

(** Everything a user pays before the first result: compile every source
    (the first compile of each is also the determinism baseline), build
    the compiled loop bodies cold into a fresh cache, run each execution
    leg once, start the daemon and have it compile each served program. *)
let setup_once r t ~rep =
  let t0 = now () in
  let compiled =
    List.filter_map
      (fun src ->
        Option.map
          (fun sv ->
            let sg = signature sv in
            (match Hashtbl.find_opt t.signatures src.s_name with
            | None -> Hashtbl.replace t.signatures src.s_name sg
            | Some first when first <> sg ->
                violation "%s: compile decided differently across set-ups" src.s_name
            | Some _ -> ());
            (src.s_name, sv))
          (attempt r ("compile " ^ src.s_name) (fun () -> compile_source src)))
      (sources r.cfg.workload)
  in
  Unix.putenv "COMMSET_CODEGEN_CACHE"
    (Filename.concat r.cfg.out_dir (Printf.sprintf "codegen-%d-%d" (Unix.getpid ()) rep));
  Codegen.reset_memo ();
  let progs =
    List.filter_map
      (fun name -> Option.map (make_prog name) (List.assoc_opt name compiled))
      r.cfg.workload.Workloads.programs
  in
  List.iter (fun p -> List.iter (fun leg -> ignore (run_leg r p leg)) (legs p)) progs;
  let daemon =
    Client.spawn ~exe:r.cfg.commsetc ~dir:r.cfg.out_dir
      ~tag:(Printf.sprintf "daemon-%d-%d" (Unix.getpid ()) rep)
  in
  let rd =
    try
      let rd = { progs; daemon; fd = Client.connect daemon } in
      ignore
        (send r t rd ~window:1
           (Array.of_list (List.map (fun (w, _) -> (0., w)) r.cfg.workload.Workloads.serve_mix)));
      rd
    with e ->
      Client.kill daemon;
      raise e
  in
  t.live <- Some rd;
  t.setup_s <- t.setup_s @ [ now () -. t0 ];
  t.codegen_s <- t.codegen_s @ [ Stats.sum (List.map (fun p -> p.cg.Codegen.cg_compile_s) progs) ];
  rd

let stop_daemon t rd =
  t.live <- None;
  (try Unix.close rd.fd with Unix.Unix_error _ -> ());
  Client.stop rd.daemon

(* ---------------------------------------------------------------- *)
(* One cycle                                                         *)
(* ---------------------------------------------------------------- *)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(** One pass of [P.prepare_service ~verify:true] over every source, in
    seeded order. Every compile must decide what the first one did. *)
let compile_pass r t ~traced =
  Recorder.set_enabled traced;
  let w0 = allocated_words () in
  List.iter
    (fun src ->
      match
        attempt r ("compile " ^ src.s_name) (fun () ->
            timed "compile" (fun () -> compile_source src))
      with
      | None -> ()
      | Some (sv, dt) ->
          if Some (signature sv) <> Hashtbl.find_opt t.signatures src.s_name then
            violation "%s: a compile pass decided differently from the first compile" src.s_name;
          Stats.add (if traced then t.compile_traced_s else t.compile_s) src.s_name dt)
    (shuffle r (sources r.cfg.workload));
  t.alloc_mwords <- ((allocated_words () -. w0) /. 1e6) :: t.alloc_mwords;
  Recorder.set_enabled r.cfg.trace;
  collect ?into:(if traced then Some t.compile_ledger else None) r

(** [Synth.suggest] on one program. Every call on a program must suggest
    the same annotations. *)
let suggest_one r t name =
  let e = registry_entry name in
  (match
     attempt r ("suggest " ^ name) (fun () ->
         timed "suggest" (fun () -> Synth.suggest ~name ~setup:e.W.setup e.W.source))
   with
  | None -> ()
  | Some (res, dt) ->
      let sgs = res.Synth.r_suggestions in
      let k = List.length (List.filter (fun s -> s.Synth.sg_recommended) sgs) in
      (match Hashtbl.find_opt t.suggested name with
      | None -> Hashtbl.replace t.suggested name (res.Synth.r_source, List.length sgs, k)
      | Some (src, _, _) when src <> res.Synth.r_source ->
          violation "%s: suggest produced different annotations across calls" name
      | Some _ -> ());
      Stats.add t.suggest_s name dt);
  collect ~into:t.suggest_ledger r

(** The three legs of every program, in seeded order; each output is
    checked against the sequential reference. *)
let exec_round r t rd =
  List.iter
    (fun p ->
      List.iter
        (fun ((leg, _) as l) ->
          Option.iter (Stats.add (List.assoc leg t.legs) p.pname) (run_leg r p l))
        (legs p))
    (shuffle r rd.progs);
  collect r

(** An endless stream of [block]'s elements, one seeded shuffle of the
    block after another: every element in exact proportion, only the
    order depends on the seed. *)
let rotation r block =
  let pending = ref [] in
  let rec next () =
    match !pending with
    | x :: rest ->
        pending := rest;
        x
    | [] ->
        pending := shuffle r block;
        next ()
  in
  next

let mix_stream r =
  rotation r
    (List.concat_map (fun (w, k) -> List.init k (fun _ -> w)) r.cfg.workload.Workloads.serve_mix)

(** [n] Poisson arrivals at [rate] from the daemon's own generator, each
    with the next program of the mix. *)
let arrivals r ~rate ~n =
  let g =
    Gen.create
      { Gen.default_spec with Gen.g_seed = r.cfg.seed; g_rate = rate; g_burst = 1.; g_mix = [ ("", 1.) ] }
  in
  let next = mix_stream r in
  Array.init n (fun _ -> (fst (Gen.next g), next ()))

(** A closed loop of one client (each served program once, the next
    request sent when the previous response arrives), then a saturation
    burst. The burst's first window carries the parked worker's wake-up,
    so its rate is taken from the windows after it. *)
let serve_round r t rd =
  send r t rd ~window:1
    (Array.of_list
       (List.map (fun w -> (0., w)) (shuffle r (List.map fst r.cfg.workload.Workloads.serve_mix))))
  |> List.iter (fun ((s : Client.sample), _) ->
         Stats.add t.serve_ms s.Client.workload ((s.Client.received -. s.Client.sent) *. 1e3));
  let received =
    send r t rd ~window:saturate_window
      (arrivals r ~rate:saturate_rps ~n:((burst_windows * window_responses) + 1))
    |> List.map (fun ((s : Client.sample), _) -> s.Client.received)
    |> Array.of_list
  in
  Array.sort Float.compare received;
  let w = window_responses in
  for i = 1 to ((Array.length received - 1) / w) - 1 do
    t.window_rps <-
      (float_of_int w /. Float.max 1e-9 (received.((i + 1) * w) -. received.(i * w)))
      :: t.window_rps
  done

(** Cycles until the cycles' share of the run is spent. The heap is
    compacted before each cycle, so garbage one cycle leaves does not
    slow the next one's collections. The [reps] set-ups are spread over
    the cycles: the k-th replaces the daemon once k/reps of the budget is
    spent. A traced run alternates compile passes recorder off and on:
    the on passes feed the ledger, and the two sets together give the
    recorder's overhead. *)
let run_cycles r t rd ~reps =
  let budget = (1. -. share_light) *. r.cfg.seconds in
  let t0 = now () in
  let rd = ref rd in
  let next_suggest = rotation r r.cfg.workload.Workloads.programs in
  let resetup () =
    ignore (stop_daemon t !rd : J.t);
    rd := setup_once r t ~rep:(List.length t.setup_s);
    collect r
  in
  rounds ~min:(if r.cfg.trace then 2 else 1) ~budget_s:budget (fun i ->
      let done_ = List.length t.setup_s in
      if done_ < reps && now () -. t0 >= budget *. float_of_int done_ /. float_of_int reps then
        resetup ();
      Gc.compact ();
      require_no_burns ();
      compile_pass r t ~traced:(r.cfg.trace && i mod 2 = 1);
      suggest_one r t (next_suggest ());
      exec_round r t !rd;
      serve_round r t !rd;
      t.cycles <- t.cycles + 1);
  while List.length t.setup_s < reps do
    resetup ()
  done;
  !rd

(* ---------------------------------------------------------------- *)
(* Traced extras and the light serve phase                           *)
(* ---------------------------------------------------------------- *)

(** One traced [P.run_parallel] per program on each engine, with
    attribution on, checked against the honesty bounds. *)
let parallel_set r progs =
  let cores = Domain.recommended_domain_count () in
  let jobs = jobs () in
  let bound = float_of_int (min (jobs + 1) cores) *. 1.05 in
  let acc : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let add k v = Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k)) in
  List.iter
    (fun p ->
      List.iter
        (fun engine ->
          let ename = Exec.engine_name engine in
          match
            attempt r
              (Printf.sprintf "%s run_parallel %s" p.pname ename)
              (fun () ->
                timed "run_parallel" (fun () ->
                    P.run_parallel ~engine ~jobs ~attrib:true p.comp p.plan))
          with
          | None -> ()
          | Some (x, dt) ->
              let s = x.P.xstats in
              let label = p.plan.Plan.label in
              if s.Exec.x_engine <> ename then
                violation "%s (%s): %s engine fell back to %s: %s" p.pname label ename
                  s.Exec.x_engine
                  (Option.value ~default:"" s.Exec.x_engine_reason);
              if s.Exec.x_iterations <> p.iterations then
                violation "%s (%s): parallel leg ran %d iteration(s), the trace recorded %d"
                  p.pname label s.Exec.x_iterations p.iterations;
              if s.Exec.x_measured_speedup > bound then
                violation
                  "%s (%s): measured %.2fx on %s exceeds min(jobs + 1, cores) x 1.05 = %.2fx"
                  p.pname label s.Exec.x_measured_speedup ename bound;
              if x.P.xfidelity = P.Mismatch then
                fail r "%s (%s): %s engine output MISMATCH" p.pname label ename;
              add "exec.run_parallel_s" dt;
              add ("exec.par_" ^ ename ^ "_s") s.Exec.x_wall_par_s;
              add ("exec.seq_ref_" ^ ename ^ "_s") s.Exec.x_wall_seq_s;
              add "exec.queue_empty_waits" (float_of_int s.Exec.x_queue_empty_waits);
              add "exec.queue_full_waits" (float_of_int s.Exec.x_queue_full_waits);
              add "exec.buffered_updates" (float_of_int s.Exec.x_buffered_updates);
              add "exec.steps" (float_of_int s.Exec.x_steps);
              Option.iter
                (fun (a : Attrib.summary) ->
                  List.iter
                    (fun (c : Attrib.cause) ->
                      add ("exec.cause." ^ c.Attrib.c_name ^ "_s") (c.Attrib.c_total_ns /. 1e9))
                    a.Attrib.a_causes;
                  let k = a.Attrib.a_coord in
                  add "exec.coord_wall_s" (k.Attrib.k_wall_ns /. 1e9);
                  add "exec.coord_busy_s" ((k.Attrib.k_wall_ns -. k.Attrib.k_dispatch_wait_ns) /. 1e9))
                s.Exec.x_attrib)
        [ Exec.Real_engine; Exec.Codegen_engine ])
    progs;
  let get k = Option.value ~default:0. (Hashtbl.find_opt acc k) in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    ("exec.speedup_real", ratio (get "exec.seq_ref_real_s") (get "exec.par_real_s"));
    ("exec.speedup_codegen", ratio (get "exec.seq_ref_codegen_s") (get "exec.par_codegen_s"));
    ("exec.seq_ref_s", get "exec.seq_ref_real_s" +. get "exec.seq_ref_codegen_s");
    ("exec.coord_utilization", ratio (get "exec.coord_busy_s") (get "exec.coord_wall_s"));
  ]
  @ Hashtbl.fold (fun k v l -> (k, v) :: l) acc []

type light = {
  latency_ms : float list;  (** from each request's intended send time *)
  queue_ms : float list;
  service_ms : float list;
  wire_ms : float list;  (** client round trip minus the daemon's queue and service time *)
  late_ms : float list;  (** how late the client sent, against the schedule *)
  requests : int;
}

(** Open-loop Poisson arrivals at the workload's light rate, timed from
    each request's intended send time. *)
let light_phase r t rd =
  let duration = Float.max 0.5 (share_light *. r.cfg.seconds) in
  let rate = r.cfg.workload.Workloads.light_rps in
  let ok = send r t rd ~window:max_int (arrivals r ~rate ~n:(int_of_float (rate *. duration))) in
  let ms f = List.map (fun (s, resp) -> f s resp) ok in
  {
    latency_ms = ms (fun s _ -> (s.Client.received -. s.Client.intended) *. 1e3);
    queue_ms = ms (fun _ resp -> resp.Proto.rs_queue_us /. 1e3);
    service_ms = ms (fun _ resp -> resp.Proto.rs_service_us /. 1e3);
    wire_ms =
      ms (fun s resp ->
          ((s.Client.received -. s.Client.sent) *. 1e3)
          -. ((resp.Proto.rs_queue_us +. resp.Proto.rs_service_us) /. 1e3));
    late_ms = ms (fun s _ -> (s.Client.sent -. s.Client.intended) *. 1e3);
    requests = List.length ok;
  }

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ---------------------------------------------------------------- *)

let metric ?(samples = []) name unit value = { name; unit; value; samples }

(* Compile stages: per-layer metric <- the existing span it is the
   self time of. *)
let compile_stages =
  [
    ("lang.frontend_s", "compile.parse");
    ("ir.lower_s", "compile.lower");
    ("analysis.effects_s", "compile.effects");
    ("core.metadata_s", "compile.metadata");
    ("runtime.prepare_s", "compile.prepare");
    ("runtime.profile_s", "compile.profile");
    ("pdg.build_s", "compile.pdg");
    ("transforms.sync_s", "compile.sync");
    ("verify.run_s", "compile.verify");
    ("pdg.planctx_s", "compile.planctx");
    ("transforms.plans_s", "pipeline.plans");
    ("runtime.sim_s", "pipeline.simulate");
  ]

(* The [parallel_set] values reported, with their units. *)
let exec_metrics =
  [
    ("exec.run_parallel_s", "s");
    ("exec.seq_ref_s", "s");
    ("exec.par_real_s", "s");
    ("exec.par_codegen_s", "s");
    ("exec.speedup_real", "ratio");
    ("exec.speedup_codegen", "ratio");
    ("exec.cause.dispatch_wait_s", "s");
    ("exec.cause.lock_wait_s", "s");
    ("exec.cause.builtin_s", "s");
    ("exec.cause.compute_s", "s");
    ("exec.cause.merge_s", "s");
    ("exec.coord_utilization", "ratio");
    ("exec.queue_empty_waits", "count");
    ("exec.queue_full_waits", "count");
    ("exec.buffered_updates", "count");
    ("exec.steps", "count");
  ]

let num_member path (v : J.t) =
  let rec go v = function
    | [] -> ( match v with J.Num f -> f | _ -> failwith ("not a number: " ^ String.concat "." path))
    | k :: rest -> (
        match J.member k v with
        | Some v -> go v rest
        | None -> failwith ("daemon status has no " ^ String.concat "." path))
  in
  go v path

(** The end-to-end metrics an untraced run reports, in order. *)
let end_to_end t =
  let low_sum name unit tbl = metric ~samples:(Stats.pass_totals tbl) name unit (Stats.low_sum tbl) in
  let leg name = low_sum (name ^ "_s") "s/round" (List.assoc name t.legs) in
  [
    metric ~samples:t.setup_s "setup_s" "s" (Stats.median t.setup_s);
    metric "peak_rss_mb" "MB" (Client.peak_rss_mb 0);
    low_sum "compile_s" "s/pass" t.compile_s;
    low_sum "suggest_s" "s/pass" t.suggest_s;
    leg "seq";
    leg "body_real";
    leg "body_codegen";
    low_sum "serve_ms" "ms/round" t.serve_ms;
    metric ~samples:t.window_rps "serve_capacity_rps" "1/s"
      (match t.window_rps with [] -> 0. | xs -> Stats.quantile xs 0.9);
  ]

(** The per-layer metrics a traced run reports, in order. *)
let per_layer r t ~par ~(light : light) ~status ~daemon_rss_mb ~spans =
  let srcs = sources r.cfg.workload in
  let count name f =
    metric name "count"
      (float_of_int
         (List.fold_left (fun acc src -> acc + f (Hashtbl.find t.signatures src.s_name)) 0 srcs))
  in
  (* ledger seconds per pass over all sources or programs *)
  let per_pass ledger span ~calls ~items =
    Ledger.self_s ledger span /. float_of_int (max 1 calls) *. float_of_int items
  in
  let calls tbl = Hashtbl.fold (fun _ xs n -> n + List.length xs) tbl 0 in
  let q name xs p = metric ~samples:xs name "ms" (match xs with [] -> 0. | _ -> Stats.quantile xs p) in
  let suggested f = Hashtbl.fold (fun _ v a -> a +. float_of_int (f v)) t.suggested 0. in
  List.map
    (fun (m, span) ->
      metric m "s/pass"
        (per_pass t.compile_ledger span ~calls:(calls t.compile_traced_s) ~items:(List.length srcs)))
    compile_stages
  @ [
      metric ~samples:t.alloc_mwords "pipeline.alloc_mwords" "Mwords/pass" (Stats.median t.alloc_mwords);
      count "pdg.nodes" (fun s -> fst s.pdg);
      count "pdg.edges" (fun s -> snd s.pdg);
      count "transforms.plans" (fun s -> List.length s.plans);
      count "verify.proved" (fun s -> let p, _, _ = s.verdicts in p);
      count "verify.pairs" (fun s -> let p, u, x = s.verdicts in p + u + x);
      metric "synth.self_s" "s/pass"
        (per_pass t.suggest_ledger "bench.suggest" ~calls:(calls t.suggest_s)
           ~items:(List.length r.cfg.workload.Workloads.programs));
      metric "synth.suggestions" "count" (suggested (fun (_, n, _) -> n));
      metric "synth.recommended" "count" (suggested (fun (_, _, k) -> k));
      metric ~samples:t.codegen_s "codegen.compile_s" "s" (Stats.median t.codegen_s);
    ]
  @ List.map
      (fun (m, unit) ->
        let xs = List.map (fun set -> Option.value ~default:0. (List.assoc_opt m set)) par in
        metric ~samples:xs m unit (match xs with [] -> 0. | _ -> Stats.median xs))
      exec_metrics
  @ [
      q "serve.latency_p50_ms" light.latency_ms 0.5;
      q "serve.latency_p90_ms" light.latency_ms 0.9;
      q "serve.queue_p50_ms" light.queue_ms 0.5;
      q "serve.queue_p90_ms" light.queue_ms 0.9;
      q "serve.service_p50_ms" light.service_ms 0.5;
      q "serve.service_p90_ms" light.service_ms 0.9;
      q "serve.wire_p50_ms" light.wire_ms 0.5;
      q "serve.gen_late_p90_ms" light.late_ms 0.9;
      metric "serve.compile_s" "s"
        (match J.member "workloads" status with
        | Some (J.Arr ws) -> Stats.sum (List.map (num_member [ "compile_s" ]) ws)
        | _ -> failwith "daemon status has no workloads");
      metric "serve.cache_misses" "count" (num_member [ "plan_cache"; "misses" ] status);
      metric "serve.cache_hit_rate" "ratio" (num_member [ "plan_cache"; "hit_rate" ] status);
      metric "serve.daemon_rss_mb" "MB" daemon_rss_mb;
      metric "obs.trace_overhead_frac" "ratio"
        ((Stats.low_sum t.compile_traced_s /. Stats.low_sum t.compile_s) -. 1.);
      metric "obs.spans" "count" (float_of_int spans);
    ]

(* ---------------------------------------------------------------- *)
(* The run                                                           *)
(* ---------------------------------------------------------------- *)

let summary xs =
  match xs with
  | [] -> []
  | _ ->
      [
        ("median", J.Num (Stats.median xs));
        ("p25", J.Num (Stats.quantile xs 0.25));
        ("p75", J.Num (Stats.quantile xs 0.75));
        ("n", Json.int (List.length xs));
      ]

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let nproc () =
  In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
      let rec count n =
        match In_channel.input_line ic with
        | Some line -> count (if String.starts_with ~prefix:"processor" line then n + 1 else n)
        | None -> n
      in
      count 0)

(** Run the workload once and write [out_dir/<workload>.json] (and, when
    traced, [out_dir/<workload>.trace.json]). Raises {!Violation} when a
    measurement breaks an honesty bound. *)
let run cfg : result =
  let started = Unix.gettimeofday () in
  mkdir_p cfg.out_dir;
  R.Costmodel.set_exec_ns_per_cycle 0.0;
  require_no_burns ();
  let r = { cfg; rng = Random.State.make [| cfg.seed |]; attempted = 0; failed = 0; spans = [] } in
  let t = new_tally () in
  (* set-ups and traced parallel sets: three at full length, fewer when
     the whole run is only a few seconds *)
  let reps = max 1 (min 3 (int_of_float (cfg.seconds /. 10.))) in
  let name = cfg.workload.Workloads.name in
  Recorder.reset ();
  Recorder.set_enabled cfg.trace;
  let cleanup () =
    Recorder.set_enabled false;
    Option.iter (fun rd -> Client.kill rd.daemon) t.live;
    Array.iter
      (fun f ->
        if String.starts_with ~prefix:(Printf.sprintf "codegen-%d-" (Unix.getpid ())) f then
          rm_rf (Filename.concat cfg.out_dir f))
      (Sys.readdir cfg.out_dir)
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Pool.with_jobs 1 @@ fun () ->
  let rd = setup_once r t ~rep:0 in
  collect r;
  let rd = run_cycles r t rd ~reps in
  let par =
    if not cfg.trace then []
    else
      List.init reps (fun _ ->
          let set = parallel_set r (shuffle r rd.progs) in
          collect r;
          set)
  in
  let light = light_phase r t rd in
  let daemon_rss_mb = Client.peak_rss_mb rd.daemon.Client.pid in
  let status = stop_daemon t rd in
  let metrics =
    if cfg.trace then
      per_layer r t ~par ~light ~status ~daemon_rss_mb
        ~spans:(List.fold_left (fun n l -> n + List.length l) 0 r.spans)
    else end_to_end t
  in
  if cfg.trace then begin
    let trace = Export.chrome_json (Export.of_recorder ~pid:0 (List.concat (List.rev r.spans))) in
    (match J.validate_chrome_trace trace with
    | Ok _ -> ()
    | Error e -> failwith ("trace failed validation: " ^ e));
    Out_channel.with_open_bin (Filename.concat cfg.out_dir (name ^ ".trace.json")) (fun oc ->
        output_string oc trace)
  end;
  let correct = r.failed = 0 in
  let items (tbl : Stats.table) =
    J.Obj
      (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
      |> List.sort compare
      |> List.map (fun k ->
             let xs = Stats.samples tbl k in
             (k, J.Obj (("p10", J.Num (Stats.low xs)) :: summary xs))))
  in
  let spans =
    let all = Ledger.create () in
    (* span ids repeat across dumps, so fold each dump on its own *)
    List.iter (Ledger.add all) r.spans;
    List.map
      (fun (n, (en : Ledger.entry)) ->
        J.Obj
          [
            ("name", J.Str n);
            ("count", Json.int en.Ledger.count);
            ("total_s", J.Num en.Ledger.total_s);
            ("self_s", J.Num en.Ledger.self_s);
          ])
      (Ledger.rows all)
  in
  let document =
    J.Obj
      [
        ("workload", J.Str name);
        ("why", J.Str cfg.workload.Workloads.why);
        ("mode", J.Str (if cfg.trace then "traced" else "untraced"));
        ( "provenance",
          J.Obj
            [
              ( "git_sha",
                J.Str
                  (match Sys.getenv_opt "COMMSET_PERF_GIT_SHA" with
                  | Some s when s <> "" -> s
                  | _ -> "unknown") );
              ("nproc", Json.int (nproc ()));
              ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
              ("ocaml_version", J.Str Sys.ocaml_version);
              ("seed", Json.int cfg.seed);
              ("seconds", J.Num cfg.seconds);
              ("started_unix", J.Num started);
              ("jobs", Json.int (jobs ()));
              ("programs", J.Arr (List.map (fun p -> J.Str p) cfg.workload.Workloads.programs));
              ( "lengths",
                J.Obj
                  [
                    ("setups", Json.int (List.length t.setup_s));
                    ("cycles", Json.int t.cycles);
                    ("saturation_windows", Json.int (List.length t.window_rps));
                    ("parallel_sets", Json.int (List.length par));
                    ("light_requests", Json.int light.requests);
                  ] );
            ] );
        ("correct", J.Bool correct);
        ("attempted", Json.int r.attempted);
        ("failed", Json.int r.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   J.Obj
                     ([ ("value", J.Num m.value); ("unit", J.Str m.unit) ] @ summary m.samples) ))
               metrics) );
        ( "items",
          J.Obj
            ([ ("compile_s", items t.compile_s); ("suggest_s", items t.suggest_s) ]
            @ List.map (fun (leg, tbl) -> (leg ^ "_s", items tbl)) t.legs
            @ [ ("serve_ms", items t.serve_ms) ]) );
        ("spans", J.Arr spans);
      ]
  in
  Out_channel.with_open_bin (Filename.concat cfg.out_dir (name ^ ".json")) (fun oc ->
      output_string oc (Json.to_string document);
      output_char oc '\n');
  { correct; attempted = r.attempted; failed = r.failed; metrics }

(** The result line printed last: correctness, counts and every metric of
    the run's mode with its value and unit. *)
let summary_line (res : result) =
  Json.to_string
    (J.Obj
       [
         ("correct", J.Bool res.correct);
         ("attempted", Json.int res.attempted);
         ("failed", Json.int res.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun m -> (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit) ]))
                res.metrics) );
       ])

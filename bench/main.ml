(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Table 1, Table 2, Figures 2, 3, 6a-h and 6i), the
    speculative extension, the ablations and the headline geomean.

    Run with [dune exec bench/main.exe]. Set COMMSET_BENCH_QUICK=1 to skip
    the 1..8-thread sweeps (Table 2 and the 8-thread results only).

    It then writes [BENCH_commset.json] with the measurements the
    repository benchmark ([bench/perf]) does not take: the evaluation
    pipeline's stage times with the domain pool at 1 job and at the
    default job count (and whether the two render identical tables),
    the flight recorder's overhead, each workload's attribution profile
    and predicted-vs-measured gap, and the attribution layer's overhead
    per engine. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module Report = Commset_report
module Obs = Commset_obs

module J = Obs.Json_strict

let md5sum = Option.get (Registry.find "md5sum")

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Wall-clock timings of the evaluation pipeline, sequential vs        *)
(* parallel, written to BENCH_commset.json                             *)
(* ------------------------------------------------------------------ *)

module Pool = Commset_support.Pool

(** GC pressure of one stage, from {!Gc.quick_stat} deltas on the
    calling domain. With jobs=1 this is exact; with worker domains it
    understates (workers keep their own counters) but still tracks the
    coordinator's share of the allocation story. *)
type gc_delta = {
  gd_minor : int;  (** minor collections *)
  gd_major : int;  (** major collections *)
  gd_alloc_mw : float;  (** words allocated, in millions *)
}

let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    gd_minor = b.Gc.minor_collections - a.Gc.minor_collections;
    gd_major = b.Gc.major_collections - a.Gc.major_collections;
    gd_alloc_mw = (words b -. words a) /. 1e6;
  }

let gc_zero = { gd_minor = 0; gd_major = 0; gd_alloc_mw = 0. }

let timed f =
  let s0 = Gc.quick_stat () in
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  let dt = (Obs.Clock.now_ns () -. t0) /. 1e9 in
  let s1 = Gc.quick_stat () in
  (r, dt, gc_delta s0 s1)

type stage_times = {
  st_jobs : int;
  st_compile : float;
  st_eval : float;
  st_sweep : float;  (** full evaluate_all with sweeps; 0 in quick mode *)
  st_gc_compile : gc_delta;
  st_gc_eval : gc_delta;
  st_gc_sweep : gc_delta;
  st_table2 : string;
}

let st_total st = st.st_compile +. st.st_eval +. st.st_sweep

(** Run the three pipeline stages with the pool fixed at [jobs] domains.
    Stages are deliberately independent full passes: "compile" is every
    workload and variant through {!P.compile}, "evaluate_all" adds the
    8-thread simulations, "sweep" adds the 1..8-thread sweeps. *)
let measure_stages ~sweep ~jobs : stage_times =
  Pool.with_jobs jobs (fun () ->
      let sources =
        List.concat_map
          (fun w ->
            (w.W.wname, w.W.setup, w.W.source)
            :: List.map
                 (fun (vn, src) -> (w.W.wname ^ "/" ^ vn, w.W.setup, src))
                 w.W.variants)
          Registry.all
      in
      let _, t_compile, gc_compile =
        timed (fun () ->
            Pool.parmap (fun (name, setup, src) -> P.compile ~name ~setup src) sources)
      in
      let evals, t_eval, gc_eval =
        timed (fun () -> Report.Evaluation.evaluate_all ~sweep:false ())
      in
      let t_sweep, gc_sweep =
        if sweep then
          let _, t, g =
            timed (fun () -> ignore (Report.Evaluation.evaluate_all ~sweep:true ()))
          in
          (t, g)
        else (0., gc_zero)
      in
      {
        st_jobs = jobs;
        st_compile = t_compile;
        st_eval = t_eval;
        st_sweep = t_sweep;
        st_gc_compile = gc_compile;
        st_gc_eval = gc_eval;
        st_gc_sweep = gc_sweep;
        st_table2 = Report.Evaluation.render_table2 evals;
      })

let json_of_gc g =
  J.Obj
    [
      ("minor_collections", J.int g.gd_minor);
      ("major_collections", J.int g.gd_major);
      ("allocated_mwords", J.Num g.gd_alloc_mw);
    ]

let json_of_stages st =
  J.Obj
    [
      ("jobs", J.int st.st_jobs);
      ("compile_s", J.Num st.st_compile);
      ("evaluate_all_s", J.Num st.st_eval);
      ("sweep_s", J.Num st.st_sweep);
      ("total_s", J.Num (st_total st));
      ( "gc",
        J.Obj
          [
            ("compile", json_of_gc st.st_gc_compile);
            ("evaluate_all", json_of_gc st.st_gc_eval);
            ("sweep", json_of_gc st.st_gc_sweep);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead guard                                      *)
(* ------------------------------------------------------------------ *)

(** Aggregate recorded spans into a per-stage summary:
    [(name, count, total seconds)], sorted by name. *)
let span_summary (spans : Obs.Recorder.span list) : (string * int * float) list =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Recorder.span) ->
      let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.Obs.Recorder.name) in
      Hashtbl.replace tbl s.Obs.Recorder.name
        (c + 1, t +. ((s.Obs.Recorder.t1_ns -. s.Obs.Recorder.t0_ns) /. 1e9)))
    spans;
  Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl [] |> List.sort compare

type recorder_overhead = {
  ro_off_s : float;
  ro_on_s : float;
  ro_wall_ratio : float;  (** median per-pair on/off wall ratio *)
  ro_span_cost_ns : float;  (** marginal cost of one enabled with_span *)
  ro_spans_per_eval : float;
  ro_frac : float;
      (** gated overhead estimate: span cost x spans per evaluate over
          the evaluate wall time. The wall ratio is reported but not
          gated — on a busy 1-core box scheduler noise at the 100 ms
          scale dwarfs a sub-0.1% recorder cost. *)
  ro_spans : (string * int * float) list;  (** from the recorder-on leg *)
}

(** Marginal per-call cost of an enabled [with_span] over a disabled
    one, from tight loops of [n] spans over a trivial thunk (buffer
    reset between reps so no rep hits the drop path); min of 3 reps. *)
let span_cost_ns () =
  let n = 20_000 in
  let rep enabled =
    Obs.Recorder.reset ();
    Obs.Recorder.set_enabled enabled;
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to n do
      Obs.Recorder.with_span "bench.nop" (fun () -> ())
    done;
    let dt = Obs.Clock.now_ns () -. t0 in
    Obs.Recorder.set_enabled false;
    Obs.Recorder.reset ();
    dt /. float_of_int n
  in
  let best f = Float.min (f ()) (Float.min (f ()) (f ())) in
  ignore (rep false);
  ignore (rep true);
  let off = best (fun () -> rep false) in
  let on = best (fun () -> rep true) in
  Float.max 0. (on -. off)

(** Time [P.evaluate] on a compiled workload with the recorder off and
    on: warm-up run, then min of two timed reps per leg, pool pinned to
    one job so domain scheduling noise stays out of the comparison. The
    CI bench-smoke gate fails when the measured overhead exceeds 5%. *)
let bench_recorder_overhead comp : recorder_overhead =
  section "Flight-recorder overhead: evaluate with spans off vs on";
  Pool.with_jobs 1 (fun () ->
      (* batch several evaluates per rep: one evaluate is a few
         milliseconds, too short to resolve a 5% difference *)
      let rep enabled =
        (* start every rep from the same GC state: major-collection
           slices landing on arbitrary reps dwarf the recorder's cost *)
        Gc.full_major ();
        Obs.Recorder.set_enabled enabled;
        let t0 = Obs.Clock.now_ns () in
        for _ = 1 to 32 do
          ignore (P.evaluate comp ~threads:8)
        done;
        let dt = (Obs.Clock.now_ns () -. t0) /. 1e9 in
        Obs.Recorder.set_enabled false;
        dt
      in
      (* warm both paths, then time off/on in adjacent pairs: reps that
         run back to back share the machine's slow and fast phases, so
         the per-pair ratio cancels drift that independent minima can't;
         the median ratio over the pairs is the overhead estimate *)
      ignore (rep false);
      ignore (rep true);
      Obs.Recorder.reset ();
      let n_pairs = 5 in
      let ratios = ref [] in
      let t_off = ref infinity and t_on = ref infinity in
      for _ = 1 to n_pairs do
        let off = rep false in
        let on = rep true in
        t_off := Float.min !t_off off;
        t_on := Float.min !t_on on;
        ratios := (on /. off) :: !ratios
      done;
      let t_off = !t_off and t_on = !t_on in
      let median =
        let sorted = List.sort compare !ratios in
        List.nth sorted (n_pairs / 2)
      in
      let raw_spans = Obs.Recorder.dump () in
      let spans = span_summary raw_spans in
      Obs.Recorder.reset ();
      let cost_ns = span_cost_ns () in
      (* the on-leg recorded [n_pairs] reps of 32 evaluates each *)
      let spans_per_eval = float_of_int (List.length raw_spans) /. float_of_int (n_pairs * 32) in
      let eval_ns = t_off /. 32. *. 1e9 in
      let frac = spans_per_eval *. cost_ns /. Float.max 1. eval_ns in
      Printf.printf
        "  recorder off %.4fs   on %.4fs   wall ratio (median) %+.2f%%\n" t_off t_on
        (100. *. (median -. 1.));
      Printf.printf
        "  span cost %.0f ns x %.1f span(s)/evaluate = %.4f%% of an evaluate (gated at 5%%)\n"
        cost_ns spans_per_eval (100. *. frac);
      List.iter
        (fun (name, count, total) ->
          Printf.printf "    %-24s %6d span(s)  %8.4fs total\n" name count total)
        spans;
      {
        ro_off_s = t_off;
        ro_on_s = t_on;
        ro_wall_ratio = median;
        ro_span_cost_ns = cost_ns;
        ro_spans_per_eval = spans_per_eval;
        ro_frac = frac;
        ro_spans = spans;
      })

let json_of_overhead ro =
  let span (name, count, total) =
    J.Obj [ ("name", J.Str name); ("count", J.int count); ("total_s", J.Num total) ]
  in
  J.Obj
    [
      ("off_s", J.Num ro.ro_off_s);
      ("on_s", J.Num ro.ro_on_s);
      ("wall_ratio_median", J.Num ro.ro_wall_ratio);
      ("span_cost_ns", J.Num ro.ro_span_cost_ns);
      ("spans_per_eval", J.Num ro.ro_spans_per_eval);
      ("overhead_frac", J.Num ro.ro_frac);
      ("spans", J.Arr (List.map span ro.ro_spans));
    ]

(* ------------------------------------------------------------------ *)
(* Execution observatory: attribution profiles, the predicted-vs-      *)
(* measured gap and the attribution overhead gate                      *)
(* ------------------------------------------------------------------ *)

module Attrib = Obs.Attrib

type profile_row = {
  ep_workload : string;
  ep_plan : string;
  ep_engine : string;
  ep_p95_lock_wait_ns : float;
  ep_p95_frontier_wait_ns : float;
  ep_gap : float;  (** |predicted − measured| / measured *)
  ep_oversubscribed : bool;
}

type overhead_row = {
  ao_engine : string;
  ao_off_s : float;  (** median parallel wall, attribution off *)
  ao_on_s : float;  (** median parallel wall, attribution on *)
  ao_overhead_frac : float;  (** median per-pair on/off ratio − 1 *)
  ao_oversubscribed : bool;
      (** coordinator + worker time-sliced on one core: the ratio is
          scheduler noise, so the CI gate skips it *)
}

let speedup_gap ~predicted ~measured =
  Float.abs (predicted -. measured) /. Float.max 1e-9 measured

let cause_p95 (s : Attrib.summary) name =
  match List.find_opt (fun c -> c.Attrib.c_name = name) s.Attrib.a_causes with
  | Some c -> c.Attrib.c_p95_ns
  | None -> 0.

(** Per workload: run the best executable plan with attribution on, once
    to warm up and then [samples] times, and record the p95 lock/frontier
    waits and the predicted-vs-measured gap of the run with the median
    measured speedup. One cold run's speedup follows GC pacing more than
    the plan. *)
let bench_exec_profile evals : int * bool * profile_row list =
  let samples = 5 in
  let jobs = Commset_exec.Exec.default_jobs () in
  let cores = Domain.recommended_domain_count () in
  let oversubscribed = cores < jobs + 1 in
  section
    (Printf.sprintf "Execution observatory: attribution and predicted-vs-measured gap (jobs=%d)"
       jobs);
  if oversubscribed then
    Printf.printf
      "  note: %d core(s) for %d domain(s); measured gaps are time-slicing artifacts\n"
      cores (jobs + 1);
  let rows =
    List.filter_map
      (fun be ->
        let c = be.Report.Evaluation.be_primary.Report.Evaluation.v_comp in
        let runs = P.evaluate c ~threads:jobs in
        let pick =
          List.find_opt
            (fun (r : P.run) -> Result.is_ok (Commset_exec.Exec.supported r.P.plan))
            runs
        in
        match pick with
        | None ->
            Printf.printf "  %-10s no executable plan at jobs=%d; skipped\n" c.P.name
              jobs;
            None
        | Some r -> (
            let run () = P.run_parallel ~jobs c r.P.plan in
            ignore (run ());
            let speedup (x : P.exec_run) = x.P.xstats.Commset_exec.Exec.x_measured_speedup in
            let x =
              List.init samples (fun _ -> run ())
              |> List.sort (fun a b -> Float.compare (speedup a) (speedup b))
              |> Fun.flip List.nth (samples / 2)
            in
            match x.P.xstats.Commset_exec.Exec.x_attrib with
            | None ->
                Printf.printf "  %-10s ran without attribution (%s); skipped\n"
                  c.P.name x.P.xstats.Commset_exec.Exec.x_engine;
                None
            | Some s ->
                Some
                  {
                    ep_workload = c.P.name;
                    ep_plan = r.P.plan.T.Plan.label;
                    ep_engine = x.P.xstats.Commset_exec.Exec.x_engine;
                    ep_p95_lock_wait_ns = cause_p95 s "lock_wait";
                    ep_p95_frontier_wait_ns = cause_p95 s "frontier_wait";
                    ep_gap = speedup_gap ~predicted:x.P.xpredicted ~measured:(speedup x);
                    ep_oversubscribed = oversubscribed;
                  }))
      evals
  in
  List.iter
    (fun r ->
      Printf.printf "  %-10s %-40s p95 lock %8.1fus  p95 frontier %8.1fus  gap %5.1f%%\n"
        r.ep_workload r.ep_plan
        (r.ep_p95_lock_wait_ns /. 1e3)
        (r.ep_p95_frontier_wait_ns /. 1e3)
        (100. *. r.ep_gap))
    rows;
  (jobs, oversubscribed, rows)

(** Attribution overhead: the best executable plan of md5sum at one
    worker, attribution off vs on, interleaved pairs (the same drift
    logic as the recorder gate), per engine. The CI bench-smoke gate
    fails when the median regression exceeds 5% on a non-oversubscribed
    box. *)
let bench_attrib_overhead comp : overhead_row list =
  section "Attribution overhead: real/codegen parallel wall, off vs on";
  let rounds = 7 in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let plan =
    List.find_opt
      (fun (p : T.Plan.t) -> p.T.Plan.shape = T.Plan.Sdoall)
      (P.executable_plans comp ~threads:1)
  in
  match plan with
  | None -> []
  | Some plan ->
      let oversubscribed = Domain.recommended_domain_count () < 2 in
      List.map
        (fun engine ->
          let run attrib =
            let x = P.run_parallel ~engine ~jobs:1 ~attrib comp plan in
            x.P.xstats.Commset_exec.Exec.x_wall_par_s
          in
          (* warm both paths (codegen compiles on the first call) *)
          ignore (run false);
          ignore (run true);
          let offs = ref [] and ons = ref [] and ratios = ref [] in
          for _ = 1 to rounds do
            Gc.full_major ();
            let off = run false in
            let on = run true in
            offs := off :: !offs;
            ons := on :: !ons;
            ratios := (on /. Float.max 1e-9 off) :: !ratios
          done;
          let row =
            {
              ao_engine = Commset_exec.Exec.engine_name engine;
              ao_off_s = median !offs;
              ao_on_s = median !ons;
              ao_overhead_frac = median !ratios -. 1.;
              ao_oversubscribed = oversubscribed;
            }
          in
          Printf.printf "  %-8s off %.4fs  on %.4fs  overhead %+.2f%% (gated at 5%%%s)\n"
            row.ao_engine row.ao_off_s row.ao_on_s
            (100. *. row.ao_overhead_frac)
            (if oversubscribed then "; oversubscribed, gate skips" else "");
          row)
        [ Commset_exec.Exec.Real_engine; Commset_exec.Exec.Codegen_engine ]

let json_of_exec_profile (jobs, oversubscribed, rows) overhead =
  let row r =
    J.Obj
      [
        ("workload", J.Str r.ep_workload);
        ("plan", J.Str r.ep_plan);
        ("engine", J.Str r.ep_engine);
        ("p95_lock_wait_ns", J.Num r.ep_p95_lock_wait_ns);
        ("p95_frontier_wait_ns", J.Num r.ep_p95_frontier_wait_ns);
        ("gap", J.Num r.ep_gap);
        ("oversubscribed", J.Bool r.ep_oversubscribed);
      ]
  in
  let overhead_row o =
    J.Obj
      [
        ("engine", J.Str o.ao_engine);
        ("off_s", J.Num o.ao_off_s);
        ("on_s", J.Num o.ao_on_s);
        ("overhead_frac", J.Num o.ao_overhead_frac);
        ("oversubscribed", J.Bool o.ao_oversubscribed);
      ]
  in
  J.Obj
    [
      ("jobs", J.int jobs);
      ("oversubscribed", J.Bool oversubscribed);
      ("workloads", J.Arr (List.map row rows));
      ("overhead", J.Arr (List.map overhead_row overhead));
    ]

let bench_wall_clock ~quick ~overhead ~exec_profile =
  section "Pipeline wall-clock: sequential vs parallel";
  let seq = measure_stages ~sweep:(not quick) ~jobs:1 in
  (* Pool.default_jobs honors COMMSET_JOBS; Domain.recommended_domain_count
     is what the machine actually offers *)
  let cores = Domain.recommended_domain_count () in
  let par_jobs = Pool.default_jobs () in
  let line label st =
    Printf.printf
      "  %-22s compile %6.2fs  evaluate_all %6.2fs  sweep %6.2fs  total %6.2fs wall\n"
      label st.st_compile st.st_eval st.st_sweep (st_total st);
    let gc tag g =
      Printf.printf "    %-14s gc: %5d minor  %3d major  %8.1f Mwords alloc\n"
        tag g.gd_minor g.gd_major g.gd_alloc_mw
    in
    gc "compile" st.st_gc_compile;
    gc "evaluate_all" st.st_gc_eval;
    if st.st_sweep > 0. then gc "sweep" st.st_gc_sweep
  in
  line "sequential (jobs=1)" seq;
  (* a "parallel" leg with one domain would just re-run the sequential
     leg and report a meaningless speedup; skip it and say so *)
  let par =
    if par_jobs <= 1 then begin
      Printf.printf
        "  parallel leg skipped: only 1 domain available (cores=%d, COMMSET_JOBS=%s)\n"
        cores
        (Option.value ~default:"unset" (Sys.getenv_opt "COMMSET_JOBS"));
      None
    end
    else begin
      let par = measure_stages ~sweep:(not quick) ~jobs:par_jobs in
      line (Printf.sprintf "parallel (jobs=%d)" par_jobs) par;
      let identical = String.equal seq.st_table2 par.st_table2 in
      let speedup = st_total seq /. Float.max 1e-9 (st_total par) in
      Printf.printf "  parallel speedup %.2fx wall; identical tables: %b\n" speedup
        identical;
      Some (par, speedup, identical)
    end
  in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "commset-evaluation-pipeline");
        ("quick", J.Bool quick);
        ("available_cores", J.int cores);
        ("recommended_domains", J.int cores);
        ("jobs", J.int par_jobs);
        ("sequential", json_of_stages seq);
        ("parallel", J.opt (fun (p, _, _) -> json_of_stages p) par);
        ("parallel_speedup", J.opt (fun (_, s, _) -> J.Num s) par);
        ("identical_tables", J.opt (fun (_, _, i) -> J.Bool i) par);
        ("recorder", json_of_overhead overhead);
        ("exec_profile", exec_profile);
      ]
  in
  (* expanded three levels deep: the committed file is reviewed as a diff *)
  Out_channel.with_open_bin "BENCH_commset.json" (fun oc ->
      Out_channel.output_string oc (J.to_string ~expand:3 doc ^ "\n"));
  Printf.printf "  wrote BENCH_commset.json\n"

(* ------------------------------------------------------------------ *)
(* Paper artifacts                                                     *)
(* ------------------------------------------------------------------ *)

let () =
  let quick = Sys.getenv_opt "COMMSET_BENCH_QUICK" <> None in
  (* one md5sum compilation (and its deterministic variant) feeds both
     figures and the overhead legs *)
  let md5_comp = P.compile ~name:"md5sum" ~setup:md5sum.W.setup md5sum.W.source in
  let md5_det =
    let det = List.assoc "deterministic" md5sum.W.variants in
    P.compile ~name:"md5sum-det" ~setup:md5sum.W.setup det
  in

  section "Table 1: comparison of commutativity-based IPP systems";
  print_endline (Report.Table1.render ());

  section "Figure 2: annotated PDG for md5sum";
  print_endline (Report.Evaluation.render_figure2 ~comp:md5_comp ());

  section "Figure 3: md5sum timelines";
  print_endline (Report.Evaluation.render_figure3 ~comp:md5_comp ~comp_det:md5_det ());

  Printf.printf "\nEvaluating all eight workloads%s...\n%!"
    (if quick then " (quick: 8 threads only)" else " (threads 1..8)");
  let evals = Report.Evaluation.evaluate_all ~sweep:(not quick) () in

  section "Table 2: programs, annotations, transforms, best schemes";
  print_endline (Report.Evaluation.render_table2 evals);

  if not quick then begin
    section "Figure 6: speedup vs thread count";
    List.iter
      (fun be ->
        print_endline (Report.Evaluation.render_figure6 be);
        print_newline ())
      evals;
    print_endline (Report.Evaluation.render_geomean evals)
  end;

  section "Extension: speculative (runtime-checked) commutativity";
  let geti = Option.get (Registry.find "geti") in
  let dyn = List.assoc "dynamic" geti.W.variants in
  let cd = P.compile ~name:"geti/dynamic" ~setup:geti.W.setup dyn in
  Printf.printf
    "geti with data-dependent predicates (static proof impossible):\n";
  List.iter
    (fun (r : P.run) ->
      Printf.printf "  %-44s %5.2fx  aborts=%d  %s\n" r.P.plan.T.Plan.label r.P.speedup
        r.P.tx_aborts
        (Commset_exec.Equiv.verdict_to_string r.P.fidelity))
    (Commset_support.Listx.take 4 (P.evaluate cd ~threads:8));

  if not quick then begin
    section "Ablations";
    print_string (Report.Ablation.render ())
  end;

  let best_speedups =
    List.map (fun be -> be.Report.Evaluation.be_best.P.speedup) evals
  in
  let noncomm_speedups =
    List.map
      (fun be ->
        match be.Report.Evaluation.be_best_noncomm with
        | Some r -> max 1.0 r.P.speedup
        | None -> 1.0)
      evals
  in
  section "Headline";
  Printf.printf "Geomean best COMMSET speedup on 8 threads:     %.2fx (paper: 5.7x)\n"
    (Report.Evaluation.geomean best_speedups);
  Printf.printf "Geomean best non-COMMSET speedup on 8 threads: %.2fx (paper: 1.5x)\n"
    (Report.Evaluation.geomean noncomm_speedups);

  let overhead = bench_recorder_overhead md5_comp in
  let profile = bench_exec_profile evals in
  let attrib_overhead = bench_attrib_overhead md5_comp in
  let exec_profile = json_of_exec_profile profile attrib_overhead in
  bench_wall_clock ~quick ~overhead ~exec_profile

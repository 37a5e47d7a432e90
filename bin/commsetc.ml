(** commsetc — the COMMSET parallelizing compiler driver.

    Subcommands mirror the paper's workflow (Figure 5):
    - [list]      the bundled evaluation workloads;
    - [check]     frontend + metadata + well-formedness checks;
    - [pdg]       the annotated PDG of the hottest loop (Figure 2 style);
    - [plans]     the parallelization plans the transforms produce;
    - [run]       simulate plans on the virtual multicore and report
                  speedups and output fidelity — or, with [--jobs N],
                  execute them on N real OCaml domains with an
                  output-equivalence check against the sequential run;
    - [seq]       run the program sequentially and print its output;
    - [serve]     the request-serving daemon: warm domain pool, plan
                  cache, open-loop selftest harness (DESIGN §18);
    - [trace]     flight-recorder trace + metrics of a full evaluation
                  (Chrome trace-event JSON, loadable in Perfetto);
    - [table1]    the paper's Table 1 feature-comparison matrix.

    Observability hooks that work on $(i,every) subcommand:
    [COMMSET_TRACE=path] enables the flight recorder for the whole
    invocation and writes a Chrome trace at exit; [COMMSET_LOG=level]
    sets the default log level. *)

open Cmdliner
module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module R = Commset_runtime
module V = Commset_verify
module Diag = Commset_support.Diag
module Obs = Commset_obs

let load ~workload ~variant ~file : string * string * (R.Machine.t -> unit) =
  match (workload, file) with
  | Some name, None -> (
      match Registry.find name with
      | Some w -> (
          match variant with
          | None -> (w.W.wname, w.W.source, w.W.setup)
          | Some v -> (
              match List.assoc_opt v w.W.variants with
              | Some src -> (w.W.wname ^ "/" ^ v, src, w.W.setup)
              | None ->
                  Fmt.epr "unknown variant '%s' (available: %s)@." v
                    (String.concat ", " (List.map fst w.W.variants));
                  exit 2))
      | None ->
          Fmt.epr "unknown workload '%s' (try: %s)@." name
            (String.concat ", " Registry.names);
          exit 2)
  | None, Some path ->
      let src =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with Sys_error reason ->
          Commset_support.Diag.error ~code:"CS008" "cannot read input file '%s': %s"
            path reason
      in
      (Filename.basename path, src, (fun _ -> ()))
  | _ ->
      Fmt.epr "exactly one of WORKLOAD or --file is required@.";
      exit 2

let setup_logs level =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some level)

let with_diag f =
  try R.Precompile.fuel_guard f with
  | Commset_support.Diag.Error d ->
      Fmt.epr "%s@." (Commset_support.Diag.to_string d);
      exit 1

(* ---- common arguments ---- *)

let workload_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:"Bundled workload name.")

let variant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "variant" ] ~docv:"NAME" ~doc:"Annotation variant of the workload.")

let file_arg =
  (* a plain string, not [Arg.file]: unreadable paths must surface as a
     proper CS008 diagnostic, not a cmdliner parse error *)
  Arg.(
    value
    & opt (some string) None
    & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Compile a miniC source file instead.")

(* Count and rate flags share one converter: a value outside the flag's
   range is a usage error (exit 2), and each flag's help states the range. *)
let bounded of_string pp ~range ok =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got '%s'" range s))
  in
  Arg.conv (parse, pp)

let count ~min =
  bounded int_of_string_opt Format.pp_print_int
    ~range:(Printf.sprintf "an integer of at least %d" min)
    (fun n -> n >= min)

let threads_arg =
  Arg.(
    value
    & opt (count ~min:1) 8
    & info [ "threads"; "t" ] ~docv:"N"
        ~doc:"Thread count the plans target, at least 1 (the paper's evaluation uses 1-8).")

(* --engine and --jobs of the real-execution subcommands (run, stat) *)
let engine_arg =
  Arg.(
    value
    & opt (some (enum Commset_exec.Exec.engines)) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine for real runs: $(b,real) (run the prepared program itself \
           on domains; the default) or $(b,codegen) (like real, with the iteration \
           body compiled to native code — falls back to real with a printed reason \
           when the toolchain or body shape defeats it; cache under \
           \\$COMMSET_CODEGEN_CACHE, \\$XDG_CACHE_HOME/commset-codegen or \
           _build/codegen). For $(b,run) it implies real execution even without \
           --jobs.")

let jobs_arg =
  Arg.(
    value
    & opt (some (count ~min:1)) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker-domain count for real execution, at least 1; defaults to the \
           machine's available cores minus one. For $(b,run) it executes the plans \
           on $(docv) real OCaml domains instead of simulating them, with a \
           mandatory output-equivalence check against the sequential reference.")

let log_level_arg =
  let conv_level =
    Arg.enum [ ("debug", Logs.Debug); ("info", Logs.Info); ("warn", Logs.Warning) ]
  in
  Arg.(
    value
    & opt conv_level Logs.Warning
    & info [ "log-level" ] ~docv:"LEVEL"
        ~env:(Cmd.Env.info "COMMSET_LOG" ~doc:"Default log level.")
        ~doc:
          "Log verbosity: $(b,debug), $(b,info) or $(b,warn). $(b,info) reports the \
           parallelization workflow stages (Figure 5); $(b,debug) additionally traces \
           the domain pool ($(b,commset.pool)), the simulator ($(b,commset.sim)) and \
           the annotation verifier ($(b,commset.verify)).")

(* ---- subcommands ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Fmt.pr "%-8s  %s@." w.W.wname w.W.description;
        List.iter (fun (v, _) -> Fmt.pr "%-8s    variant: %s@." "" v) w.W.variants)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled evaluation workloads") Term.(const run $ const ())

let check_cmd =
  let run workload variant file level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let c = P.compile ~name ~setup src in
        Fmt.pr "%s: OK@." name;
        Fmt.pr "  %d COMMSET annotations, features: %s@." (P.count_annotations src)
          (String.concat "," (P.features_used c));
        Fmt.pr "  commsets:@.";
        List.iter
          (fun (s : Commset_core.Metadata.set_info) ->
            Fmt.pr "    %-16s %s%s%s rank=%d members=[%s]@." s.Commset_core.Metadata.sname
              (match s.Commset_core.Metadata.kind with
              | Commset_lang.Ast.Self_set -> "self"
              | Commset_lang.Ast.Group_set -> "group")
              (if s.Commset_core.Metadata.predicate <> None then " predicated" else "")
              (if s.Commset_core.Metadata.nosync then " nosync" else "")
              s.Commset_core.Metadata.rank
              (String.concat "; "
                 (List.map Commset_core.Metadata.member_to_string
                    (Commset_core.Metadata.members_of c.P.md s.Commset_core.Metadata.sname))))
          (Commset_core.Metadata.sets_in_rank_order c.P.md);
        Fmt.pr "  hottest loop: %.1f%% of execution, %d iterations@."
          (100. *. P.loop_fraction c)
          (R.Trace.n_iterations c.P.trace))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Frontend, metadata and well-formedness checks")
    Term.(const run $ workload_arg $ variant_arg $ file_arg $ log_level_arg)

let pdg_cmd =
  let run workload variant file level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let c = P.compile ~name ~setup src in
        Fmt.pr "%a@." Commset_pdg.Pdg.pp c.P.target.P.pdg;
        Fmt.pr "(%d edges uco, %d ico)@." c.P.target.P.n_uco c.P.target.P.n_ico)
  in
  Cmd.v
    (Cmd.info "pdg" ~doc:"Print the annotated PDG of the hottest loop")
    Term.(const run $ workload_arg $ variant_arg $ file_arg $ log_level_arg)

let plans_cmd =
  let run workload variant file threads level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let c = P.compile ~name ~setup src in
        List.iter (fun (p : T.Plan.t) -> Fmt.pr "%s@." p.T.Plan.label) (P.plans c ~threads))
  in
  Cmd.v
    (Cmd.info "plans" ~doc:"List the parallelization plans")
    Term.(const run $ workload_arg $ variant_arg $ file_arg $ threads_arg $ log_level_arg)

(* case-insensitive substring match for --plan label selectors *)
let contains_ci ~sub s =
  let sub = String.lowercase_ascii sub and s = String.lowercase_ascii s in
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let plan_matches sel (p : T.Plan.t) =
  match String.lowercase_ascii sel with
  | "all" -> true
  | "doall" -> p.T.Plan.shape = T.Plan.Sdoall
  | "dswp" -> (
      match p.T.Plan.shape with
      | T.Plan.Sdswp _ -> not (T.Plan.is_psdswp p)
      | T.Plan.Sdoall -> false)
  | "psdswp" | "ps-dswp" -> T.Plan.is_psdswp p
  | sel -> contains_ci ~sub:sel p.T.Plan.label

(* The engine column: what actually ran, plus the fallback reason
   whenever that differs from what was requested. *)
let engine_cell ~requested (s : Commset_exec.Exec.stats) =
  let req = Commset_exec.Exec.engine_name requested in
  if s.Commset_exec.Exec.x_engine = req then s.Commset_exec.Exec.x_engine
  else
    match s.Commset_exec.Exec.x_engine_reason with
    | Some why -> Printf.sprintf "%s (requested %s: %s)" s.Commset_exec.Exec.x_engine req why
    | None -> Printf.sprintf "%s (requested %s)" s.Commset_exec.Exec.x_engine req

(* [--strict]: gate measured speedups on the fidelity band
   (COMMSET_FIDELITY_BAND). The gate's own skip logic handles the
   oversubscribed case with a visible message; messages go to stderr so
   --format=json stdout stays a single document. *)
let gate_fidelity ~strict ~cores ~jobs (runs : P.exec_run list) =
  if strict then
    match P.fidelity_gate ~cores ~jobs runs with
    | P.Gate_skipped why -> Fmt.epr "fidelity gate skipped: %s@." why
    | P.Gate_ok worst ->
        Fmt.epr "fidelity gate: OK (worst relative gap %.2f within band %.2f)@." worst
          (R.Costmodel.fidelity_band ())
    | P.Gate_exceeded over ->
        Fmt.epr "fidelity gate FAILED (band %.2f, COMMSET_FIDELITY_BAND):@."
          (R.Costmodel.fidelity_band ());
        List.iter (fun (label, gap) -> Fmt.epr "  %-52s gap %.2f@." label gap) over;
        exit 1

(* The real-execution path [run] and [stat] share, in three steps. *)

(* The executable plans at [jobs] that [pick] chooses; when it chooses
   none, every executable plan is listed and the command exits with
   [no_match]. *)
let pick_executable c ~jobs ~plan_sel ~no_match pick =
  let all = P.executable_plans c ~threads:jobs in
  match pick all with
  | [] ->
      Fmt.epr "no executable plan matches --plan=%s at %d job(s)@." plan_sel jobs;
      Fmt.epr "executable plans:@.";
      List.iter (fun (p : T.Plan.t) -> Fmt.epr "  %s@." p.T.Plan.label) all;
      exit no_match
  | selected -> selected

(* Each plan on real domains with attribution; [each] sees every run as
   it completes. *)
let exec_plans c ~engine ~jobs ?(each = ignore) plans =
  List.map
    (fun plan ->
      let x = P.run_parallel ~engine ~jobs ~attrib:true c plan in
      each x;
      x)
    plans

let exit_on_mismatch (runs : P.exec_run list) =
  match List.length (List.filter (fun (r : P.exec_run) -> r.P.xfidelity = P.Mismatch) runs) with
  | 0 -> ()
  | n ->
      Fmt.epr "%d plan(s) FAILED output equivalence@." n;
      exit 1

let exec_real c ~name ~engine ~jobs ~plan_sel ~strict ~format =
  let selected =
    pick_executable c ~jobs ~plan_sel ~no_match:(if strict then 1 else 0)
      (List.filter (plan_matches plan_sel))
  in
  let cores = Domain.recommended_domain_count () in
  let engine_s = Commset_exec.Exec.engine_name engine in
  match format with
  | `Json ->
      let runs = exec_plans c ~engine ~jobs selected in
      print_string
        (Commset_report.Stat.render_json ~workload:name ~engine:engine_s ~jobs ~cores runs);
      exit_on_mismatch runs;
      gate_fidelity ~strict ~cores ~jobs runs
  | `Text ->
      Fmt.pr "real execution on %d domain(s), engine %s (%d core(s) available):@." jobs
        engine_s cores;
      if cores < 2 then
        Fmt.pr "  note: single core available — measured speedups are not meaningful@.";
      Fmt.pr "  %-52s %9s %9s  %s@." "plan" "predicted" "measured" "outputs";
      let line (x : P.exec_run) =
        let s = x.P.xstats in
        Fmt.pr "  %-52s %8.2fx %8.2fx  %s  [%s, %.1f ms seq, %.1f ms par%s]@."
          s.Commset_exec.Exec.x_label x.P.xpredicted
          s.Commset_exec.Exec.x_measured_speedup
          (Commset_exec.Equiv.verdict_to_string x.P.xfidelity)
          (engine_cell ~requested:engine s)
          (s.Commset_exec.Exec.x_wall_seq_s *. 1e3)
          (s.Commset_exec.Exec.x_wall_par_s *. 1e3)
          (if s.Commset_exec.Exec.x_engine = "codegen" then
             Printf.sprintf ", codegen %s %.2fs"
               (if s.Commset_exec.Exec.x_codegen_cache_hit then "cache-hit" else "compiled")
               s.Commset_exec.Exec.x_codegen_compile_s
           else "")
      in
      let runs = exec_plans c ~engine ~jobs ~each:line selected in
      exit_on_mismatch runs;
      if strict then
        Fmt.pr "all %d plan(s) match the sequential reference@." (List.length selected);
      gate_fidelity ~strict ~cores ~jobs runs

let run_cmd =
  let run workload variant file threads jobs engine plan_sel strict timeline format level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let c = P.compile ~name ~setup src in
        match (jobs, engine) with
        | Some _, _ | _, Some _ ->
            (* --engine without --jobs still means "execute for real":
               auto-size the worker-domain count from the machine. *)
            exec_real c ~name
              ~engine:(Option.value engine ~default:Commset_exec.Exec.Real_engine)
              ~jobs:(Option.value jobs ~default:(Commset_exec.Exec.default_jobs ()))
              ~plan_sel ~strict ~format
        | None, None ->
            if format = `Json then (
              Fmt.epr "--format=json requires real execution (add --jobs or --engine)@.";
              exit 2);
            Fmt.pr "%s: sequential baseline %.0f cycles over %d iterations@." name
              c.P.trace.R.Trace.seq_total
              (R.Trace.n_iterations c.P.trace);
            List.iter
              (fun (r : P.run) ->
                let extras =
                  (if r.P.lock_contended > 0 then
                     [ Printf.sprintf "%d contended acquires" r.P.lock_contended ]
                   else [])
                  @
                  if r.P.tx_aborts > 0 then
                    [ Printf.sprintf "%d tx aborts" r.P.tx_aborts ]
                  else []
                in
                Fmt.pr "  %-52s %5.2fx  %s%s@." r.P.plan.T.Plan.label r.P.speedup
                  (Commset_exec.Equiv.verdict_to_string r.P.fidelity)
                  (if extras = [] then "" else "  [" ^ String.concat ", " extras ^ "]"))
              (P.evaluate c ~threads);
            if timeline then (
              match P.best ~record_timeline:true c ~threads with
              | Some r -> Fmt.pr "@.%s@." (Commset_report.Evaluation.render_timeline r)
              | None -> ()))
  in
  let timeline_arg =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Print the best plan's thread timeline.")
  in
  let plan_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "plan" ] ~docv:"SEL"
          ~doc:
            "With --jobs: which plans to execute — $(b,doall), $(b,dswp), \
             $(b,psdswp), $(b,all), or a case-insensitive label substring.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "With --jobs: exit non-zero when no plan matches, or when a run's \
             predicted-vs-measured speedup gap exceeds the fidelity band \
             (\\$COMMSET_FIDELITY_BAND, default 0.5; skipped with a message when \
             cores are oversubscribed). Mismatches always exit non-zero.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "With --jobs/--engine: $(b,text) (the progressive table) or $(b,json) (one \
             strict-JSON document with the full stats and attribution of every \
             executed plan, the schema CI pins in ci/stat-schema.json).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Evaluate every plan: simulate on the virtual multicore, or with --jobs \
          execute on real OCaml domains")
    Term.(
      const run $ workload_arg $ variant_arg $ file_arg $ threads_arg $ jobs_arg
      $ engine_arg $ plan_arg $ strict_arg $ timeline_arg $ format_arg $ log_level_arg)

let seq_cmd =
  let run workload variant file level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let ast = Commset_lang.Parser.parse_program ~file:name src in
        let _ = Commset_lang.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
        let prepared = R.Precompile.prepare (Commset_ir.Lower.lower_program ast) in
        let r = Commset_exec.Exec.run_seq ~prepared ~setup in
        List.iter print_endline r.Commset_exec.Exec.seq_outputs;
        Fmt.pr "-- %.0f simulated cycles@." r.Commset_exec.Exec.seq_cycles)
  in
  Cmd.v
    (Cmd.info "seq" ~doc:"Run the program sequentially and print its output")
    Term.(const run $ workload_arg $ variant_arg $ file_arg $ log_level_arg)

let explain_cmd =
  let run workload variant file level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let c = P.compile ~name ~setup src in
        Fmt.pr "%s" (Commset_report.Explain.render c))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Report the loop-carried dependences that still inhibit DOALL, at source \
          level, with annotation hints (the feedback step of the paper's workflow)")
    Term.(const run $ workload_arg $ variant_arg $ file_arg $ log_level_arg)

let sweep_cmd =
  let run workload variant file level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let c = P.compile ~name ~setup src in
        let series = P.sweep c ~max_threads:8 in
        (* keep the chart readable: the strongest few series *)
        let at8 pts = Option.value ~default:0. (List.assoc_opt 8 pts) in
        let top =
          List.sort (fun a b -> compare (at8 (snd b)) (at8 (snd a))) series
          |> Commset_support.Listx.take 6
        in
        print_string (Commset_report.Ascii.chart ~max_threads:8 top))
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Speedup-vs-threads chart for every plan family (Figure 6 style)")
    Term.(const run $ workload_arg $ variant_arg $ file_arg $ log_level_arg)

let lint_cmd =
  (* exit codes: 0 all clean, 1 warnings only, 2 any error (a refuted
     annotation, an impure predicate, or a failure to compile at all) *)
  let run workload variant file format strict level =
    setup_logs level;
    let fail (d : Diag.diagnostic) =
      (match format with
      | `Text -> Fmt.epr "%s@." (Diag.to_string d)
      | `Json ->
          print_endline
            (Commset_report.Verdicts.render_json { Commset_verify.Verdict.rpairs = [] } [ d ]));
      exit 2
    in
    let name, src, setup =
      try load ~workload ~variant ~file with Diag.Error d -> fail d
    in
    let c =
      try R.Precompile.fuel_guard (fun () -> P.compile ~name ~setup ~verify:true src)
      with Diag.Error d -> fail d
    in
    let report =
      match c.P.verification with
      | Some r -> r
      | None -> { Commset_verify.Verdict.rpairs = [] }
    in
    let diags = V.Lint.run_all { V.Lint.md = c.P.md; report = Some report; strict } in
    (match format with
    | `Text ->
        Fmt.pr "%s@." (Commset_report.Verdicts.render report);
        List.iter (fun d -> Fmt.pr "%s@." (Diag.to_string d)) diags
    | `Json -> print_endline (Commset_report.Verdicts.render_json report diags));
    let has_error =
      List.exists (fun (d : Diag.diagnostic) -> d.Diag.severity = Diag.Error_sev) diags
    in
    exit (if has_error then 2 else if diags <> [] then 1 else 0)
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Also warn about pairs whose commutativity could not be verified (CS002).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Audit the COMMSET annotations: symbolic differencing plus dynamic replay of \
          every member pair, and the annotation lint passes (CS001-CS007)")
    Term.(
      const run $ workload_arg $ variant_arg $ file_arg $ format_arg $ strict_arg
      $ log_level_arg)

let table1_cmd =
  let run () = print_endline (Commset_report.Table1.render ()) in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the paper's Table 1 feature matrix")
    Term.(const run $ const ())

(* ---- flight-recorder trace ---- *)

let write_file path contents =
  try
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)
  with Sys_error reason ->
    Fmt.epr "cannot write '%s': %s@." path reason;
    exit 2

(* The one way a Chrome trace leaves the program: export, check with the
   strict trace validator (never ship a trace we would reject
   ourselves), write. The event count, or an exit code (3: the trace
   failed validation, 2: the file cannot be written) and a message. *)
let write_trace path events =
  let json = Obs.Export.chrome_json events in
  match Obs.Json_strict.validate_chrome_trace json with
  | Error e -> Error (3, "internal: generated trace failed validation: " ^ e)
  | Ok n -> (
      match Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc json) with
      | () -> Ok n
      | exception Sys_error reason -> Error (2, Printf.sprintf "cannot write '%s': %s" path reason))

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error reason ->
    Fmt.epr "cannot read '%s': %s@." path reason;
    exit 2

(* ---- execution observatory ---- *)

(* [--plan=best]: the strongest DOALL and the strongest non-DOALL
   executable plan by simulator-predicted speedup — the two pipeline
   shapes a profile is worth reading for, without running every
   schedule variant. *)
let select_best_plans c ~jobs (all : T.Plan.t list) =
  let sims = P.evaluate c ~threads:jobs in
  let score (p : T.Plan.t) =
    match
      List.find_opt (fun (r : P.run) -> r.P.plan.T.Plan.label = p.T.Plan.label) sims
    with
    | Some r -> r.P.speedup
    | None -> 0.
  in
  let best pred =
    List.fold_left
      (fun acc p ->
        if not (pred p) then acc
        else
          match acc with Some q when score q >= score p -> acc | _ -> Some p)
      None all
  in
  let doall = best (fun (p : T.Plan.t) -> p.T.Plan.shape = T.Plan.Sdoall) in
  let other = best (fun (p : T.Plan.t) -> p.T.Plan.shape <> T.Plan.Sdoall) in
  List.filter_map Fun.id [ doall; other ]

let stat_cmd =
  (* exit codes: 0 profiled OK, 1 output mismatch or nothing to run,
     2 bad usage, 3 internal trace-validation failure *)
  let run workload variant file engine jobs plan_sel format trace_out level =
    setup_logs level;
    with_diag (fun () ->
        let name, src, setup = load ~workload ~variant ~file in
        let engine = Option.value engine ~default:Commset_exec.Exec.Real_engine in
        let jobs = Option.value jobs ~default:(Commset_exec.Exec.default_jobs ()) in
        let c = P.compile ~name ~setup src in
        let selected =
          pick_executable c ~jobs ~plan_sel ~no_match:1 (fun all ->
              if String.lowercase_ascii plan_sel = "best" then select_best_plans c ~jobs all
              else List.filter (plan_matches plan_sel) all)
        in
        let tracing = trace_out <> None in
        if tracing then (
          Obs.Recorder.reset ();
          Obs.Recorder.set_enabled true);
        let runs = exec_plans c ~engine ~jobs selected in
        if tracing then Obs.Recorder.set_enabled false;
        let engine_s = Commset_exec.Exec.engine_name engine in
        let cores = Domain.recommended_domain_count () in
        (match format with
        | `Text ->
            print_string
              (Commset_report.Stat.render_text ~workload:name ~engine:engine_s ~jobs
                 ~cores runs)
        | `Json ->
            print_string
              (Commset_report.Stat.render_json ~workload:name ~engine:engine_s ~jobs
                 ~cores runs));
        (match trace_out with
        | None -> ()
        | Some path -> (
            let spans = Obs.Recorder.dump () in
            let base_ns =
              List.fold_left
                (fun m (s : Obs.Recorder.span) -> Float.min m s.Obs.Recorder.t0_ns)
                infinity spans
            in
            let base_ns = if Float.is_finite base_ns then Some base_ns else None in
            let events =
              Obs.Export.of_recorder ~pid:0 spans
              @ List.concat_map
                  (fun (r : P.exec_run) ->
                    match r.P.xstats.Commset_exec.Exec.x_attrib with
                    | Some s -> Obs.Export.of_attrib ~pid:0 ?base_ns s
                    | None -> [])
                  runs
            in
            match write_trace path events with
            | Ok n -> Fmt.epr "wrote %d trace event(s) to %s@." n path
            | Error (code, e) ->
                Fmt.epr "%s@." e;
                exit code));
        exit_on_mismatch runs)
  in
  let plan_arg =
    Arg.(
      value
      & opt string "best"
      & info [ "plan" ] ~docv:"SEL"
          ~doc:
            "Plans to profile: $(b,best) (default: the strongest DOALL and the \
             strongest pipeline by predicted speedup), $(b,doall), $(b,dswp), \
             $(b,psdswp), $(b,all), or a label substring.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome trace with the flight-recorder spans and per-worker \
             attribution counter tracks (Perfetto counter rows under each worker).")
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Profile real execution: run the selected plans with the per-iteration \
          attribution layer on and report where every worker nanosecond went — \
          dispatch wait, commset lock wait, frontier wait, builtins, compute — with \
          per-cause quantiles, per-lock contention, coordinator utilization and \
          predicted-vs-measured fidelity. Writes no file unless --trace is given")
    Term.(
      const run $ workload_arg $ variant_arg $ file_arg $ engine_arg $ jobs_arg
      $ plan_arg $ format_arg $ trace_arg $ log_level_arg)

let trace_cmd =
  let run workload variant file threads out metrics_out validate level =
    setup_logs level;
    match validate with
    | Some path -> (
        (* validation-only mode, for CI and for checking saved traces *)
        match Obs.Json_strict.validate_chrome_trace (read_file path) with
        | Ok n -> Fmt.pr "%s: valid Chrome trace (%d events)@." path n
        | Error e ->
            Fmt.epr "%s: INVALID trace: %s@." path e;
            exit 2)
    | None ->
        with_diag (fun () ->
            let name, src, setup = load ~workload ~variant ~file in
            Obs.Metrics.reset ();
            Obs.Recorder.reset ();
            Obs.Recorder.set_enabled true;
            let c = P.compile ~name ~setup src in
            let runs = P.evaluate c ~threads in
            let best =
              match runs with
              | [] -> None
              | r :: _ -> Some (P.simulate ~record_timeline:true c r.P.plan)
            in
            Obs.Recorder.set_enabled false;
            (* pid 0: real time (recorder spans); pid 1: the best plan's
               virtual-clock timeline from the simulator *)
            let events =
              Obs.Export.of_recorder ~pid:0 (Obs.Recorder.dump ())
              @
              match best with
              | Some r ->
                  Obs.Export.of_sim_timelines ~pid:1 ~name:r.P.plan.T.Plan.label
                    r.P.timelines
              | None -> []
            in
            let n_events =
              match write_trace out events with
              | Ok n -> n
              | Error (code, e) ->
                  Fmt.epr "%s@." e;
                  exit code
            in
            Fmt.pr "%s: wrote %d trace event(s) to %s@." name n_events out;
            (match best with
            | Some r ->
                Fmt.pr "  best plan: %s (%.2fx, %s)@." r.P.plan.T.Plan.label r.P.speedup
                  (Commset_exec.Equiv.verdict_to_string r.P.fidelity)
            | None -> ());
            let dropped = Obs.Recorder.dropped_total () in
            if dropped > 0 then
              Fmt.pr "  warning: %d span(s) dropped (raise COMMSET_TRACE_BUF)@." dropped;
            match metrics_out with
            | Some path ->
                write_file path (Obs.Metrics.to_json ());
                Fmt.pr "  metrics -> %s@." path
            | None -> ())
  in
  let out_arg =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the Chrome trace JSON.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:"Also dump the metrics registry as JSON.")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:
            "Validate an existing trace file against the strict trace-event parser and \
             exit (no compilation).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Compile and evaluate a workload with the flight recorder on, then write a \
          Chrome trace-event JSON (loadable in Perfetto or about://tracing) and \
          optionally a metrics dump")
    Term.(
      const run $ workload_arg $ variant_arg $ file_arg $ threads_arg $ out_arg
      $ metrics_arg $ validate_arg $ log_level_arg)

let suggest_cmd =
  (* exit codes: 0 at least one suggestion was emitted, 1 the input
     compiled but nothing could be proved (or --min-speedup suppressed
     everything), 2 the input does not compile *)
  let run workload variant file format min_speedup apply level =
    setup_logs level;
    let fail (d : Diag.diagnostic) =
      Fmt.epr "%s@." (Diag.to_string d);
      exit 2
    in
    let name, src, setup =
      try load ~workload ~variant ~file with Diag.Error d -> fail d
    in
    let r =
      try
        R.Precompile.fuel_guard (fun () ->
            Commset_synth.Synth.suggest ~name ~setup ?min_speedup src)
      with Diag.Error d -> fail d
    in
    (match format with
    | `Text -> print_string (Commset_report.Suggestions.render r)
    | `Json -> print_endline (Commset_report.Suggestions.render_json r));
    if apply && r.Commset_synth.Synth.r_suggestions <> [] then (
      let base =
        match file with
        | Some path -> Filename.remove_extension path
        | None -> String.map (fun c -> if c = '/' then '_' else c) name
      in
      let out = base ^ ".suggested.mc" in
      write_file out r.Commset_synth.Synth.r_source;
      Fmt.epr "wrote annotated program to %s@." out);
    exit (if r.Commset_synth.Synth.r_suggestions <> [] then 0 else 1)
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let min_speedup_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:
            "Suppress every suggestion when the verified bundle's predicted speedup at \
             8 threads stays below $(docv).")
  in
  let apply_arg =
    Arg.(
      value & flag
      & info [ "apply" ]
          ~doc:
            "Also write the stripped program with every suggestion installed to \
             $(i,NAME).suggested.mc.")
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:
         "Synthesize COMMSET annotations for a plain miniC program: strip any existing \
          pragmas, enumerate candidate members in the hottest loop, synthesize the \
          weakest commutativity condition whose difference residue vanishes, and emit \
          only suggestions the verifier re-proves (Proved-or-dropped), ranked by \
          simulator-predicted speedup")
    Term.(
      const run $ workload_arg $ variant_arg $ file_arg $ format_arg $ min_speedup_arg
      $ apply_arg $ log_level_arg)

(* ---- serve: the request-serving daemon ---- *)

module Serve = Commset_serve

let serve_cmd =
  let parse_mix s =
    let items = List.filter (fun x -> String.trim x <> "") (String.split_on_char ',' s) in
    if items = [] then (
      Fmt.epr "serve: --mix must name at least one workload@.";
      exit 2);
    List.map
      (fun item ->
        match String.index_opt item '=' with
        | None -> (String.trim item, 1.0)
        | Some i -> (
            let name = String.trim (String.sub item 0 i) in
            let w = String.trim (String.sub item (i + 1) (String.length item - i - 1)) in
            match float_of_string_opt w with
            | Some w when w > 0. -> (name, w)
            | _ ->
                Fmt.epr "serve: --mix weight in %S must be a positive number@." item;
                exit 2))
      items
  in
  let run selftest requests rate burst seed mix jobs socket equiv_every cache_capacity
      status_out level =
    setup_logs level;
    with_diag @@ fun () ->
    if (not selftest) && socket = None then (
      Fmt.epr "serve: nothing to serve — pass --selftest and/or --socket PATH@.";
      exit 2);
    let lookup name =
      match Registry.find name with
      | Some w -> Ok (w.W.source, w.W.setup)
      | None ->
          Error
            (Printf.sprintf "unknown workload '%s' (try: %s)" name
               (String.concat ", " Registry.names))
    in
    let cfg =
      {
        (Serve.Server.default_config ~lookup) with
        Serve.Server.s_jobs = jobs;
        s_cache_capacity = cache_capacity;
        s_equiv_every = equiv_every;
      }
    in
    let load =
      if selftest then begin
        let g_mix = parse_mix mix in
        (* a typo must fail fast, not produce N error responses *)
        List.iter
          (fun (n, _) ->
            if Registry.find n = None then (
              Fmt.epr "serve: unknown workload '%s' in --mix (try: %s)@." n
                (String.concat ", " Registry.names);
              exit 2))
          g_mix;
        Some
          {
            Serve.Server.l_spec =
              {
                Serve.Gen.default_spec with
                Serve.Gen.g_seed = seed;
                g_rate = rate;
                g_burst = burst;
                g_mix;
              };
            l_requests = requests;
          }
      end
      else None
    in
    (* graceful shutdown: stop admitting, drain in-flight, flush at-exit
       hooks (COMMSET_TRACE), exit 0 *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.Server.request_stop ())))
      [ Sys.sigint; Sys.sigterm ];
    let report = Serve.Server.run ?load ?socket cfg in
    let json = Obs.Json_strict.to_string (Serve.Server.report_json report) in
    (match status_out with
    | Some path -> (
        try
          let oc = open_out_bin path in
          output_string oc json;
          output_char oc '\n';
          close_out_noerr oc
        with Sys_error reason ->
          Fmt.epr "serve: cannot write '%s': %s@." path reason;
          exit 1)
    | None -> ());
    print_endline json;
    let r = report in
    let cache = r.Serve.Server.r_cache in
    let lookups = cache.Serve.Plancache.pc_hits + cache.Serve.Plancache.pc_misses in
    Fmt.epr
      "serve: %d request(s) in %.2fs (%.0f rps), %d failed; Equiv %d/%d failed; cache \
       %d/%d hit (%d compile(s)); %s, stopped by %s%s@."
      r.Serve.Server.r_offered r.Serve.Server.r_duration_s r.Serve.Server.r_throughput_rps
      r.Serve.Server.r_failed r.Serve.Server.r_equiv_failures
      r.Serve.Server.r_equiv_checked cache.Serve.Plancache.pc_hits lookups
      cache.Serve.Plancache.pc_misses
      (if r.Serve.Server.r_drained then "drained" else "DRAIN INCOMPLETE")
      r.Serve.Server.r_stopped_by
      (if r.Serve.Server.r_oversubscribed then
         Fmt.str " (oversubscribed: %d core(s) for %d worker(s) + coordinator)"
           r.Serve.Server.r_cores r.Serve.Server.r_jobs
       else "");
    if r.Serve.Server.r_equiv_failures > 0 then (
      Fmt.epr "serve: %d response(s) FAILED output equivalence%s@."
        r.Serve.Server.r_equiv_failures
        (match r.Serve.Server.r_equiv_first_failure with
        | Some f -> ": " ^ f
        | None -> "");
      exit 1);
    if not r.Serve.Server.r_drained then (
      Fmt.epr "serve: drain incomplete (%d of %d completed)@."
        (r.Serve.Server.r_served + r.Serve.Server.r_failed)
        r.Serve.Server.r_offered;
      exit 1)
  in
  let selftest_arg =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:
            "Drive the daemon from the built-in deterministic open-loop generator — no \
             external client needed. Combines with --socket (the generator runs while \
             the socket listens).")
  in
  let rate ~range ok = bounded float_of_string_opt Format.pp_print_float ~range ok in
  let requests_arg =
    Arg.(
      value
      & opt (count ~min:1) 1000
      & info [ "requests"; "n" ] ~docv:"N"
          ~doc:"Generated requests to offer (selftest), at least 1.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (rate ~range:"a finite number above 0" (fun r -> Float.is_finite r && r > 0.)) 1000.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Mean offered rate of the open-loop generator, requests/second, above 0.")
  in
  let burst_arg =
    Arg.(
      value
      & opt (rate ~range:"a finite number of at least 1" (fun b -> Float.is_finite b && b >= 1.)) 3.
      & info [ "burst" ] ~docv:"X"
          ~doc:
            "On/off burstiness, at least 1: ON phases offer $(docv)× the mean rate, OFF \
             phases whatever keeps the long-run mean at --rate. 1 = plain Poisson.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed (same seed, same schedule).")
  in
  let mix_arg =
    Arg.(
      value
      & opt string "url=1,md5sum=2,geti=1"
      & info [ "mix" ] ~docv:"W=N,…"
          ~doc:"Workload blend with weights, e.g. $(b,url=1,md5sum=2,geti=1).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (count ~min:1) (Commset_exec.Exec.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Warm pool worker domains, at least 1, spawned once and reused for every \
             request. Defaults to the machine's available cores minus one.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv): 4-byte big-endian \
             length-prefixed strict-JSON frames (see DESIGN §18). Unlinked on \
             shutdown.")
  in
  let equiv_every_arg =
    Arg.(
      value
      & opt (count ~min:0) 100
      & info [ "equiv-every" ] ~docv:"N"
          ~doc:
            "Check every $(docv)th response per workload against the sequential \
             reference with the output-equivalence checker; at least 0, and 0 \
             disables sampling.")
  in
  let cache_capacity_arg =
    Arg.(
      value
      & opt (count ~min:1) 8
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Plan-cache entries, at least 1 (LRU beyond that): the compiled programs \
             the daemon holds. A distinct source compiles once, and again after an \
             eviction.")
  in
  let status_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "status-out" ] ~docv:"FILE"
          ~doc:"Also write the strict-JSON status report to $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the request-serving daemon: warm worker-domain pool, compile-once plan \
          cache with single-flight dedup, open-loop selftest load harness, per-request \
          latency histograms and sampled output-equivalence checks")
    Term.(
      const run $ selftest_arg $ requests_arg $ rate_arg $ burst_arg $ seed_arg $ mix_arg
      $ jobs_arg $ socket_arg $ equiv_every_arg $ cache_capacity_arg $ status_out_arg
      $ log_level_arg)

(* [COMMSET_TRACE=path]: enable the flight recorder for the whole
   invocation, whatever the subcommand, and write the trace at exit
   (including the [exit 1] of a diagnostic). *)
let install_trace_env_hook () =
  match Sys.getenv_opt "COMMSET_TRACE" with
  | None | Some "" -> ()
  | Some path ->
      Obs.Recorder.set_enabled true;
      at_exit (fun () ->
          Obs.Recorder.set_enabled false;
          match write_trace path (Obs.Export.of_recorder ~pid:0 (Obs.Recorder.dump ())) with
          | Ok _ -> ()
          | Error (_, e) -> Fmt.epr "COMMSET_TRACE: %s@." e)

let () =
  let doc = "the COMMSET implicit-parallelism compiler (PLDI 2011 reproduction)" in
  let info = Cmd.info "commsetc" ~version:"1.0.0" ~doc in
  install_trace_env_hook ();
  let code =
    Cmd.eval
      (Cmd.group info [ list_cmd; check_cmd; pdg_cmd; plans_cmd; run_cmd; stat_cmd; seq_cmd; serve_cmd; explain_cmd; sweep_cmd; lint_cmd; suggest_cmd; trace_cmd; table1_cmd ])
  in
  (* bad option values are usage errors: exit 2, like every other usage
     check here, rather than cmdliner's 124 *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)

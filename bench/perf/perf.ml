(* The benchmark's command line. See README.md in this directory.

     perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--out DIR] [--commsetc PATH]

   Prints every metric with its unit and spread, then, as the last line
   of standard output, one JSON object with the run's correctness,
   operation counts and metrics. Exit codes: 0 all outputs correct,
   1 a wrong output or failed operation, 2 a measurement that broke an
   honesty bound (the run is void). *)

module Bench = Commset_perf.Bench
module Workloads = Commset_perf.Workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 40. and trace = ref 0 in
  let out = ref (Filename.concat "_build" "perf") in
  let commsetc = ref (Filename.concat "_build" (Filename.concat "default" "bin/commsetc.exe")) in
  let usage = "perf.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for program order and serve schedule");
      ("--seconds", Arg.Set_float seconds, "S seconds the phases measure for (default 40)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run");
      ("--out", Arg.Set_string out, "DIR where result and trace files go");
      ("--commsetc", Arg.Set_string commsetc, "PATH the built commsetc executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "perf: unknown workload %S (have: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  if !seconds < 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists !commsetc) then begin
    Printf.eprintf "perf: no commsetc executable at %s\n" !commsetc;
    exit 2
  end;
  let cfg =
    {
      Bench.workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      out_dir = !out;
      commsetc = !commsetc;
    }
  in
  match Bench.run cfg with
  | exception Bench.Violation msg ->
      Printf.eprintf "perf: %s: measurement void: %s\n" w.Workloads.name msg;
      exit 2
  | res ->
      List.iter
        (fun (m : Bench.metric) ->
          match m.Bench.samples with
          | [] -> Printf.printf "%-30s %14.6g %-11s\n" m.Bench.name m.Bench.value m.Bench.unit
          | xs ->
              Printf.printf "%-30s %14.6g %-11s  p25 %.6g  p75 %.6g  n %d\n" m.Bench.name
                m.Bench.value m.Bench.unit
                (Commset_perf.Stats.quantile xs 0.25)
                (Commset_perf.Stats.quantile xs 0.75)
                (List.length xs))
        res.Bench.metrics;
      print_endline (Bench.summary_line res);
      exit (if res.Bench.correct then 0 else 1)

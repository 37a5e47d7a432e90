(* Each workload, cut down to one program and the shortest run length,
   once untraced and once traced: the run must be correct with no failed
   operation, report exactly the metrics BENCHMARK.json names for its
   mode with the same units, and write result (and trace) files that
   parse strictly. *)

module Bench = Commset_perf.Bench
module Workloads = Commset_perf.Workloads
module J = Commset_obs.Json_strict

let root = Filename.concat Filename.parent_dir_name (Filename.concat ".." "..")
let read path = In_channel.with_open_bin path In_channel.input_all

let parse what text =
  match J.parse text with Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* (name, unit) of every metric BENCHMARK.json lists under [key] *)
let declared key =
  match J.member key (parse "BENCHMARK.json" (read (Filename.concat root "BENCHMARK.json"))) with
  | Some (J.Arr ms) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.Str n), Some (J.Str u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
        ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let check cond fmt = Printf.ksprintf (fun msg -> if not cond then failwith msg) fmt

let run_one (w : Workloads.t) program ~trace =
  let w = { w with Workloads.programs = [ program ]; serve_mix = [ (program, 1) ] } in
  let out_dir = "perf-test-out" in
  let cfg =
    {
      Bench.workload = w;
      seed = 7;
      seconds = 0.;
      trace;
      out_dir;
      commsetc = Filename.concat root (Filename.concat "bin" "commsetc.exe");
    }
  in
  let res = Bench.run cfg in
  let tag = Printf.sprintf "%s (trace %b)" w.Workloads.name trace in
  check res.Bench.correct "%s: run not correct" tag;
  check (res.Bench.failed = 0) "%s: %d failed operation(s)" tag res.Bench.failed;
  let got = List.map (fun (m : Bench.metric) -> (m.Bench.name, m.Bench.unit)) res.Bench.metrics in
  let want = declared (if trace then "per_layer" else "end_to_end") in
  check (got = want) "%s: metrics differ from BENCHMARK.json: got [%s]" tag
    (String.concat "; " (List.map (fun (n, u) -> n ^ " " ^ u) got));
  List.iter
    (fun (m : Bench.metric) ->
      check (Float.is_finite m.Bench.value) "%s: %s is not finite" tag m.Bench.name)
    res.Bench.metrics;
  ignore (parse (tag ^ " summary line") (Bench.summary_line res) : J.t);
  let doc = parse (tag ^ " result file") (read (Filename.concat out_dir (w.Workloads.name ^ ".json"))) in
  check (J.member "provenance" doc <> None) "%s: result file has no provenance" tag;
  if trace then
    match J.validate_chrome_trace (read (Filename.concat out_dir (w.Workloads.name ^ ".trace.json"))) with
    | Ok n -> check (n > 0) "%s: empty trace" tag
    | Error e -> failwith (tag ^ ": trace: " ^ e)

let () =
  List.iter
    (fun (w, program) ->
      List.iter (fun trace -> run_one w program ~trace) [ false; true ];
      Printf.printf "perf workload %s: ok\n%!" w.Workloads.name)
    [ (Workloads.compute, "kmeans"); (Workloads.builtin, "md5sum") ]

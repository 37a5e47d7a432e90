(** [commsetc stat] / [run --format=json] renderers; see the interface. *)

module P = Commset_pipeline.Pipeline
module X = Commset_exec.Exec
module Equiv = Commset_exec.Equiv
module Attrib = Commset_obs.Attrib
module J = Commset_obs.Json_strict

(* ------------------------------------------------------------------ *)
(* Text                                                                *)
(* ------------------------------------------------------------------ *)

let tbl ~header rows = Ascii.table ~header rows ^ "\n"
let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)
let us ns = Printf.sprintf "%.1f" (ns /. 1e3)
let f2 v = Printf.sprintf "%.2f" v

let share_cell ~iter_wall c =
  (* dispatch waits sit between iterations and the merge runs on the
     coordinator: neither is a share of iteration wall time *)
  match c.Attrib.c_name with
  | "dispatch_wait" | "merge" -> "-"
  | _ ->
      if iter_wall > 0. then Printf.sprintf "%.1f%%" (100. *. c.Attrib.c_total_ns /. iter_wall)
      else "-"

let attrib_text buf (s : Attrib.summary) =
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf
       "  attribution: %d iteration(s) on %d worker(s), %.3f ms iteration wall, %.0f charged \
        cycles, conservation error %.2f%%\n"
       s.Attrib.a_iterations s.Attrib.a_jobs
       (s.Attrib.a_iter_wall_ns /. 1e6)
       s.Attrib.a_charged_cycles
       (100. *. s.Attrib.a_conservation_error));
  let cause_rows =
    List.map
      (fun c ->
        [
          c.Attrib.c_name;
          ms c.Attrib.c_total_ns;
          share_cell ~iter_wall:s.Attrib.a_iter_wall_ns c;
          string_of_int c.Attrib.c_count;
          us c.Attrib.c_p50_ns;
          us c.Attrib.c_p95_ns;
          us c.Attrib.c_p99_ns;
        ])
      s.Attrib.a_causes
  in
  add
    (tbl
       ~header:[ "cause"; "total ms"; "share"; "n"; "p50 us"; "p95 us"; "p99 us" ]
       cause_rows);
  let locks = List.filter (fun l -> l.Attrib.l_acquires > 0) s.Attrib.a_locks in
  (match locks with
  | [] -> add "  (no lock acquisitions)\n"
  | _ ->
      add
        (tbl
           ~header:[ "lock"; "acquires"; "wait ms"; "avg wait us" ]
           (List.map
              (fun l ->
                [
                  l.Attrib.l_name;
                  string_of_int l.Attrib.l_acquires;
                  ms l.Attrib.l_wait_ns;
                  us (l.Attrib.l_wait_ns /. float_of_int l.Attrib.l_acquires);
                ])
              locks)));
  (match
     List.sort (fun a b -> Float.compare b.Attrib.b_wall_ns a.Attrib.b_wall_ns) s.Attrib.a_builtins
   with
  | [] -> ()
  | sorted ->
      let top = List.filteri (fun i _ -> i < 8) sorted in
      add
        (tbl
           ~header:[ "builtin"; "calls"; "wall ms"; "mean us"; "charged cycles" ]
           (List.map
              (fun b ->
                [
                  b.Attrib.b_name;
                  string_of_int b.Attrib.b_calls;
                  ms b.Attrib.b_wall_ns;
                  us (b.Attrib.b_wall_ns /. float_of_int (max 1 b.Attrib.b_calls));
                  Printf.sprintf "%.0f" b.Attrib.b_cost_cycles;
                ])
              top));
      if List.length sorted > 8 then
        add (Printf.sprintf "  (%d more builtin(s) omitted)\n" (List.length sorted - 8)));
  let k = s.Attrib.a_coord in
  add
    (Printf.sprintf
       "  coordinator: %.1f%% busy (%.3f ms wall, %.3f ms blocked on full rings), merge %.3f \
        ms\n"
       (100. *. k.Attrib.k_utilization)
       (k.Attrib.k_wall_ns /. 1e6)
       (k.Attrib.k_dispatch_wait_ns /. 1e6)
       (k.Attrib.k_merge_ns /. 1e6))

let render_text ~workload ~engine ~jobs ~cores (runs : P.exec_run list) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add
    (Printf.sprintf "workload %s — engine %s, %d job(s), %d core(s)%s\n" workload engine jobs
       cores
       (if jobs + 1 > cores then " [oversubscribed: measured walls are not speedup-faithful]"
        else ""));
  add
    (tbl
       ~header:[ "plan"; "engine"; "predicted"; "measured"; "fidelity"; "iters"; "par ms" ]
       (List.map
          (fun (r : P.exec_run) ->
            [
              r.P.xplan.Commset_transforms.Plan.label;
              r.P.xstats.X.x_engine;
              f2 r.P.xpredicted;
              f2 r.P.xstats.X.x_measured_speedup;
              Equiv.verdict_name r.P.xfidelity;
              string_of_int r.P.xstats.X.x_iterations;
              Printf.sprintf "%.3f" (r.P.xstats.X.x_wall_par_s *. 1e3);
            ])
          runs));
  List.iter
    (fun (r : P.exec_run) ->
      match r.P.xstats.X.x_attrib with
      | None -> ()
      | Some s ->
          add (Printf.sprintf "\nplan %s:\n" r.P.xplan.Commset_transforms.Plan.label);
          attrib_text buf s)
    runs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let attrib_json (s : Attrib.summary) =
  let rows f l = J.Arr (List.map (fun x -> J.Obj (f x)) l) in
  let k = s.Attrib.a_coord in
  J.Obj
    [
      ("jobs", J.int s.Attrib.a_jobs);
      ("iterations", J.int s.Attrib.a_iterations);
      ("iter_wall_ns", J.Num s.Attrib.a_iter_wall_ns);
      ("charged_cycles", J.Num s.Attrib.a_charged_cycles);
      ("conservation_error", J.Num s.Attrib.a_conservation_error);
      ("charge_flushes", J.int s.Attrib.a_charge_flushes);
      ( "causes",
        rows
          (fun c ->
            [ ("cause", J.Str c.Attrib.c_name); ("total_ns", J.Num c.Attrib.c_total_ns);
              ("count", J.int c.Attrib.c_count); ("p50_ns", J.Num c.Attrib.c_p50_ns);
              ("p95_ns", J.Num c.Attrib.c_p95_ns); ("p99_ns", J.Num c.Attrib.c_p99_ns) ])
          s.Attrib.a_causes );
      ( "locks",
        rows
          (fun l ->
            [ ("name", J.Str l.Attrib.l_name); ("acquires", J.int l.Attrib.l_acquires);
              ("wait_ns", J.Num l.Attrib.l_wait_ns) ])
          s.Attrib.a_locks );
      ( "builtins",
        rows
          (fun b ->
            [ ("name", J.Str b.Attrib.b_name); ("calls", J.int b.Attrib.b_calls);
              ("wall_ns", J.Num b.Attrib.b_wall_ns);
              ("charged_cycles", J.Num b.Attrib.b_cost_cycles) ])
          s.Attrib.a_builtins );
      ( "coordinator",
        J.Obj
          [ ("wall_ns", J.Num k.Attrib.k_wall_ns);
            ("dispatch_wait_ns", J.Num k.Attrib.k_dispatch_wait_ns);
            ("utilization", J.Num k.Attrib.k_utilization); ("merge_ns", J.Num k.Attrib.k_merge_ns) ]
      );
    ]

let plan_json (r : P.exec_run) =
  let x = r.P.xstats in
  J.Obj
    [
      ("plan", J.Str r.P.xplan.Commset_transforms.Plan.label);
      ("engine", J.Str x.X.x_engine);
      ("engine_reason", J.opt (fun s -> J.Str s) x.X.x_engine_reason);
      ("predicted_speedup", J.Num r.P.xpredicted);
      ("measured_speedup", J.Num x.X.x_measured_speedup);
      ("fidelity", J.Str (Equiv.verdict_name r.P.xfidelity));
      ("threads", J.int x.X.x_threads);
      ("wall_seq_s", J.Num x.X.x_wall_seq_s);
      ("wall_par_s", J.Num x.X.x_wall_par_s);
      ("iterations", J.int x.X.x_iterations);
      ("steps", J.int x.X.x_steps);
      ("lock_contended", J.int x.X.x_lock_contended);
      ("queue_full_waits", J.int x.X.x_queue_full_waits);
      ("queue_empty_waits", J.int x.X.x_queue_empty_waits);
      ("frontier_waits", J.int x.X.x_frontier_waits);
      ("buffered_updates", J.int x.X.x_buffered_updates);
      ("merge_s", J.Num x.X.x_merge_s);
      ("codegen_cache_hit", J.Bool x.X.x_codegen_cache_hit);
      ("codegen_compile_s", J.Num x.X.x_codegen_compile_s);
      ("attribution", J.opt attrib_json x.X.x_attrib);
    ]

let render_json ~workload ~engine ~jobs ~cores (runs : P.exec_run list) =
  J.to_string
    (J.Obj
       [
         ("workload", J.Str workload);
         ("engine_requested", J.Str engine);
         ("jobs", J.int jobs);
         ("available_cores", J.int cores);
         ("oversubscribed", J.Bool (jobs + 1 > cores));
         ("plans", J.Arr (List.map plan_json runs));
       ])
  ^ "\n"

(** Ablation studies of the design choices DESIGN.md calls out:

    - the contribution of each md5sum annotation group (drop one, measure
      the best remaining schedule);
    - bounded-queue capacity vs a bursty two-stage pipeline (the
      evaluation workloads' stages are too regular to need buffering);
    - the spin-lock cache-bounce coefficient vs DOALL scaling under
      contention (kmeans);
    - the STM instrumentation factor vs the TM DOALL variant (kmeans);
    - privatization: hoisting hmmer's per-iteration sequence buffer out of
      the loop defeats it and with it every parallel schedule. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module R = Commset_runtime

let best_speedup ?(threads = 8) c =
  match P.best c ~threads with Some r -> r.P.speedup | None -> 1.0

let best_label ?(threads = 8) c =
  match P.best c ~threads with Some r -> r.P.plan.T.Plan.label | None -> "(sequential)"

(* ------------------------------------------------------------------ *)
(* Annotation ablation on md5sum                                       *)
(* ------------------------------------------------------------------ *)

(* remove the pragma lines whose text contains [pattern] (and, for
   paired directives, the dependent ones no longer valid) *)
let drop_pragmas_matching patterns source =
  String.split_on_char '\n' source
  |> List.filter (fun line ->
         let l = String.trim line in
         not
           (String.length l >= 7
           && String.sub l 0 7 = "#pragma"
           && List.exists
                (fun pat ->
                  let n = String.length pat and m = String.length l in
                  let rec go i = i + n <= m && (String.sub l i n = pat || go (i + 1)) in
                  go 0)
                patterns))
  |> String.concat "\n"

let annotation_ablation () =
  let w = Option.get (Registry.find "md5sum") in
  let cases =
    [
      ("all annotations", w.W.source);
      ("without SELF on print (deterministic)", List.assoc "deterministic" w.W.variants);
      ( "without the READB named block",
        drop_pragmas_matching [ "namedblock"; "namedarg"; "enable" ] w.W.source );
      ("no annotations at all", W.strip_pragmas w.W.source);
    ]
  in
  List.map
    (fun (name, src) ->
      let c = P.compile ~name ~setup:w.W.setup src in
      [ name; Printf.sprintf "%.2fx" (best_speedup c); best_label c ])
    cases

(* ------------------------------------------------------------------ *)
(* Cost-model knob sweeps                                              *)
(* ------------------------------------------------------------------ *)

(* retune a cost-model knob for the duration of [f]; the sims under [f]
   may run on pool domains, which read the knob atomically *)
let with_knob knob value f =
  let saved = Atomic.exchange knob value in
  Fun.protect ~finally:(fun () -> Atomic.set knob saved) f

(* The evaluation workloads have stable per-stage costs, so any capacity
   >= 1 sustains their pipelines (itself a finding). To expose the queue
   model, this sweep builds a synthetic two-stage pipeline directly on the
   simulator: a bursty producer (bimodal 40/1200-cycle items) feeding a
   steady 320-cycle consumer — small queues cannot absorb the bursts. *)
let queue_capacity_sweep () =
  let n_items = 400 in
  let producer =
    Array.concat
      (List.init n_items (fun i ->
           let cost = if i mod 8 = 0 then 1200. else 40. in
           [| R.Sim.Compute { costs = [| cost |]; tag = "produce" }; R.Sim.Push 0 |]))
  in
  let consumer =
    Array.concat
      (List.init n_items (fun _ ->
           [| R.Sim.Pop 0; R.Sim.Compute { costs = [| 320. |]; tag = "consume" } |]))
  in
  let seq_total =
    (float_of_int (n_items / 8) *. 1200.)
    +. (float_of_int (n_items - (n_items / 8)) *. 40.)
    +. (float_of_int n_items *. 320.)
  in
  List.map
    (fun cap ->
      with_knob R.Costmodel.queue_capacity cap (fun () ->
          let r =
            R.Sim.run (R.Sim.create ~locks:[||] ~n_queues:1 [| producer; consumer |])
          in
          [ string_of_int cap; Printf.sprintf "%.2fx" (seq_total /. r.R.Sim.makespan) ]))
    [ 1; 2; 4; 8; 32; 128 ]

let spin_bounce_sweep () =
  let w = Option.get (Registry.find "kmeans") in
  let c = P.compile ~name:"kmeans" ~setup:w.W.setup w.W.source in
  let doall_spin threads =
    P.evaluate c ~threads
    |> List.find_opt (fun r ->
           r.P.plan.T.Plan.shape = T.Plan.Sdoall && r.P.plan.T.Plan.variant = T.Plan.Spin)
  in
  List.map
    (fun per_waiter ->
      with_knob R.Costmodel.spin_handoff_per_waiter per_waiter (fun () ->
          let s t = match doall_spin t with Some r -> r.P.speedup | None -> 1.0 in
          [
            Printf.sprintf "%.0f" per_waiter;
            Printf.sprintf "%.2fx" (s 4);
            Printf.sprintf "%.2fx" (s 8);
          ]))
    [ 0.; 45.; 90.; 180. ]

let tm_factor_sweep () =
  let w = Option.get (Registry.find "kmeans") in
  let c = P.compile ~name:"kmeans" ~setup:w.W.setup w.W.source in
  let doall_tm () =
    P.evaluate c ~threads:8
    |> List.find_opt (fun r -> r.P.plan.T.Plan.variant = T.Plan.Tm)
  in
  List.map
    (fun factor ->
      with_knob R.Costmodel.tx_instrumentation_factor factor (fun () ->
          [
            Printf.sprintf "%.1f" factor;
            (match doall_tm () with
            | Some r -> Printf.sprintf "%.2fx" r.P.speedup
            | None -> "n/a");
          ]))
    [ 1.0; 1.4; 1.8; 2.5; 4.0 ]

(* ------------------------------------------------------------------ *)
(* Privatization ablation on hmmer                                     *)
(* ------------------------------------------------------------------ *)

let privatization_ablation () =
  let w = Option.get (Registry.find "hmmer") in
  (* hoist the per-iteration sequence buffer out of the loop: iterations
     now share one scratch array, privatization no longer applies, and
     the write-write conflicts block every parallel schedule *)
  let hoisted =
    let needle =
      "  for (int i = 0; i < nseqs; i++) {\n    // generated protein sequences vary in length\n    int len = (seqlen / 2) + ((i * 7) % seqlen);\n    int[] seq = iarray(len);"
    in
    let replacement =
      "  int[] seq = iarray(seqlen * 2);\n  for (int i = 0; i < nseqs; i++) {\n    int len = (seqlen / 2) + ((i * 7) % seqlen);"
    in
    let replace s =
      let ln = String.length needle in
      let rec find i =
        if i + ln > String.length s then None
        else if String.sub s i ln = needle then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i ->
          String.sub s 0 i ^ replacement ^ String.sub s (i + ln) (String.length s - i - ln)
      | None -> s
    in
    replace w.W.source
  in
  List.map
    (fun (name, src) ->
      let c = P.compile ~name ~setup:w.W.setup src in
      [ name; Printf.sprintf "%.2fx" (best_speedup c); best_label c ])
    [ ("fresh buffer per iteration", w.W.source); ("hoisted shared buffer", hoisted) ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render () =
  let buf = Buffer.create 4096 in
  let section title header rows =
    Buffer.add_string buf (Printf.sprintf "%s\n%s\n\n" title (Ascii.table ~header rows));
    Buffer.add_char buf '\n'
  in
  section "Ablation A: md5sum annotation groups (8 threads)"
    [ "configuration"; "best"; "scheme" ]
    (annotation_ablation ());
  section "Ablation B: queue capacity vs a bursty two-stage pipeline"
    [ "capacity"; "best" ] (queue_capacity_sweep ());
  section "Ablation C: spin cache-bounce per waiter vs kmeans DOALL"
    [ "bounce/waiter"; "4 threads"; "8 threads" ]
    (spin_bounce_sweep ());
  section "Ablation D: STM instrumentation factor vs kmeans DOALL+TM (8 threads)"
    [ "factor"; "speedup" ] (tm_factor_sweep ());
  section "Ablation E: privatization (hmmer scratch buffer, 8 threads)"
    [ "configuration"; "best"; "scheme" ]
    (privatization_ablation ());
  Buffer.contents buf

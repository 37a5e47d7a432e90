(** Tests for the discrete-event multicore simulator: compute timing,
    mutual exclusion, FIFO handoff, queue backpressure, deadlock
    detection, transaction conflicts, and emission ordering. *)

module Sim = Commset_runtime.Sim
module Costmodel = Commset_runtime.Costmodel
open Commset_support

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let mutex_lock = { Sim.lflavor = Costmodel.Mutex; lname = "m" }
let spin_lock = { Sim.lflavor = Costmodel.Spin; lname = "s" }

let compute c = Sim.Compute { costs = [| c |]; tag = "w" }

let run ?(locks = [||]) ?(n_queues = 0) segs =
  Sim.run (Sim.create ~locks ~n_queues (Array.map Array.of_list segs))

let test_compute_only () =
  let r = run [| [ compute 100.; compute 50. ]; [ compute 30. ] |] in
  check (Alcotest.float 0.001) "makespan is the longest thread" 150. r.Sim.makespan;
  check (Alcotest.float 0.001) "busy tracked" 150. r.Sim.thread_busy.(0);
  check (Alcotest.float 0.001) "busy tracked 2" 30. r.Sim.thread_busy.(1)

let test_mutual_exclusion () =
  (* two threads, one lock, critical sections of 100 each: they serialize *)
  let thread = [ Sim.Acquire 0; compute 100.; Sim.Release 0 ] in
  let r = run ~locks:[| mutex_lock |] [| thread; thread |] in
  check Alcotest.bool "serialized" true (r.Sim.makespan > 200.);
  check Alcotest.int "one contended acquire" 1 r.Sim.lock_contended

let test_lock_fifo_handoff () =
  (* three waiters resume in request order; emissions record the order *)
  let worker name =
    [ compute 1.; Sim.Acquire 0; Sim.Emit name; compute 50.; Sim.Release 0 ]
  in
  let r =
    run ~locks:[| spin_lock |]
      [| worker "a"; worker "b"; worker "c" |]
  in
  check
    Alcotest.(list string)
    "commit order follows arrival order" [ "a"; "b"; "c" ]
    (List.map snd r.Sim.outputs)

let test_release_unowned () =
  match Diag.guard (fun () -> run ~locks:[| mutex_lock |] [| [ Sim.Release 0 ] |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "releasing an unowned lock must be detected"

let test_queue_fifo () =
  (* producer pushes three tokens; consumer pops three; finishes *)
  let producer = [ compute 10.; Sim.Push 0; Sim.Push 0; compute 5.; Sim.Push 0 ] in
  let consumer = [ Sim.Pop 0; Sim.Pop 0; Sim.Pop 0; Sim.Emit "done" ] in
  let r = run ~n_queues:1 [| producer; consumer |] in
  check Alcotest.int "consumer finished" 1 (List.length r.Sim.outputs)

let test_queue_blocking_consumer () =
  (* the consumer must wait for the producer's long compute *)
  let producer = [ compute 500.; Sim.Push 0 ] in
  let consumer = [ Sim.Pop 0; Sim.Emit "got" ] in
  let r = run ~n_queues:1 [| producer; consumer |] in
  match r.Sim.outputs with
  | [ (t, "got") ] -> check Alcotest.bool "popped after the push" true (t >= 500.)
  | _ -> Alcotest.fail "expected one output"

let test_queue_backpressure () =
  (* capacity is bounded: a producer pushing far ahead must block until
     the consumer drains *)
  let n = Atomic.get Costmodel.queue_capacity + 5 in
  let producer = List.init n (fun _ -> Sim.Push 0) in
  let consumer = List.concat (List.init n (fun _ -> [ compute 100.; Sim.Pop 0 ])) in
  let r = run ~n_queues:1 [| producer; consumer |] in
  (* the producer cannot finish before the consumer frees capacity *)
  check Alcotest.bool "producer throttled" true
    (r.Sim.makespan >= 100. *. float_of_int (n - Atomic.get Costmodel.queue_capacity))

let test_deadlock_detection () =
  (* consumer pops from an empty queue nobody fills *)
  match Diag.guard (fun () -> run ~n_queues:1 [| [ Sim.Pop 0 ] |]) with
  | Error d ->
      check Alcotest.bool "mentions deadlock" true
        (String.length d.Diag.message > 0)
  | Ok _ -> Alcotest.fail "expected deadlock detection"

let test_tm_conflict () =
  (* two transactions writing the same location: one aborts and retries *)
  let tx tag =
    Sim.Tx { cost = 100.; reads = [ "x" ]; writes = [ "x" ]; outputs = [ tag ]; tag; spec = None }
  in
  let r = run [| [ tx "a" ]; [ compute 1.; tx "b" ] |] in
  check Alcotest.bool "at least one abort" true (r.Sim.tx_aborts >= 1);
  check Alcotest.int "both committed" 2 (List.length r.Sim.outputs)

let test_tm_no_false_conflict () =
  (* disjoint read/write sets never conflict *)
  let tx loc = Sim.Tx { cost = 100.; reads = [ loc ]; writes = [ loc ]; outputs = []; tag = loc; spec = None } in
  let r = run [| [ tx "x" ]; [ tx "y" ] |] in
  check Alcotest.int "no aborts" 0 r.Sim.tx_aborts

let test_tm_readers_dont_conflict () =
  let tx = Sim.Tx { cost = 100.; reads = [ "x" ]; writes = []; outputs = []; tag = "r"; spec = None } in
  let r = run [| [ tx ]; [ tx ]; [ tx ] |] in
  check Alcotest.int "read-only txs commute" 0 r.Sim.tx_aborts

let test_emit_ordering () =
  let r =
    run [| [ compute 10.; Sim.Emit "late" ]; [ Sim.Emit "early" ] |]
  in
  check Alcotest.(list string) "outputs sorted by commit time" [ "early"; "late" ]
    (List.map snd r.Sim.outputs)

(* property: with any number of contenders, total busy time is preserved
   and the makespan at least the critical path *)
let prop_lock_conservation =
  QCheck.Test.make ~name:"locks never lose work" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 1 40))
    (fun (threads, crit) ->
      let crit = float_of_int (crit * 10) in
      let body = [ Sim.Acquire 0; compute crit; Sim.Release 0 ] in
      let r =
        Sim.run
          (Sim.create ~locks:[| spin_lock |] ~n_queues:0
             (Array.make threads (Array.of_list body)))
      in
      let total_busy = Array.fold_left ( +. ) 0. r.Sim.thread_busy in
      abs_float (total_busy -. (crit *. float_of_int threads)) < 0.001
      && r.Sim.makespan +. 0.001 >= crit *. float_of_int threads)

(* ---- more simulator properties ---- *)

(* random two-thread lock/compute programs: the makespan is at least the
   busiest thread and at most the serialized total *)
let prop_makespan_bounds =
  QCheck.Test.make ~name:"makespan between max-busy and serial total" ~count:150
    QCheck.(pair (small_list (int_range 1 30)) (small_list (int_range 1 30)))
    (fun (costs1, costs2) ->
      let thread costs =
        List.concat_map
          (fun c -> [ Sim.Acquire 0; compute (float_of_int (c * 10)); Sim.Release 0 ])
          costs
      in
      let r = run ~locks:[| spin_lock |] [| thread costs1; thread costs2 |] in
      let busy1 = r.Sim.thread_busy.(0) and busy2 = r.Sim.thread_busy.(1) in
      let serial = busy1 +. busy2 in
      r.Sim.makespan +. 0.001 >= max busy1 busy2
      (* overheads are bounded: base costs + handoffs per acquire *)
      && r.Sim.makespan
         <= serial
            +. (float_of_int (List.length costs1 + List.length costs2) *. 200.)
            +. 1.0)

(* queue token conservation: the consumer pops exactly what was pushed *)
let prop_queue_conservation =
  QCheck.Test.make ~name:"queue tokens conserved" ~count:150
    QCheck.(int_range 1 80)
    (fun n ->
      let producer = List.concat (List.init n (fun _ -> [ compute 5.; Sim.Push 0 ])) in
      let consumer =
        List.concat (List.init n (fun _ -> [ Sim.Pop 0; Sim.Emit "tok" ]))
      in
      let r = run ~n_queues:1 [| producer; consumer |] in
      List.length r.Sim.outputs = n)

(* ---- the commit index against a naive reference ---- *)

(* a commit is (time, thread, reads, writes) over a tiny alphabet so
   footprints overlap often *)
let commit_gen =
  QCheck.(
    quad (int_range 0 30) (int_range 0 3)
      (small_list (oneofl [ "a"; "b"; "c"; "d" ]))
      (small_list (oneofl [ "a"; "b"; "c"; "d" ])))

let build_index log =
  List.fold_left
    (fun idx (t, th, rs, ws) ->
      Sim.Commit_index.add idx ~time:(float_of_int t) ~thread:th ~reads:rs
        ~writes:ws ~spec:None)
    Sim.Commit_index.empty log

(* the naive full-log scan the index replaced *)
let naive_conflicts log ~thread ~start ~stop ~reads ~writes =
  let overlaps xs ys = List.exists (fun x -> List.mem x ys) xs in
  List.exists
    (fun (t, th, rs, ws) ->
      let t = float_of_int t in
      th <> thread && t > start && t < stop
      && (overlaps ws (reads @ writes) || overlaps rs writes))
    log

let prop_commit_index_agrees =
  QCheck.Test.make ~name:"commit index agrees with naive full-log scan"
    ~count:500
    QCheck.(
      pair (small_list commit_gen)
        (quad (int_range 0 3) (int_range 0 30) (int_range 0 30)
           (pair
              (small_list (oneofl [ "a"; "b"; "c"; "d" ]))
              (small_list (oneofl [ "a"; "b"; "c"; "d" ])))))
    (fun (log, (thread, t1, t2, (reads, writes))) ->
      let start = float_of_int (min t1 t2)
      and stop = float_of_int (max t1 t2) in
      Sim.Commit_index.conflicts (build_index log) ~commutes:None ~thread
        ~start ~stop
        ~reads:(Sim.Sset.of_list reads)
        ~writes:(Sim.Sset.of_list writes)
        ~spec:None
      = naive_conflicts log ~thread ~start ~stop ~reads ~writes)

let prop_prune_preserves_queries =
  QCheck.Test.make
    ~name:"pruning never changes a query whose window starts at or after the cut"
    ~count:500
    QCheck.(pair (small_list commit_gen) (int_range 0 30))
    (fun (log, cut) ->
      let idx = build_index log in
      let pruned =
        Sim.Commit_index.prune idx ~min_time:(float_of_int cut)
      in
      (* every commit at or before the cut is gone, the rest are kept *)
      let expect_size =
        List.length (List.filter (fun (t, _, _, _) -> t > cut) log)
      in
      Sim.Commit_index.size pruned = expect_size
      && List.for_all
           (fun start ->
             List.for_all
               (fun stop ->
                 Sim.Commit_index.conflicts idx ~commutes:None ~thread:99
                   ~start:(float_of_int start) ~stop:(float_of_int stop)
                   ~reads:(Sim.Sset.of_list [ "a"; "c" ])
                   ~writes:(Sim.Sset.of_list [ "b" ])
                   ~spec:None
                 = Sim.Commit_index.conflicts pruned ~commutes:None ~thread:99
                     ~start:(float_of_int start) ~stop:(float_of_int stop)
                     ~reads:(Sim.Sset.of_list [ "a"; "c" ])
                     ~writes:(Sim.Sset.of_list [ "b" ])
                     ~spec:None)
               [ start; start + 1; start + 10; 40 ])
           [ cut; cut + 3; 31 ])

(* ---- run-length Compute segments ---- *)

(* Random thread programs in the shape the emitter produces: per
   iteration, each thread pops one token from every upstream queue,
   runs a body, and pushes one token to every downstream queue. Queues
   only run from lower to higher thread ids and locked sections hold no
   queue operation and take their locks in ascending order, so no
   program deadlocks. Costs are tenths, so a different summation order
   would show in the low bits. *)
type item =
  | Irun of float list
  | Iemit of string
  | Ilocked of int list * item list
  | Itx of float * string list * string list

type program = {
  edges : (int * int) list;  (** queue index = position in this list *)
  n_locks : int;
  bodies : item list list array;  (** thread -> iteration -> body *)
  timeline : bool;
}

let gen_program =
  let open QCheck.Gen in
  let cost = map (fun k -> float_of_int k *. 0.1) (int_range 1 500) in
  let run = map (fun cs -> Irun cs) (list_size (int_range 1 4) cost) in
  let emit = map (fun k -> Iemit (string_of_int k)) (int_range 0 9) in
  let plain = frequency [ (3, run); (1, emit) ] in
  let footprint = list_size (int_range 0 2) (oneofl [ "a"; "b"; "c" ]) in
  let tx = map3 (fun c r w -> Itx (c, r, w)) cost footprint footprint in
  int_range 1 4 >>= fun n_threads ->
  int_range 1 5 >>= fun n_iters ->
  int_range 0 2 >>= fun n_locks ->
  let locked () =
    map2
      (fun held body -> Ilocked (List.sort_uniq compare held, body))
      (list_size (int_range 1 n_locks) (int_range 0 (n_locks - 1)))
      (list_size (int_range 0 3) plain)
  in
  let item =
    frequency ((4, plain) :: (1, tx) :: (if n_locks > 0 then [ (2, locked ()) ] else []))
  in
  let pairs =
    List.concat_map
      (fun p -> List.init (n_threads - p - 1) (fun k -> (p, p + k + 1)))
      (List.init n_threads Fun.id)
  in
  map3
    (fun keep bodies timeline ->
      {
        edges = List.filteri (fun i _ -> List.nth keep i) pairs;
        n_locks;
        bodies = Array.of_list bodies;
        timeline;
      })
    (list_repeat (List.length pairs) bool)
    (list_repeat n_threads (list_repeat n_iters (list_size (int_range 0 4) item)))
    bool

let rec item_segs = function
  | Irun cs -> [ Sim.Compute { costs = Array.of_list cs; tag = "run" } ]
  | Iemit s -> [ Sim.Emit s ]
  | Ilocked (held, body) ->
      List.map (fun l -> Sim.Acquire l) held
      @ List.concat_map item_segs body
      @ List.rev_map (fun l -> Sim.Release l) held
  | Itx (cost, reads, writes) ->
      [ Sim.Tx { cost; reads; writes; outputs = [ "tx" ]; tag = "tx"; spec = None } ]

let program_segs prog =
  let queues = List.mapi (fun q e -> (q, e)) prog.edges in
  Array.mapi
    (fun t iters ->
      Array.of_list
        (List.concat_map
           (fun body ->
             List.filter_map (fun (q, (_, c)) -> if c = t then Some (Sim.Pop q) else None) queues
             @ List.concat_map item_segs body
             @ List.filter_map
                 (fun (q, (p, _)) -> if p = t then Some (Sim.Push q) else None)
                 queues)
           iters))
    prog.bodies

let split_runs segs =
  Array.concat
    (List.map
       (function
         | Sim.Compute { costs; tag } ->
             Array.map (fun c -> Sim.Compute { costs = [| c |]; tag }) costs
         | s -> [| s |])
       (Array.to_list segs))

(* every float as exact hex: equal renderings are bit-identical results *)
let render (r : Sim.result) =
  let b = Buffer.create 256 in
  Printf.bprintf b "makespan %h contended %d aborts %d lock_wait %h queue_wait %h\nbusy"
    r.Sim.makespan r.Sim.lock_contended r.Sim.tx_aborts r.Sim.lock_wait r.Sim.queue_wait;
  Array.iter (Printf.bprintf b " %h") r.Sim.thread_busy;
  Buffer.add_string b "\noutputs";
  List.iter (fun (t, s) -> Printf.bprintf b " %h:%s" t s) r.Sim.outputs;
  Array.iteri
    (fun th ivs ->
      Printf.bprintf b "\nthread %d" th;
      List.iter (fun (s, e, tag) -> Printf.bprintf b " [%h %h %s]" s e tag) ivs)
    r.Sim.timelines;
  Buffer.contents b

let sim_program prog segs =
  let flavors = [| Costmodel.Mutex; Costmodel.Spin; Costmodel.Libsafe |] in
  let locks =
    Array.init prog.n_locks (fun l ->
        { Sim.lflavor = flavors.(l mod 3); lname = "l" ^ string_of_int l })
  in
  render
    (Sim.run
       (Sim.create ~record_timeline:prog.timeline ~locks
          ~n_queues:(List.length prog.edges) segs))

let prop_split_runs =
  QCheck.Test.make ~name:"splitting Compute runs leaves the result bit-identical"
    ~count:300
    (QCheck.make
       ~print:(fun prog ->
         String.concat "\n"
           (Array.to_list
              (Array.mapi
                 (fun t segs -> Printf.sprintf "thread %d: %d segment(s)" t (Array.length segs))
                 (program_segs prog))))
       gen_program)
    (fun prog ->
      let segs = program_segs prog in
      let whole = sim_program prog segs in
      let split = sim_program prog (Array.map split_runs segs) in
      if whole <> split then QCheck.Test.fail_reportf "runs:\n%s\nsplit:\n%s" whole split;
      true)

let prop_cases =
  [
    qcheck prop_split_runs;
    qcheck prop_makespan_bounds;
    qcheck prop_queue_conservation;
    qcheck prop_commit_index_agrees;
    qcheck prop_prune_preserves_queries;
  ]

let suite =
  ( "sim",
    prop_cases
    @ [
      Alcotest.test_case "compute timing" `Quick test_compute_only;
      Alcotest.test_case "mutual exclusion" `Quick test_mutual_exclusion;
      Alcotest.test_case "FIFO handoff" `Quick test_lock_fifo_handoff;
      Alcotest.test_case "release unowned" `Quick test_release_unowned;
      Alcotest.test_case "queue FIFO" `Quick test_queue_fifo;
      Alcotest.test_case "queue blocking" `Quick test_queue_blocking_consumer;
      Alcotest.test_case "queue backpressure" `Quick test_queue_backpressure;
      Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
      Alcotest.test_case "TM conflict" `Quick test_tm_conflict;
      Alcotest.test_case "TM disjoint" `Quick test_tm_no_false_conflict;
      Alcotest.test_case "TM readers" `Quick test_tm_readers_dont_conflict;
      Alcotest.test_case "emit ordering" `Quick test_emit_ordering;
      qcheck prop_lock_conservation;
    ] )


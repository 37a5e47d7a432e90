(** The real multicore execution backend; see the interface for the
    architecture, DESIGN.md §13 for the predicted-vs-measured
    methodology and §14 for the ordering model. *)

module Plan = Commset_transforms.Plan
module Pdg = Commset_pdg.Pdg
module R = Commset_runtime
module Effects = Commset_analysis.Effects
module Ir = Commset_ir.Ir
module Machine = Commset_runtime.Machine
module Value = Commset_runtime.Value
module Trace = Commset_runtime.Trace
module Precompile = Commset_runtime.Precompile
module Builtins = Commset_runtime.Builtins
module Costmodel = Commset_runtime.Costmodel
module Sim = Commset_runtime.Sim
module Recorder = Commset_obs.Recorder
module Clock = Commset_obs.Clock
module Attrib = Commset_obs.Attrib
module Diag = Commset_support.Diag

let src_log = Logs.Src.create "commset.exec" ~doc:"Real multicore execution backend"

module Log = (val Logs.src_log src_log : Logs.LOG)

type engine = Real_engine | Codegen_engine

let engines = [ ("real", Real_engine); ("codegen", Codegen_engine) ]
let engine_name e = fst (List.find (fun (_, e') -> e' = e) engines)

type stats = {
  x_label : string;
  x_engine : string;
  x_threads : int;
  x_wall_seq_s : float;
  x_wall_par_s : float;
  x_measured_speedup : float;
  x_verdict : Equiv.verdict;
  x_lock_contended : int;
  x_queue_full_waits : int;
  x_queue_empty_waits : int;
  x_iterations : int;
  x_frontier_waits : int;
  x_buffered_updates : int;
  x_steps : int;
  x_merge_s : float;
  x_outputs : string list;
  x_engine_reason : string option;
  x_codegen_cache_hit : bool;
  x_codegen_compile_s : float;
  x_attrib : Attrib.summary option;
}

let supported (plan : Plan.t) =
  match plan.Plan.variant with
  | Plan.Tm ->
      Error "TM plans run as software transactions, which only the simulator models"
  | Plan.Spec ->
      Error
        "speculative plans need the simulator's runtime conflict detection and rollback"
  | Plan.Mutex | Plan.Spin | Plan.Lib -> Ok ()

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* ------------------------------------------------------------------ *)
(* The sequential run                                                  *)
(* ------------------------------------------------------------------ *)

type seq = { seq_outputs : string list; seq_wall_s : float; seq_cycles : float }

let run_seq ~(prepared : Precompile.t) ~(setup : Machine.t -> unit) : seq =
  let machine = Machine.create () in
  setup machine;
  let t0 = Clock.now_ns () in
  let cycles = Precompile.run_main (Precompile.executor ~machine prepared) in
  let wall = (Clock.now_ns () -. t0) /. 1e9 in
  { seq_outputs = Machine.outputs machine; seq_wall_s = wall; seq_cycles = cycles }

(* ------------------------------------------------------------------ *)
(* Builtin routes                                                      *)
(* ------------------------------------------------------------------ *)

(* How a worker runs a builtin. Resolved once per run for every builtin
   ([routes], indexed by [Builtins.t.id]) from its descriptor, so a call
   costs one array read and one match. *)
type route =
  | Direct of Builtins.sharing  (** by the builtin's sharing class *)
  | Buffered of (Value.t list -> float)
      (** a writer of a buffered update family: buffered per worker,
          replayed at merge, charged this cost *)

let route_of ~buffered (bi : Builtins.t) =
  match bi.Builtins.spec.Effects.bs_update with
  | Effects.Update_writer family when buffered family -> Buffered (Builtins.deferred_cost bi)
  | _ -> Direct bi.Builtins.sharing

let describe_route ~buffered bi =
  match route_of ~buffered:(fun _ -> buffered) bi with
  | Buffered _ -> "buffered"
  | Direct Builtins.Free -> "free"
  | Direct Builtins.Shared -> "mutexed"
  | Direct Builtins.Ordered -> "ordered"
  | Direct Builtins.Bitmap_alloc -> "bitmap-new"
  | Direct Builtins.Bitmap_free -> "bitmap-free"
  | Direct (Builtins.Bitmap_access _) -> "private-bitmap"

(* Calls that are ordered events — executed in iteration order behind
   the frontier — regardless of annotation: their result depends on
   every earlier call, which the commset annotations do not promise to
   be order-free (they only promise the final state is). A bitmap access
   is one unless its iteration owns the bitmap. *)
let ordered_event (bi : Builtins.t) =
  match bi.Builtins.sharing with
  | Builtins.Ordered | Builtins.Bitmap_access _ -> true
  | _ -> false

(* Merge per-worker buffers (each newest-first) into replay order. The
   stable sort keeps each worker's chronological order among equal keys,
   so for iteration-keyed update buffers — where every iteration belongs
   to exactly one worker — the result is the exact sequential order, no
   matter how iterations were distributed over workers. *)
let merge_order ~compare (bufs : ('k * 'a) list array) : ('k * 'a) list =
  Array.to_list bufs
  |> List.concat_map List.rev
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Static ordering analysis                                            *)
(* ------------------------------------------------------------------ *)

type ordering = {
  o_ordered : bool array;
  o_entry_await : bool array;
  o_node_locks : int array array;
  o_action : int array;
  o_expected : int array;
  o_counting : bool;
}

let shared_mem_loc = function
  | Effects.Lglobal _ | Effects.Lheap _ | Effects.Lunknown -> true
  | Effects.Lext _ -> false

let analyse ~(plan : Plan.t) ~(pdg : Pdg.t) ~(trace : Trace.t)
    ~(locks : Sim.lock_spec array) ~(rt : Precompile.rtarget) : ordering =
  let nnodes = Array.length pdg.Pdg.nodes in
  let ordered = Array.make nnodes false in
  let mark (e : Pdg.edge) =
    if e.Pdg.esrc < nnodes then ordered.(e.Pdg.esrc) <- true;
    if e.Pdg.edst < nnodes then ordered.(e.Pdg.edst) <- true
  in
  (* carried memory dependences the transforms still see *)
  List.iter
    (fun (e : Pdg.edge) ->
      match e.Pdg.ekind with
      | Pdg.Kmem _ when e.Pdg.carried -> mark e
      | _ -> ())
    (Pdg.effective_edges pdg);
  (* carried dependences through shared memory stay ordered even when
     annotated commutative: the annotation promises final-state
     equivalence, but intermediate *values* read from globals or the
     heap feed later computation, so reordering them diverges outputs *)
  List.iter
    (fun (e : Pdg.edge) ->
      match e.Pdg.ekind with
      | Pdg.Kmem locs when e.Pdg.carried && List.exists shared_mem_loc locs -> mark e
      | _ -> ())
    (Pdg.edges pdg);
  (* the coordinator's backbone and loop control are the coordinator's
     business; workers re-execute them on private registers *)
  List.iter
    (fun iid ->
      match Pdg.node_of_instr pdg iid with
      | Some nid when nid < nnodes -> ordered.(nid) <- false
      | _ -> ())
    (Precompile.rtarget_backbone rt);
  Array.iter
    (fun (nd : Pdg.node) -> if nd.Pdg.loop_control then ordered.(nd.Pdg.nid) <- false)
    pdg.Pdg.nodes;
  (* commset lock indices per node, from the emitter's registry *)
  let lock_idx = Hashtbl.create 8 in
  Array.iteri
    (fun i (ls : Sim.lock_spec) ->
      let n = ls.Sim.lname in
      if String.length n > 3 && String.sub n 0 3 = "cs:" then
        Hashtbl.replace lock_idx (String.sub n 3 (String.length n - 3)) i)
    locks;
  let node_locks = Array.make nnodes [||] in
  Hashtbl.iter
    (fun nid names ->
      if nid >= 0 && nid < nnodes then
        node_locks.(nid) <-
          Array.of_list (List.filter_map (fun nm -> Hashtbl.find_opt lock_idx nm) names))
    plan.Plan.node_locks;
  (* nodes whose dynamic instances perform ordered builtin calls: if such
     a node also holds commset locks, entry must await the frontier
     *before* acquiring, or a lock holder blocked on the frontier
     deadlocks against an earlier iteration needing the same lock *)
  let node_ob = Array.make nnodes false in
  let expected = Array.make (Trace.n_iterations trace) 0 in
  let counting = ref true in
  Array.iteri
    (fun k it ->
      List.iter
        (fun (e : Trace.node_exec) ->
          let nid = e.Trace.nid in
          List.iter
            (fun atom ->
              match atom with
              | Trace.Abuiltin { bi; _ } when ordered_event bi ->
                  expected.(k) <- expected.(k) + 1;
                  if nid < nnodes then node_ob.(nid) <- true
              | _ -> ())
            (Trace.exec_atoms e);
          if nid < nnodes && ordered.(nid) then
            match Trace.exec_actuals e with
            | [] ->
                (* a plain ordered instruction: its dynamic instance
                   count is unknowable from the trace, so the whole loop
                   releases the frontier only at iteration end *)
                counting := false
            | acts -> expected.(k) <- expected.(k) + List.length acts)
        (Trace.iteration_execs it))
    trace.Trace.iterations;
  let entry_await = Array.make nnodes false in
  for nid = 0 to nnodes - 1 do
    entry_await.(nid) <-
      ordered.(nid) || (Array.length node_locks.(nid) > 0 && node_ob.(nid))
  done;
  (* entering or leaving any other node only moves [cur_nid], so the
     workers see those nodes as "no node" and never transition there *)
  let is_action nid = ordered.(nid) || entry_await.(nid) || node_locks.(nid) <> [||] in
  let action =
    Array.map
      (function Some nid when nid < nnodes && is_action nid -> nid | _ -> -1)
      pdg.Pdg.instr_node
  in
  {
    o_ordered = ordered;
    o_entry_await = entry_await;
    o_node_locks = node_locks;
    o_action = action;
    o_expected = expected;
    o_counting = !counting;
  }

(* ------------------------------------------------------------------ *)
(* Output routing                                                      *)
(* ------------------------------------------------------------------ *)

(* Worker domains buffer output lines with monotonic timestamps; the
   coordinator emits directly. The key is per-domain, so one shared
   [machine.emit] closure routes correctly from every domain. *)
let out_key : (float * string) list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* ------------------------------------------------------------------ *)
(* The codegen engine's sequential leg                                 *)
(* ------------------------------------------------------------------ *)

(* The coordinator's backbone driving the compiled body inline on one
   domain — no workers, rings, locks or frontier — on a fresh machine:
   the same-engine baseline a codegen speedup divides by. *)
let compiled_seq_leg ~(prepared : Precompile.t) ~(setup : Machine.t -> unit)
    ~(rt : Precompile.rtarget) (c : Commset_codegen.Codegen.compiled) : string list * float =
  Recorder.with_span ~cat:"exec" "exec.seq_codegen" @@ fun () ->
  let machine = Machine.create () in
  setup machine;
  let ex = Precompile.executor ~machine prepared in
  let wst = Precompile.worker_state ex ~fuel:max_int in
  let ctx =
    {
      Commset_codegen.Abi.cg_globals = Precompile.wstate_globals wst;
      cg_gdefined = Precompile.wstate_gdefined wst;
      cg_node = ignore;
      cg_builtin = (fun bi argv ~has_dst:_ -> bi.Builtins.impl machine argv);
      cg_charge = (fun ~steps ~cost -> Precompile.wstate_charge wst ~steps ~cost);
      cg_fuel_left = (fun () -> Precompile.wstate_fuel_left wst);
    }
  in
  let fn = c.Commset_codegen.Codegen.cg_fn in
  let t0 = Clock.now_ns () in
  ignore
    (Precompile.run_main_real ex rt
       ~on_iter:(fun _ regs -> fn ctx (Array.copy regs))
       ~on_loop_done:ignore
      : float);
  let wall = (Clock.now_ns () -. t0) /. 1e9 in
  (Machine.outputs machine, wall)

(* ------------------------------------------------------------------ *)
(* The engine leg                                                      *)
(* ------------------------------------------------------------------ *)

exception Aborted

let engine_leg ?(engine = Real_engine) ?(attrib = true) ~(plan : Plan.t) ~(pdg : Pdg.t)
    ~(trace : Trace.t) ~locks:(lock_specs : Sim.lock_spec array)
    ~(prepared : Precompile.t) ~(setup : Machine.t -> unit) ~(jobs : int) () :
    stats * (string list * float) option =
  let loop = pdg.Pdg.loop in
  match
    Precompile.plan_real prepared ~fname:pdg.Pdg.func.Ir.fname
      ~header:loop.Commset_analysis.Loops.header
      ~latches:loop.Commset_analysis.Loops.latches ~body:loop.Commset_analysis.Loops.body
  with
  | Error why ->
      Diag.error ~code:"CS014"
        "plan '%s' cannot run on the real backend: the target loop defeats the \
         coordinator/worker split: %s"
        plan.Plan.label why
  | Ok rt ->
      let ord = analyse ~plan ~pdg ~trace ~locks:lock_specs ~rt in
      let action = ord.o_action in
      (* compile the iteration body when asked, with node transitions at
         the action boundaries only; any failure degrades to the
         interpreted path with the reason surfaced in the result *)
      let cg, cg_fallback =
        if engine <> Codegen_engine then (None, None)
        else
          let nid_of_iid iid =
            if iid >= 0 && iid < Array.length action then action.(iid) else -1
          in
          match Commset_codegen.Codegen.prepare ~prepared ~rt ~nid_of_iid () with
          | Ok c ->
              Log.debug (fun m ->
                  m "plan '%s': codegen %s (key %s, %.3fs compile)" plan.Plan.label
                    (if c.Commset_codegen.Codegen.cg_cache_hit then "cache hit"
                     else "compiled")
                    (String.sub c.Commset_codegen.Codegen.cg_key 0 8)
                    c.Commset_codegen.Codegen.cg_compile_s);
              (Some c, None)
          | Error why ->
              Log.info (fun m ->
                  m "plan '%s': codegen fell back to interpreter: %s" plan.Plan.label
                    why);
              (None, Some why)
      in
      let seq_codegen = Option.map (compiled_seq_leg ~prepared ~setup ~rt) cg in
      let program = Precompile.program prepared in
      let families =
        Effects.bufferable_updates Builtins.lookup_spec program pdg.Pdg.func
          loop.Commset_analysis.Loops.body
      in
      let routes =
        Array.of_list (List.map (route_of ~buffered:(Hashtbl.mem families)) Builtins.all)
      in
      let w = max 1 jobs in
      let n = Trace.n_iterations trace in
      Log.debug (fun m ->
          m "plan '%s': %d worker(s), %d traced iteration(s), %s frontier, %d buffered famil(ies)"
            plan.Plan.label w n
            (if ord.o_counting then "counted" else "iteration-grained")
            (Hashtbl.length families));
      let machine = Machine.create () in
      setup machine;
      let ex = Precompile.executor ~machine prepared in
      machine.Machine.emit <-
        (fun s ->
          match Domain.DLS.get out_key with
          | Some buf -> buf := (Clock.now_ns (), s) :: !buf
          | None -> Machine.default_emit machine s);
      let locks = Locks.create lock_specs in
      let machine_lock = Spin.lock_create () in
      let abort = Atomic.make false in
      let frontier = Atomic.make 0 in
      let released = Array.init n (fun _ -> Atomic.make false) in
      let release_iter k =
        if k >= 0 && k < n && not (Atomic.get released.(k)) then begin
          Atomic.set released.(k) true;
          let continue_ = ref true in
          while !continue_ do
            let f = Atomic.get frontier in
            if f < n && Atomic.get released.(f) then
              ignore (Atomic.compare_and_set frontier f (f + 1))
            else continue_ := false
          done
        end
      in
      let capacity = Atomic.get Costmodel.queue_capacity in
      let rings : (int * Value.t array) Spsc.t array =
        Array.init w (fun _ -> Spsc.create ~capacity)
      in
      (* per-worker mutable state, read by the coordinator after join *)
      let obufs = Array.init w (fun _ -> ref []) in
      let ubufs : (int * (Builtins.t * Value.t list)) list ref array =
        Array.init w (fun _ -> ref [])
      in
      let errors : exn option ref array = Array.init w (fun _ -> ref None) in
      let wsteps = Array.make w 0 in
      let wcontended = Array.make w 0 in
      let wfrontier = Array.make w 0 in
      let wempty = Array.make w 0 in
      let wbuffered = Array.make w 0 in
      let full_waits = ref 0 in
      (* attribution layer: per-worker accumulators, machine mutex as a
         pseudo-lock one past the commset lock table *)
      let lock_names = Array.map (fun (ls : Sim.lock_spec) -> ls.Sim.lname) lock_specs in
      let machine_li = Array.length lock_names in
      let builtin_names =
        Array.of_list (List.map (fun (b : Builtins.t) -> b.Builtins.name) Builtins.all)
      in
      let att =
        Attrib.create ~enabled:attrib ~lock_names ~builtin_names ~jobs:w ~iterations:n
      in
      let worker wi () =
        Recorder.with_span ~cat:"exec" "exec.real_worker" @@ fun () ->
        let aw = Attrib.worker att wi in
        let prof = Attrib.on aw in
        Domain.DLS.set out_key (Some obufs.(wi));
        let wst = Precompile.worker_state ex ~fuel:max_int in
        let ring = rings.(wi) in
        let priv_bm : (int, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
        let cur_k = ref 0 in
        let cur_nid = ref (-1) in
        let held : int list ref = ref [] in
        let ev = ref 0 in
        let await () =
          if Atomic.get frontier < !cur_k then begin
            wfrontier.(wi) <- wfrontier.(wi) + 1;
            let t0 = if prof then Clock.now_ns () else 0. in
            let b = Spin.backoff () in
            while Atomic.get frontier < !cur_k do
              if Atomic.get abort then raise Aborted;
              Spin.once b
            done;
            if prof then Attrib.add_frontier aw (Clock.now_ns () -. t0)
          end
        in
        let bump () =
          if ord.o_counting then begin
            ev := !ev + 1;
            if !cur_k < n && !ev >= ord.o_expected.(!cur_k) then release_iter !cur_k
          end
        in
        (* [cur_nid] is the action node the worker is in, -1 for none *)
        let exit_node () =
          (match !cur_nid with
          | -1 -> ()
          | nid ->
              (* release in reverse acquisition order *)
              List.iter (fun li -> Locks.release locks li) !held;
              held := [];
              if ord.o_ordered.(nid) then bump ());
          cur_nid := -1
        in
        let enter_node nid =
          if ord.o_entry_await.(nid) then await ();
          Array.iter
            (fun li ->
              if prof then begin
                let t0 = Clock.now_ns () in
                Locks.acquire locks li;
                Attrib.add_lock aw li (Clock.now_ns () -. t0)
              end
              else Locks.acquire locks li;
              held := li :: !held)
            ord.o_node_locks.(nid);
          cur_nid := nid
        in
        let transition nid =
          exit_node ();
          if nid >= 0 then enter_node nid
        in
        let on_instr (i : Ir.instr) =
          let nid = action.(i.Ir.iid) in
          if nid <> !cur_nid then transition nid
        in
        (* an uncontended acquisition waits for nothing: only contended
           episodes pay for clock reads *)
        let with_mutex f =
          (if Spin.try_acquire machine_lock then begin
             if prof then Attrib.add_lock aw machine_li 0.
           end
           else begin
             wcontended.(wi) <- wcontended.(wi) + 1;
             let t0 = if prof then Clock.now_ns () else 0. in
             Spin.acquire machine_lock;
             if prof then Attrib.add_lock aw machine_li (Clock.now_ns () -. t0)
           end);
          Fun.protect ~finally:(fun () -> Spin.release machine_lock) f
        in
        let ordered_call (bi : Builtins.t) argv =
          await ();
          let r = with_mutex (fun () -> bi.Builtins.impl machine argv) in
          bump ();
          r
        in
        let builtin_raw (bi : Builtins.t) argv =
          match routes.(bi.Builtins.id) with
          | Direct Builtins.Free -> bi.Builtins.impl machine argv
          | Direct Builtins.Shared -> with_mutex (fun () -> bi.Builtins.impl machine argv)
          | Direct Builtins.Ordered -> ordered_call bi argv
          | Buffered cost ->
              ubufs.(wi) := (!cur_k, (bi, argv)) :: !(ubufs.(wi));
              wbuffered.(wi) <- wbuffered.(wi) + 1;
              (Value.Vint 0, cost argv)
          | Direct (Builtins.Bitmap_access on_payload) -> (
              let owned =
                match argv with Value.Vint h :: _ -> Hashtbl.find_opt priv_bm h | _ -> None
              in
              match owned with
              | Some bytes ->
                  (* this worker allocated the handle this iteration: the
                     payload is private, no lock and no ordering needed *)
                  (on_payload bytes argv, Builtins.deferred_cost bi argv)
              | None -> ordered_call bi argv)
          | Direct Builtins.Bitmap_alloc ->
              with_mutex (fun () ->
                  let ((v, _) as r) = bi.Builtins.impl machine argv in
                  (match v with
                  | Value.Vint id -> (
                      match Hashtbl.find_opt machine.Machine.bitmaps id with
                      | Some bytes -> Hashtbl.replace priv_bm id bytes
                      | None -> ())
                  | _ -> ());
                  r)
          | Direct Builtins.Bitmap_free ->
              with_mutex (fun () ->
                  let r = bi.Builtins.impl machine argv in
                  (match argv with Value.Vint id :: _ -> Hashtbl.remove priv_bm id | _ -> ());
                  r)
        in
        let builtin (bi : Builtins.t) argv ~has_dst:_ =
          if not prof then builtin_raw bi argv
          else begin
            (* net out waits the builtin performs internally (frontier
               await, machine-mutex acquisition) — they are charged to
               their own causes *)
            let t0 = Clock.now_ns () in
            let w0 = Attrib.inner_waits aw in
            let ((_, cost) as r) = builtin_raw bi argv in
            let dt = Clock.now_ns () -. t0 -. (Attrib.inner_waits aw -. w0) in
            Attrib.add_builtin aw bi.Builtins.id ~ns:dt ~cost;
            r
          end
        in
        (* compiled-iteration context: the same node-transition and
           builtin machinery as the interpreted path, behind the ABI *)
        let cg_ctx =
          match cg with
          | None -> None
          | Some c ->
              Some
                ( c.Commset_codegen.Codegen.cg_fn,
                  {
                    Commset_codegen.Abi.cg_globals = Precompile.wstate_globals wst;
                    cg_gdefined = Precompile.wstate_gdefined wst;
                    cg_node = (fun nid -> if nid <> !cur_nid then transition nid);
                    cg_builtin = builtin;
                    cg_charge =
                      (fun ~steps ~cost ->
                        if prof then Attrib.charge_flush aw;
                        Precompile.wstate_charge wst ~steps ~cost);
                    cg_fuel_left = (fun () -> Precompile.wstate_fuel_left wst);
                  } )
        in
        let rec loop_items () =
          let item =
            match Spsc.try_pop ring with
            | Some it -> it
            | None ->
                wempty.(wi) <- wempty.(wi) + 1;
                let t0 = if prof then Clock.now_ns () else 0. in
                let b = Spin.backoff () in
                let rec wait () =
                  match Spsc.try_pop ring with
                  | Some it -> it
                  | None ->
                      if Atomic.get abort then raise Aborted;
                      Spin.once b;
                      wait ()
                in
                let it = wait () in
                if prof then Attrib.add_dispatch aw (Clock.now_ns () -. t0);
                it
          in
          let k, regs = item in
          if k >= 0 then begin
            if prof then Attrib.iter_begin aw (Clock.now_ns ());
            cur_k := k;
            ev := 0;
            cur_nid := -1;
            Hashtbl.reset priv_bm;
            (match cg_ctx with
            | Some (fn, ctx) -> fn ctx regs
            | None -> Precompile.run_iteration wst rt ~on_instr ~builtin regs);
            exit_node ();
            release_iter k;
            if prof then Attrib.iter_end aw (Clock.now_ns ());
            loop_items ()
          end
        in
        (try loop_items () with
        | Aborted -> ()
        | e ->
            (* free everything other domains could block on, then flag *)
            List.iter (fun li -> Locks.release locks li) !held;
            held := [];
            errors.(wi) := Some e;
            Atomic.set abort true;
            release_iter !cur_k);
        wsteps.(wi) <- max_int - Precompile.wstate_fuel_left wst;
        if prof then Attrib.set_charged aw (Precompile.wstate_total wst)
      in
      let domains = Array.init w (fun wi -> Domain.spawn (worker wi)) in
      let joined = ref false in
      let join_all () =
        if not !joined then begin
          joined := true;
          Array.iter Domain.join domains
        end
      in
      let first_error () =
        Array.fold_left
          (fun acc slot -> match acc with Some _ -> acc | None -> !slot)
          None errors
      in
      let dispatched = ref 0 in
      let finished = ref false in
      let merge_s = ref 0. in
      let prof_coord = Attrib.enabled att in
      let ring_push ring v =
        if not (Spsc.try_push ring v) then begin
          incr full_waits;
          let t0 = if prof_coord then Clock.now_ns () else 0. in
          let b = Spin.backoff () in
          while not (Spsc.try_push ring v) do
            if Atomic.get abort then begin
              join_all ();
              match first_error () with Some e -> raise e | None -> raise Aborted
            end;
            Spin.once b
          done;
          if prof_coord then Attrib.add_coord_dispatch att (Clock.now_ns () -. t0)
        end
      in
      let finish () =
        if not !finished then begin
          finished := true;
          Array.iter (fun r -> ring_push r (-1, [||])) rings;
          join_all ();
          (match first_error () with Some e -> raise e | None -> ());
          let t0 = Clock.now_ns () in
          Recorder.with_span ~cat:"exec" "exec.real_merge" (fun () ->
              (* replay buffered updates in iteration order: each
                 iteration belongs to exactly one worker and each worker
                 buffer is chronological, so a stable sort on the
                 iteration index reproduces the sequential update order
                 exactly — float accumulation order included *)
              let upds =
                merge_order ~compare:Int.compare (Array.map ( ! ) ubufs)
              in
              List.iter (fun (_, (bi, argv)) -> ignore (bi.Builtins.impl machine argv)) upds;
              (* worker output lines merge on the shared monotonic clock;
                 frontier-ordered emits carry ordered timestamps *)
              let outs =
                merge_order ~compare:Float.compare (Array.map ( ! ) obufs)
              in
              List.iter (fun (_, s) -> Machine.default_emit machine s) outs);
          merge_s := (Clock.now_ns () -. t0) /. 1e9
        end
      in
      (* inline fallback once the workers are retired (a re-entered
         target loop after the first exit): plain sequential execution,
         counted like dispatched work *)
      let inline_wst = lazy (Precompile.worker_state ex ~fuel:max_int) in
      let inline_iters = ref 0 in
      let on_iter k regs =
        if !finished then begin
          incr inline_iters;
          Precompile.run_iteration (Lazy.force inline_wst) rt ~on_instr:ignore
            ~builtin:(fun bi argv ~has_dst:_ -> bi.Builtins.impl machine argv)
            (Array.copy regs)
        end
        else begin
          if k >= n then begin
            Atomic.set abort true;
            join_all ();
            Diag.error
              "real-exec: dispatched more iterations than the recorded trace (%d)" n
          end;
          incr dispatched;
          ring_push rings.(k mod w) (k, Array.copy regs)
        end
      in
      let t0 = Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          if not !finished then begin
            Atomic.set abort true;
            join_all ()
          end)
        (fun () ->
          Recorder.with_span ~cat:"exec" "exec.real_coordinator" @@ fun () ->
          ignore (Precompile.run_main_real ex rt ~on_iter ~on_loop_done:finish : float);
          finish ());
      let wall_par_s = (Clock.now_ns () -. t0) /. 1e9 in
      let sum a = Array.fold_left ( + ) 0 a in
      let inline_steps =
        if Lazy.is_val inline_wst then max_int - Precompile.wstate_fuel_left (Lazy.force inline_wst)
        else 0
      in
      let steps = Precompile.steps ex + sum wsteps + inline_steps in
      let frontier_waits = sum wfrontier in
      let buffered_n = sum wbuffered in
      let attrib_summary =
        Attrib.summarize att ~coord_wall_ns:(wall_par_s *. 1e9) ~merge_ns:(!merge_s *. 1e9)
      in
      Log.info (fun m ->
          m "plan '%s': %d iteration(s) on %d worker(s), %.3f ms, %d frontier wait(s), %d buffered"
            plan.Plan.label !dispatched w (wall_par_s *. 1e3) frontier_waits buffered_n);
      ( {
          x_label = plan.Plan.label;
          x_engine = (match cg with Some _ -> "codegen" | None -> "real");
          x_threads = w;
          x_wall_seq_s = nan;
          x_wall_par_s = wall_par_s;
          x_measured_speedup = nan;
          x_verdict = Equiv.Mismatch;
          x_lock_contended = Locks.contended_total locks + sum wcontended;
          x_queue_full_waits = !full_waits;
          x_queue_empty_waits = sum wempty;
          x_iterations = !dispatched + !inline_iters;
          x_frontier_waits = frontier_waits;
          x_buffered_updates = buffered_n;
          x_steps = steps;
          x_merge_s = !merge_s;
          x_outputs = Machine.outputs machine;
          x_engine_reason = cg_fallback;
          x_codegen_cache_hit =
            (match cg with
            | Some c -> c.Commset_codegen.Codegen.cg_cache_hit
            | None -> false);
          x_codegen_compile_s =
            (match cg with
            | Some c -> c.Commset_codegen.Codegen.cg_compile_s
            | None -> 0.);
          x_attrib = attrib_summary;
        },
        seq_codegen )

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?engine ?jobs ?(attrib = true) ~(plan : Plan.t) ~(pdg : Pdg.t) ~(trace : Trace.t)
    ~locks ~(judge : string list -> Equiv.verdict) ~(prepared : Precompile.t) ~setup () :
    stats =
  (match supported plan with
  | Ok () -> ()
  | Error why ->
      Diag.error ~code:"CS014" "plan '%s' cannot run on the real backend: %s"
        plan.Plan.label why);
  Recorder.with_span ~cat:"exec" "exec.run" @@ fun () ->
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  (* the equivalence reference: what the sequential program prints
     today, on a fresh machine; its wall time is the real engine's
     baseline *)
  let { seq_outputs = reference; seq_wall_s = wall_interp_s; _ } =
    Recorder.with_span ~cat:"exec" "exec.seq_reference" (fun () -> run_seq ~prepared ~setup)
  in
  (* both are sequential runs of the same deterministic program; a
     divergence means the compilation artifacts are out of sync *)
  if not (List.equal String.equal reference trace.Trace.seq_outputs) then
    Diag.error
      "internal: fresh sequential reference diverged from the recorded trace of '%s'"
      plan.Plan.label;
  let s, compiled_seq =
    engine_leg ?engine ~attrib ~plan ~pdg ~trace ~locks ~prepared ~setup ~jobs ()
  in
  (* a speedup divides like by like: a compiled parallel leg by the
     compiled sequential leg, which must print the reference *)
  let wall_seq_s =
    match compiled_seq with
    | None -> wall_interp_s
    | Some (outputs, wall) ->
        if not (List.equal String.equal outputs reference) then
          Diag.error
            "internal: the compiled sequential leg of '%s' diverged from the sequential \
             reference"
            plan.Plan.label;
        wall
  in
  if s.x_iterations <> Trace.n_iterations trace then
    Log.warn (fun m ->
        m "plan '%s': dispatched %d iteration(s), trace recorded %d" plan.Plan.label
          s.x_iterations (Trace.n_iterations trace));
  let stats =
    {
      s with
      x_wall_seq_s = wall_seq_s;
      x_measured_speedup = wall_seq_s /. Float.max 1e-9 s.x_wall_par_s;
      x_verdict = judge s.x_outputs;
    }
  in
  Log.info (fun m ->
      m "plan '%s' (%s): %.3f ms sequential, %.3f ms on %d domain(s), %s"
        plan.Plan.label stats.x_engine (stats.x_wall_seq_s *. 1e3)
        (stats.x_wall_par_s *. 1e3) stats.x_threads
        (Equiv.verdict_to_string stats.x_verdict));
  stats

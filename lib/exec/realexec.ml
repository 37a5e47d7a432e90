(** True parallel execution of the prepared program on OCaml 5 domains;
    see the interface for the architecture and DESIGN.md §14 for the
    ordering model. *)

module Plan = Commset_transforms.Plan
module Emit = Commset_transforms.Emit
module Pdg = Commset_pdg.Pdg
module Effects = Commset_analysis.Effects
module Ir = Commset_ir.Ir
module R = Commset_runtime
module Machine = Commset_runtime.Machine
module Value = Commset_runtime.Value
module Trace = Commset_runtime.Trace
module Precompile = Commset_runtime.Precompile
module Builtins = Commset_runtime.Builtins
module Costmodel = Commset_runtime.Costmodel
module Sim = Commset_runtime.Sim
module Recorder = Commset_obs.Recorder
module Metrics = Commset_obs.Metrics
module Clock = Commset_obs.Clock
module Attrib = Commset_obs.Attrib
module Diag = Commset_support.Diag

let src_log = Logs.Src.create "commset.realexec" ~doc:"Real prepared-program execution"

module Log = (val Logs.src_log src_log : Logs.LOG)

let m_iterations =
  Metrics.counter ~doc:"iterations dispatched to real worker domains" "exec.real_iterations"

let m_frontier_waits =
  Metrics.counter ~doc:"blocking episodes on the iteration frontier" "exec.frontier_waits"

let m_buffered =
  Metrics.counter ~doc:"commutative updates buffered per-domain" "exec.buffered_updates"

let m_worker_steps =
  Metrics.counter ~doc:"instructions retired on worker domains" "exec.worker_steps"

let g_merge = Metrics.gauge ~doc:"merge-phase seconds (last real run)" "exec.merge_s"

(* last-run attribution totals, for the metrics dumps *)
let g_attr_dispatch =
  Metrics.gauge ~doc:"attributed dispatch-queue wait ns (last real run)"
    "exec.attrib.dispatch_wait_ns"

let g_attr_lock =
  Metrics.gauge ~doc:"attributed commset-lock wait ns (last real run)" "exec.attrib.lock_wait_ns"

let g_attr_frontier =
  Metrics.gauge ~doc:"attributed frontier wait ns (last real run)" "exec.attrib.frontier_wait_ns"

let g_attr_builtin =
  Metrics.gauge ~doc:"attributed builtin ns (last real run)" "exec.attrib.builtin_ns"

let g_attr_compute =
  Metrics.gauge ~doc:"attributed compute ns (last real run)" "exec.attrib.compute_ns"

type result = {
  r_outputs : string list;
  r_wall_par_s : float;
  r_iterations : int;
  r_frontier_waits : int;
  r_lock_contended : int;
  r_queue_full_waits : int;
  r_queue_empty_waits : int;
  r_buffered : int;
  r_steps : int;
  r_merge_s : float;
  r_engine : string;
  r_codegen_fallback : string option;
  r_codegen_cache_hit : bool;
  r_codegen_compile_s : float;
  r_attrib : Attrib.summary option;
}

exception Aborted

(* ------------------------------------------------------------------ *)
(* Builtin classification                                              *)
(* ------------------------------------------------------------------ *)

(* Builtins whose calls are ordered events regardless of annotation:
   their result value depends on every earlier call (a shared cursor or
   seed), so running them out of iteration order changes program values,
   not just effect interleaving. The commset annotations only promise
   that the *final state* is order-free — the values each call returns
   are not. *)
let always_ordered = [ "rng_int"; "rng_range"; "rng_float"; "rng_gauss"; "rng_reseed"; "db_read"; "pkt_dequeue" ]

(* Bitmap ops are ordered only on shared handles; a handle allocated in
   the current iteration is private to its worker and runs lock-free. *)
let is_ordered_builtin name =
  List.mem name always_ordered || name = "bm_get" || name = "bm_set"

(* Machine-mutating builtins that declare no abstract resource (their
   effects are annotation-invisible by design) but mutate shared
   hashtables; they must still be serialized at the machine level. *)
let mutexed_by_name name = name = "graph_set_neighbor" || name = "graph_set_weight"

(* Simulated cost charged for a buffered call (the impl runs later, on
   the coordinator, where its cost is not charged to any worker). *)
let buffered_cost name argv =
  match name with
  | "stat_add" -> 16.
  | "stat_note_max" -> 14.
  | "hist_add" -> Costmodel.hist_cost
  | "vec_push" -> Costmodel.collection_op_cost
  | "log_write" ->
      let len =
        match argv with Value.Vstring s :: _ -> String.length s | _ -> 0
      in
      Costmodel.log_write_base +. (Costmodel.per_byte *. float_of_int len)
  | _ -> 10.

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
  o_ordered : bool array;  (** nid -> entry/exit participates in the frontier *)
  o_entry_await : bool array;  (** nid -> await the frontier at node entry *)
  o_node_locks : int array array;  (** nid -> commset lock indices, rank order *)
  o_expected : int array;  (** iteration -> expected ordered-event count *)
  o_counting : bool;  (** false: release only at iteration end (uncounted mode) *)
}

let shared_mem_loc = function
  | Effects.Lglobal _ | Effects.Lheap _ | Effects.Lunknown -> true
  | Effects.Lext _ -> false

let analyse ~(plan : Plan.t) ~(pdg : Pdg.t) ~(trace : Trace.t)
    ~(emitted : Emit.t) ~(rt : Precompile.rtarget) : ordering =
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
    emitted.Emit.locks;
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
              | Trace.Abuiltin { bname; _ } when is_ordered_builtin bname ->
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
  {
    o_ordered = ordered;
    o_entry_await = entry_await;
    o_node_locks = node_locks;
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
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run ?(codegen = false) ?(attrib = true) ~(plan : Plan.t) ~(pdg : Pdg.t)
    ~(trace : Trace.t) ~(emitted : Emit.t) ~(prepared : Precompile.t)
    ~(setup : Machine.t -> unit) ~(jobs : int) () : (result, string) Stdlib.result =
  let loop = pdg.Pdg.loop in
  match
    Precompile.plan_real prepared ~fname:pdg.Pdg.func.Ir.fname
      ~header:loop.Commset_analysis.Loops.header
      ~latches:loop.Commset_analysis.Loops.latches ~body:loop.Commset_analysis.Loops.body
  with
  | Error why -> Error why
  | Ok rt ->
      (* compile the iteration body when asked; any failure degrades to
         the interpreted path with the reason surfaced in the result *)
      let cg, cg_fallback =
        if not codegen then (None, None)
        else
          let nid_of_iid iid =
            match Pdg.node_of_instr pdg iid with Some nid -> nid | None -> -1
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
      let ord = analyse ~plan ~pdg ~trace ~emitted ~rt in
      let program = Precompile.program prepared in
      let buffered =
        Effects.bufferable_updates program pdg.Pdg.func loop.Commset_analysis.Loops.body
      in
      let w = max 1 jobs in
      let n = Trace.n_iterations trace in
      Log.debug (fun m ->
          m "plan '%s': %d worker(s), %d traced iteration(s), %s frontier, %d buffered writer(s)"
            plan.Plan.label w n
            (if ord.o_counting then "counted" else "iteration-grained")
            (Hashtbl.length buffered));
      let machine = Machine.create () in
      setup machine;
      let ex = Precompile.executor ~machine prepared in
      machine.Machine.emit <-
        (fun s ->
          match Domain.DLS.get out_key with
          | Some buf -> buf := (Clock.now_ns (), s) :: !buf
          | None -> Machine.default_emit machine s);
      let locks = Locks.create emitted.Emit.locks in
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
      let ubufs : (int * (string * Value.t list)) list ref array =
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
      let lock_names = Array.map (fun (ls : Sim.lock_spec) -> ls.Sim.lname) emitted.Emit.locks in
      let machine_li = Array.length lock_names in
      let builtin_names =
        Array.of_list (List.map (fun (b : Builtins.t) -> b.Builtins.name) Builtins.all)
      in
      let att = Attrib.create ~enabled:attrib ~lock_names ~builtin_names ~jobs:w in
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
        let on_instr (i : Ir.instr) =
          match Pdg.node_of_instr pdg i.Ir.iid with
          | Some nid when nid <> !cur_nid ->
              exit_node ();
              enter_node nid
          | Some _ -> ()
          | None -> exit_node ()
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
        let bm_arg argv = match argv with Value.Vint h :: rest -> (h, rest) | _ -> (-1, []) in
        let builtin_raw (bi : Builtins.t) argv ~has_dst =
          let name = bi.Builtins.name in
          if Hashtbl.mem buffered name then begin
            ignore has_dst;
            ubufs.(wi) := (!cur_k, (name, argv)) :: !(ubufs.(wi));
            wbuffered.(wi) <- wbuffered.(wi) + 1;
            (Value.Vint 0, buffered_cost name argv)
          end
          else if name = "bm_set" || name = "bm_get" then begin
            let h, rest = bm_arg argv in
            match Hashtbl.find_opt priv_bm h with
            | Some bytes ->
                (* this worker allocated the handle this iteration: the
                   payload is private, no lock and no ordering needed *)
                let key = match rest with Value.Vint k :: _ -> k | _ -> -1 in
                let byte = key / 8 and bit = key mod 8 in
                if name = "bm_set" then begin
                  if byte < 0 || byte >= Bytes.length bytes then
                    Diag.error "runtime: bitmap key %d out of range" key;
                  Bytes.set bytes byte
                    (Char.chr (Char.code (Bytes.get bytes byte) lor (1 lsl bit)));
                  (Value.Vint 0, Costmodel.collection_op_cost)
                end
                else if byte < 0 || byte >= Bytes.length bytes then (Value.Vbool false, 8.)
                else
                  (Value.Vbool (Char.code (Bytes.get bytes byte) land (1 lsl bit) <> 0), 8.)
            | None ->
                await ();
                let r = with_mutex (fun () -> bi.Builtins.impl machine argv) in
                bump ();
                r
          end
          else if List.mem name always_ordered then begin
            await ();
            let r = with_mutex (fun () -> bi.Builtins.impl machine argv) in
            bump ();
            r
          end
          else if Builtins.resources bi <> [] || mutexed_by_name name then
            with_mutex (fun () ->
                let ((v, _) as r) = bi.Builtins.impl machine argv in
                (match name with
                | "bm_new" -> (
                    match v with
                    | Value.Vint id -> (
                        match Hashtbl.find_opt machine.Machine.bitmaps id with
                        | Some bytes -> Hashtbl.replace priv_bm id bytes
                        | None -> ())
                    | _ -> ())
                | "bm_free" -> (
                    match argv with
                    | Value.Vint id :: _ -> Hashtbl.remove priv_bm id
                    | _ -> ())
                | _ -> ());
                r)
          else bi.Builtins.impl machine argv
        in
        let builtin (bi : Builtins.t) argv ~has_dst =
          if not prof then builtin_raw bi argv ~has_dst
          else begin
            (* net out waits the builtin performs internally (frontier
               await, machine-mutex acquisition) — they are charged to
               their own causes *)
            let t0 = Clock.now_ns () in
            let w0 = Attrib.inner_waits aw in
            let ((_, cost) as r) = builtin_raw bi argv ~has_dst in
            let dt = Clock.now_ns () -. t0 -. (Attrib.inner_waits aw -. w0) in
            Attrib.add_builtin aw (Attrib.builtin_slot att bi.Builtins.name) ~ns:dt ~cost;
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
                    cg_node =
                      (fun nid ->
                        if nid <> !cur_nid then begin
                          exit_node ();
                          if nid >= 0 then enter_node nid
                        end);
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
              List.iter
                (fun (_, (name, argv)) ->
                  ignore ((Builtins.find_exn name).Builtins.impl machine argv))
                upds;
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
         target loop after the first exit): plain sequential execution *)
      let inline_wst = lazy (Precompile.worker_state ex ~fuel:max_int) in
      let on_iter k regs =
        if !finished then
          Precompile.run_iteration (Lazy.force inline_wst) rt ~on_instr:ignore
            ~builtin:(fun bi argv ~has_dst:_ -> bi.Builtins.impl machine argv)
            (Array.copy regs)
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
      let steps = Precompile.steps ex + sum wsteps in
      let frontier_waits = sum wfrontier in
      let buffered_n = sum wbuffered in
      Metrics.add m_iterations !dispatched;
      Metrics.add m_frontier_waits frontier_waits;
      Metrics.add m_buffered buffered_n;
      Metrics.add m_worker_steps (sum wsteps);
      Metrics.gauge_set g_merge !merge_s;
      let attrib_summary =
        Attrib.summarize att ~coord_wall_ns:(wall_par_s *. 1e9) ~merge_ns:(!merge_s *. 1e9)
      in
      (match attrib_summary with
      | Some s ->
          Metrics.gauge_set g_attr_dispatch s.Attrib.a_dispatch_ns;
          Metrics.gauge_set g_attr_lock s.Attrib.a_lock_ns;
          Metrics.gauge_set g_attr_frontier s.Attrib.a_frontier_ns;
          Metrics.gauge_set g_attr_builtin s.Attrib.a_builtin_ns;
          Metrics.gauge_set g_attr_compute s.Attrib.a_compute_ns
      | None -> ());
      Log.info (fun m ->
          m "plan '%s': %d iteration(s) on %d worker(s), %.3f ms, %d frontier wait(s), %d buffered"
            plan.Plan.label !dispatched w (wall_par_s *. 1e3) frontier_waits buffered_n);
      Ok
        {
          r_outputs = Machine.outputs machine;
          r_wall_par_s = wall_par_s;
          r_iterations = !dispatched;
          r_frontier_waits = frontier_waits;
          r_lock_contended = Locks.contended_total locks + sum wcontended;
          r_queue_full_waits = !full_waits;
          r_queue_empty_waits = sum wempty;
          r_buffered = buffered_n;
          r_steps = steps;
          r_merge_s = !merge_s;
          r_engine = (match cg with Some _ -> "codegen" | None -> "real");
          r_codegen_fallback = cg_fallback;
          r_codegen_cache_hit =
            (match cg with
            | Some c -> c.Commset_codegen.Codegen.cg_cache_hit
            | None -> false);
          r_codegen_compile_s =
            (match cg with
            | Some c -> c.Commset_codegen.Codegen.cg_compile_s
            | None -> 0.);
          r_attrib = attrib_summary;
        }

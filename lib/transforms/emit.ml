(** Emission: turn a {!Plan.t} plus the sequential {!Trace.t} into
    per-thread segment arrays for the discrete-event simulator.

    This is the multi-threaded code generation step of the paper's
    compiler, at trace granularity: DOALL distributes iterations
    round-robin; (PS-)DSWP assigns each pipeline stage its thread(s),
    replicates the loop-control slice into every stage, and connects
    communicating stages with bounded queues (one queue per
    producer/consumer thread pair, tokens in iteration order).

    Synchronization emission per node instance:
    - Mutex / Spin variants: acquire the node's commset locks in global
      rank order around the whole member (plus library-internal locks
      around thread-safe builtins — those exist in every variant);
    - TM variant: locked members execute as transactions over the node's
      abstract read/write sets;
    - Lib variant: no compiler locks (legal only when commset atomicity
      is already provided by thread-safe libraries, nosync assertions, or
      a single sequential stage).

    Emission is split in two. {!lower} builds the plan-independent part
    once per evaluation: every node instance becomes a pre-built segment
    array, consecutive compute and builtin costs one run-length
    [Compute] carrying the node's tag. {!emit} then walks that form per
    plan, resolving commset lock ids and transaction footprints once per
    node rather than once per instance. *)

module Pdg = Commset_pdg.Pdg
module Effects = Commset_analysis.Effects
module Trace = Commset_runtime.Trace
module Builtins = Commset_runtime.Builtins
module Sim = Commset_runtime.Sim
module Costmodel = Commset_runtime.Costmodel

(* ------------------------------------------------------------------ *)
(* Lowering (plan-independent, once per evaluation)                    *)
(* ------------------------------------------------------------------ *)

type inst = {
  exec : Trace.node_exec;  (** the node and, for speculation, its actuals *)
  segs : Sim.seg array;
      (** the instance's compute runs and outputs, pre-built; a
          thread-safe builtin that touches library resources is a
          single-cost [Compute] of its own *)
  lib : int array array;
      (** per segment, the library resources (indices into
          [resources]) its builtin serializes on, or [[||]]; [[||]]
          altogether when the instance makes no such call *)
  cost : float;  (** sum of the instance's atom costs, in trace order *)
  outputs : string list;
}

type lowered = {
  iters : inst array array;
  tags : string array;  (** nid -> node name, the segments' tag *)
  resources : string array;  (** library resource names, by index *)
  n_segs : int;  (** total pre-built segments, to size the thread buffers *)
}

let lower ~(pdg : Pdg.t) (trace : Trace.t) : lowered =
  let tags = Array.map (Pdg.node_name pdg) pdg.Pdg.nodes in
  let res_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let res_names = ref [] in
  let res_id r =
    match Hashtbl.find_opt res_ids r with
    | Some i -> i
    | None ->
        let i = Hashtbl.length res_ids in
        Hashtbl.replace res_ids r i;
        res_names := r :: !res_names;
        i
  in
  (* a compute atom or a builtin with no library lock joins the pending
     cost run *)
  let in_run = function
    | Trace.Acompute _ -> true
    | Trace.Abuiltin { bi; _ } -> not (bi.Builtins.thread_safe && bi.Builtins.resources <> [])
    | Trace.Aout _ -> false
  in
  let rec run_length n = function a :: rest when in_run a -> run_length (n + 1) rest | _ -> n in
  (* The recorder keeps atoms newest first, so consing segments while
     walking that list leaves them in trace order; a cost run is counted
     first and then filled from its end. *)
  let rec walk tag segs lib has_lib outputs = function
    | [] -> (segs, lib, has_lib, outputs)
    | (a :: _) as atoms when in_run a ->
        let costs = Array.make (run_length 0 atoms) 0. in
        let rec fill k = function
          | a :: rest when k >= 0 ->
              costs.(k) <- Trace.atom_cost a;
              fill (k - 1) rest
          | rest -> rest
        in
        let rest = fill (Array.length costs - 1) atoms in
        walk tag (Sim.Compute { costs; tag } :: segs) ([||] :: lib) has_lib outputs rest
    | Trace.Aout s :: rest ->
        walk tag (Sim.Emit s :: segs) ([||] :: lib) has_lib (s :: outputs) rest
    | Trace.Abuiltin { bi; cost } :: rest ->
        walk tag
          (Sim.Compute { costs = [| cost |]; tag } :: segs)
          (Array.of_list (List.map res_id bi.Builtins.resources) :: lib)
          true outputs rest
    | Trace.Acompute _ :: _ -> assert false
  in
  let lower_exec (e : Trace.node_exec) =
    let segs, lib, has_lib, outputs = walk tags.(e.Trace.nid) [] [] false [] e.Trace.atoms in
    let segs = Array.of_list segs in
    (* the instance's cost in trace order; outputs add nothing *)
    let cost = ref 0. in
    Array.iter
      (function
        | Sim.Compute { costs; _ } -> Array.iter (fun c -> cost := !cost +. c) costs | _ -> ())
      segs;
    {
      exec = e;
      segs;
      lib = (if has_lib then Array.of_list lib else [||]);
      cost = !cost;
      outputs;
    }
  in
  let iters =
    Array.map
      (fun it -> Array.of_list (List.map lower_exec (Trace.iteration_execs it)))
      trace.Trace.iterations
  in
  let n_segs =
    Array.fold_left
      (Array.fold_left (fun n (i : inst) -> n + Array.length i.segs))
      0 iters
  in
  { iters; tags; resources = Array.of_list (List.rev !res_names); n_segs }

(* ------------------------------------------------------------------ *)
(* Per-plan resolution                                                 *)
(* ------------------------------------------------------------------ *)

type t = {
  threads : Sim.seg array array;
  locks : Sim.lock_spec array;
  n_queues : int;
}

(* how every instance of one node is emitted under one plan *)
type node_mode =
  | Locked of { acq : Sim.seg array; rel : Sim.seg array }
      (** commset lock acquires in rank order, releases reversed; both
          empty when the node holds no commset lock *)
  | Transaction of { reads : string list; writes : string list; spec : string option }
      (** TM member, or the member identity of a speculative one *)

(* growable per-thread segment buffer *)
type buf = { mutable segs : Sim.seg array; mutable len : int }

(* sized for an even share of the instance segments; locks, queues and
   uneven pipeline stages grow it *)
let new_buf (low : lowered) threads =
  { segs = Array.make ((low.n_segs / max 1 threads) + 64) (Sim.Emit ""); len = 0 }

let reserve b n =
  if b.len + n > Array.length b.segs then begin
    let segs = Array.make (max 64 (max (b.len + n) (2 * b.len))) (Sim.Emit "") in
    Array.blit b.segs 0 segs 0 b.len;
    b.segs <- segs
  end

let push b s =
  reserve b 1;
  b.segs.(b.len) <- s;
  b.len <- b.len + 1

(* a loop, not [Array.blit]: most arrays pushed hold one or two segments *)
let push_all b a =
  let n = Array.length a in
  reserve b n;
  let segs = b.segs and len = b.len in
  for k = 0 to n - 1 do
    segs.(len + k) <- a.(k)
  done;
  b.len <- len + n

type ctx = {
  plan : Plan.t;
  pdg : Pdg.t;
  low : lowered;
  tx_factor : float;
  mutable specs : Sim.lock_spec list;  (** reverse registration order *)
  lock_ids : (string, int) Hashtbl.t;
  modes : node_mode option array;  (** nid -> resolution, on first instance *)
  lib_acq : Sim.seg option array;  (** resource -> library lock acquire *)
  lib_rel : Sim.seg array;
}

(* lock ids are handed out in first-encounter order along the emission
   walk, so the registry matches what the real engine indexes *)
let lock_id c name flavor =
  match Hashtbl.find_opt c.lock_ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length c.lock_ids in
      Hashtbl.replace c.lock_ids name id;
      c.specs <- { Sim.lflavor = flavor; lname = name } :: c.specs;
      id

let loc_strings set =
  List.map (fun l -> Fmt.str "%a" Effects.pp_location l) (Effects.LocSet.elements set)

let resolve_node c nid : node_mode =
  let plan = c.plan in
  let locks =
    match plan.Plan.variant with
    | Plan.Lib -> []
    | _ -> Option.value ~default:[] (Hashtbl.find_opt plan.Plan.node_locks nid)
  in
  let speculated =
    match (plan.Plan.variant, plan.Plan.spec_ctx) with
    | Plan.Spec, Some ctx -> Hashtbl.find_opt ctx.Plan.sc_members nid
    | _ -> None
  in
  let transaction spec =
    let rw = c.pdg.Pdg.nodes.(nid).Pdg.rw in
    Transaction
      { reads = loc_strings rw.Effects.reads; writes = loc_strings rw.Effects.writes; spec }
  in
  let mode =
    match speculated with
    | Some member -> transaction (Some member)
    | None when plan.Plan.variant = Plan.Tm && locks <> [] -> transaction None
    | None ->
        let flavor =
          match plan.Plan.variant with
          | Plan.Mutex -> Costmodel.Mutex
          | Plan.Spin | Plan.Spec | Plan.Tm | Plan.Lib -> Costmodel.Spin
        in
        let ids = Array.of_list (List.map (fun set -> lock_id c ("cs:" ^ set) flavor) locks) in
        let n = Array.length ids in
        Locked
          {
            acq = Array.map (fun id -> Sim.Acquire id) ids;
            rel = Array.init n (fun k -> Sim.Release ids.(n - 1 - k));
          }
  in
  c.modes.(nid) <- Some mode;
  mode

let lib_acquire c r =
  match c.lib_acq.(r) with
  | Some seg -> seg
  | None ->
      let id = lock_id c ("lib:" ^ c.low.resources.(r)) Costmodel.Libsafe in
      let seg = Sim.Acquire id in
      c.lib_acq.(r) <- Some seg;
      c.lib_rel.(r) <- Sim.Release id;
      seg

let emit_inst c b (i : inst) =
  let nid = i.exec.Trace.nid in
  let mode = match c.modes.(nid) with Some m -> m | None -> resolve_node c nid in
  match mode with
  | Transaction { reads; writes; spec } ->
      (* one transaction covering the whole member; read/write-set
         instrumentation inflates the code inside it. A speculative
         member also carries its predicate actuals for the runtime
         commutativity check. *)
      let spec =
        Option.map
          (fun member ->
            let ctx = Option.get c.plan.Plan.spec_ctx in
            {
              Sim.sp_member = member;
              sp_keys = List.map (ctx.Plan.sc_resolve nid) (Trace.exec_actuals i.exec);
            })
          spec
      in
      push b
        (Sim.Tx
           {
             cost = c.tx_factor *. i.cost;
             reads;
             writes;
             outputs = i.outputs;
             tag = c.low.tags.(nid);
             spec;
           })
  | Locked { acq; rel } ->
      push_all b acq;
      (* a node holding its commset locks needs no library-internal
         serialization inside them *)
      if Array.length i.lib = 0 || Array.length acq > 0 then push_all b i.segs
      else
        for k = 0 to Array.length i.segs - 1 do
          let res = i.lib.(k) in
          for j = 0 to Array.length res - 1 do
            push b (lib_acquire c res.(j))
          done;
          push b i.segs.(k);
          for j = Array.length res - 1 downto 0 do
            push b c.lib_rel.(res.(j))
          done
        done;
      push_all b rel

(* ------------------------------------------------------------------ *)
(* DOALL                                                               *)
(* ------------------------------------------------------------------ *)

let emit_doall c : buf array =
  let threads = c.plan.Plan.threads in
  let n = Array.length c.low.iters in
  Array.init threads (fun t ->
      let b = new_buf c.low threads in
      let i = ref t in
      while !i < n do
        let insts = c.low.iters.(!i) in
        for k = 0 to Array.length insts - 1 do
          emit_inst c b insts.(k)
        done;
        i := !i + threads
      done;
      b)

(* ------------------------------------------------------------------ *)
(* DSWP / PS-DSWP                                                      *)
(* ------------------------------------------------------------------ *)

type pipeline_layout = {
  stage_of_node : int array;  (** nid -> stage index; -1 none, -2 loop control (every stage) *)
  stage_threads : int array array;  (** stage index -> thread ids *)
  n_threads : int;
  comm_pairs : (int * int) list;  (** communicating stage index pairs, s1 < s2 *)
}

let layout_of_stages (pdg : Pdg.t) (stages : Plan.stage list) : pipeline_layout =
  let stage_of_node = Array.make (Array.length pdg.Pdg.nodes) (-1) in
  List.iteri
    (fun si (s : Plan.stage) -> List.iter (fun nid -> stage_of_node.(nid) <- si) s.Plan.snodes)
    stages;
  let next_thread = ref 0 in
  let stage_threads =
    Array.of_list
      (List.map
         (fun (s : Plan.stage) ->
           Array.init s.Plan.sthreads (fun _ ->
               let t = !next_thread in
               incr next_thread;
               t))
         stages)
  in
  let comm = Hashtbl.create 16 in
  List.iter
    (fun (e : Pdg.edge) ->
      let s1 = stage_of_node.(e.Pdg.esrc) and s2 = stage_of_node.(e.Pdg.edst) in
      if s1 >= 0 && s2 >= 0 && s1 < s2 then Hashtbl.replace comm (s1, s2) ())
    (Pdg.effective_edges pdg);
  (* adjacent stages always exchange an iteration token so that a stage
     with no direct dependence still respects pipeline order of outputs *)
  List.iteri
    (fun si _ -> if si > 0 then Hashtbl.replace comm (si - 1, si) ())
    stages;
  Array.iter
    (fun (n : Pdg.node) -> if n.Pdg.loop_control then stage_of_node.(n.Pdg.nid) <- -2)
    pdg.Pdg.nodes;
  {
    stage_of_node;
    stage_threads;
    n_threads = !next_thread;
    comm_pairs = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) comm []);
  }

(* the thread of [stage] that handles iteration [i] *)
let thread_for (layout : pipeline_layout) stage i =
  let ths = layout.stage_threads.(stage) in
  ths.(i mod Array.length ths)

let emit_pipeline c (stages : Plan.stage list) : buf array * int =
  let layout = layout_of_stages c.pdg stages in
  let n_stages = List.length stages in
  let upstream =
    Array.init n_stages (fun si ->
        List.filter_map (fun (s1, s2) -> if s2 = si then Some s1 else None) layout.comm_pairs)
  in
  let downstream =
    Array.init n_stages (fun si ->
        List.filter_map (fun (s1, s2) -> if s1 = si then Some s2 else None) layout.comm_pairs)
  in
  (* queue ids in first-use order: (producer, consumer) thread pair *)
  let nt = layout.n_threads in
  let queue_ids = Array.make (nt * nt) (-1) in
  let n_queues = ref 0 in
  let queue_id p q =
    let k = (p * nt) + q in
    if queue_ids.(k) < 0 then begin
      queue_ids.(k) <- !n_queues;
      incr n_queues
    end;
    queue_ids.(k)
  in
  let bufs = Array.init nt (fun _ -> new_buf c.low nt) in
  (* walk iterations in order, interleaving stage work per thread; each
     thread's buffer stays in that thread's program order *)
  Array.iteri
    (fun i insts ->
      for si = 0 to n_stages - 1 do
        let t = thread_for layout si i in
        let b = bufs.(t) in
        List.iter
          (fun s1 -> push b (Sim.Pop (queue_id (thread_for layout s1 i) t)))
          upstream.(si);
        (* node executions of this stage (plus replicated loop control) *)
        Array.iter
          (fun (inst : inst) ->
            let s = layout.stage_of_node.(inst.exec.Trace.nid) in
            if s = si || s = -2 then emit_inst c b inst)
          insts;
        List.iter
          (fun s2 -> push b (Sim.Push (queue_id t (thread_for layout s2 i))))
          downstream.(si)
      done)
    c.low.iters;
  (bufs, !n_queues)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let emit ~(plan : Plan.t) ~(pdg : Pdg.t) (low : lowered) : t =
  let n_res = Array.length low.resources in
  let c =
    {
      plan;
      pdg;
      low;
      tx_factor = Atomic.get Costmodel.tx_instrumentation_factor;
      specs = [];
      lock_ids = Hashtbl.create 16;
      modes = Array.make (Array.length pdg.Pdg.nodes) None;
      lib_acq = Array.make n_res None;
      lib_rel = Array.make n_res (Sim.Release (-1));
    }
  in
  let bufs, n_queues =
    match plan.Plan.shape with
    | Plan.Sdoall -> (emit_doall c, 0)
    | Plan.Sdswp stages -> emit_pipeline c stages
  in
  {
    threads = Array.map (fun b -> Array.sub b.segs 0 b.len) bufs;
    locks = Array.of_list (List.rev c.specs);
    n_queues;
  }

(** Run an emitted plan on the simulator. The makespan covers the loop
    only; add the trace's [other_cost] for the whole program. *)
let simulate ?(record_timeline = false) ~(plan : Plan.t) (emitted : t) : Sim.result =
  let spec_commutes = Option.map (fun c -> c.Plan.sc_commutes) plan.Plan.spec_ctx in
  Sim.run
    (Sim.create ?spec_commutes ~record_timeline ~locks:emitted.locks
       ~n_queues:emitted.n_queues emitted.threads)

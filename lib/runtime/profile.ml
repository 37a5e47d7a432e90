(** The compile's one observed run. It attributes inclusive simulated
    cycles to each basic block (callee time counted at the call site's
    block) and ranks the program's loops by execution share, mirroring
    the paper's workflow of focusing parallelization on hot loops
    identified via profiling. The same run logs every event the trace
    recorder consumes, so that {!Trace.of_log} builds the hot loop's
    trace once the loop is chosen, without running the program again. *)

module Ir = Commset_ir.Ir
module A = Commset_analysis

(** The open segment's start: a float-only record stores it unboxed, so
    moving it is a store, not an allocation. *)
type seg = { mutable seg_start : float }

type frame = {
  func : Ir.func;  (** compared physically with the block entry's function *)
  costs : float array;  (** the function's block costs, indexed by label *)
  mutable cur_label : Ir.label;
  seg : seg;
      (** executor total-cost reading when this frame last changed
          block: the open segment [seg_start, now) belongs to
          [cur_label] *)
}

type loop_report = {
  lr_func : string;
  lr_header : Ir.label;
  lr_cost : float;
  lr_fraction : float;  (** share of total program cycles *)
  lr_depth : int;
}

type t = { reports : loop_report list; total : float }

(* ------------------------------------------------------------------ *)
(* The event log                                                       *)
(* ------------------------------------------------------------------ *)

(* One number per event: its kind in the low three bits of an int, its
   operand above them, stored as a float (exact below 2^53). A builtin's
   cost is the number after it. Lines, region actuals and call
   arguments go to a payload stream, read back in the same order. *)
let ev_block = 0 (* operand: the label; the function is the innermost entered *)
let ev_enter = 1 (* operand: the function's index in [funcs] *)
let ev_exit = 2
let ev_builtin = 3 (* operand: the builtin's id *)
let ev_payload = 4 (* the next payload *)

type payload =
  | Pout of string  (** an output line *)
  | Pregion of Ir.region * (string * Value.t list) list  (** a region entry's actuals *)
  | Pargs of Value.t list  (** a user call's arguments; the next event enters the callee *)

(* A stream is a list of fixed chunks: nothing is copied as it grows. *)
let chunk = 8192

type 'a stream = {
  mutable cur : 'a array;  (** the chunk being filled *)
  mutable n : int;  (** its filled length *)
  mutable full : 'a array list;  (** the filled chunks, newest first *)
  fresh : unit -> 'a array;  (** a chunk to fill next *)
}

(* Event chunks a replay is done with wait here for the next run, up to
   [max_spare] of them (4 MB): a compile's log then costs no fresh
   memory and leaves no garbage. A float array holds no pointer, so the
   kept chunks cost the collector nothing to mark. *)
let max_spare = 64
let spare_lock = Mutex.create ()
let spare : float array list ref = ref []

let spare_chunk () =
  match
    Mutex.protect spare_lock (fun () ->
        match !spare with
        | c :: rest ->
            spare := rest;
            Some c
        | [] -> None)
  with
  | Some c -> c
  | None -> Array.make chunk 0.

let give_back chunks =
  Mutex.protect spare_lock (fun () ->
      let rec keep room = function
        | c :: rest when room > 0 && Array.length c = chunk ->
            spare := c :: !spare;
            keep (room - 1) rest
        | _ :: rest -> keep room rest
        | [] -> ()
      in
      keep (max_spare - List.length !spare) chunks)

type log = {
  events : float stream;
  payloads : payload stream;
  mutable funcs : Ir.func list;  (** indexed by first entry, newest first *)
  mutable total : float;
  mutable replayed : bool;
}

let stream fresh = { cur = [||]; n = 0; full = []; fresh }

let next_chunk s =
  if s.n > 0 then s.full <- s.cur :: s.full;
  s.cur <- s.fresh ();
  s.n <- 0

(* On a [float array] a store boxes nothing and needs no write
   barrier; inlined, the float is never boxed either. *)
let[@inline] push_event (s : float stream) x =
  if s.n = Array.length s.cur then next_chunk s;
  Array.unsafe_set s.cur s.n x;
  s.n <- s.n + 1

let[@inline] push_code s code = push_event s (float_of_int code)

let push_payload log p =
  let s = log.payloads in
  if s.n = Array.length s.cur then next_chunk s;
  Array.unsafe_set s.cur s.n p;
  s.n <- s.n + 1;
  push_code log.events ev_payload

let log_total log = log.total

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* One cost slot per label the function's blocks or label counter
   name. An edge to a label with no block is followed by the executor's
   [Not_found] before that label's segment is ever flushed. *)
let label_slots (f : Ir.func) =
  Hashtbl.fold (fun l _ m -> max m (l + 1)) f.Ir.blocks (max 0 f.Ir.n_labels)

(* A function's index in the log and its block costs, made on its first
   entry. *)
type fentry = { idx : int; fcosts : float array }

(* Inclusive attribution without a per-cost-event stack walk: the run's
   observer hears only block entries, calls and returns while the
   executor's running total advances per instruction, and each frame
   flushes the elapsed segment to its current block whenever that block
   changes (or the frame pops). A parent's open segment spans its
   callees' execution, so callee time lands at the call site's block.
   This costs O(blocks executed) array updates; the function's entry is
   found once per call. Each callback also appends its event to the
   log, and the machine's output sink appends every line. *)
let record ?tap ~machine (prepared : Precompile.t) =
  let entries : (string, fentry) Hashtbl.t = Hashtbl.create 16 in
  let log =
    {
      events = stream spare_chunk;
      payloads = stream (fun () -> Array.make chunk (Pargs []));
      funcs = [];
      total = 0.;
      replayed = false;
    }
  in
  let entry_of (f : Ir.func) =
    match Hashtbl.find entries f.Ir.fname with
    | e -> e
    | exception Not_found ->
        let e = { idx = Hashtbl.length entries; fcosts = Array.make (label_slots f) 0. } in
        Hashtbl.add entries f.Ir.fname e;
        log.funcs <- f :: log.funcs;
        e
  in
  let ex = Precompile.executor ~machine prepared in
  machine.Machine.emit <-
    (fun s ->
      Machine.default_emit machine s;
      push_payload log (Pout s));
  let stack : frame list ref = ref [] in
  let flush fr =
    let n = Precompile.total_cost ex in
    let seg = n -. fr.seg.seg_start in
    if seg <> 0. then fr.costs.(fr.cur_label) <- seg +. fr.costs.(fr.cur_label);
    fr.seg.seg_start <- n
  in
  let events = log.events in
  let observer =
    {
      Precompile.on_block =
        (fun f l ->
          push_code events ((l lsl 3) lor ev_block);
          match !stack with
          | fr :: _ when fr.func == f ->
              flush fr;
              fr.cur_label <- l
          | _ -> ());
      on_enter =
        (fun f ->
          let e = entry_of f in
          push_code events ((e.idx lsl 3) lor ev_enter);
          stack :=
            {
              func = f;
              costs = e.fcosts;
              cur_label = f.Ir.entry;
              seg = { seg_start = Precompile.total_cost ex };
            }
            :: !stack);
      on_exit =
        (fun _ ->
          push_code events ev_exit;
          match !stack with
          | [] -> ()
          | fr :: rest ->
              flush fr;
              stack := rest);
      on_region = Some (fun _ region actuals _ -> push_payload log (Pregion (region, actuals)));
      on_call = Some (fun _ argv _ -> push_payload log (Pargs argv));
      on_builtin =
        Some
          (fun bi cost ->
            push_code events ((bi.Builtins.id lsl 3) lor ev_builtin);
            push_event events cost);
    }
  in
  let observer = match tap with Some tap -> tap ex observer | None -> observer in
  let total = Precompile.run_observed ex observer in
  List.iter flush !stack;
  log.total <- total;
  (entries, log)

(* Rank every loop of the program by the inclusive cost of its blocks. *)
let analyze (prepared : Precompile.t) entries total : t =
  let prog = Precompile.program prepared in
  let reports = ref [] in
  List.iter
    (fun fname ->
      let func = Hashtbl.find prog.Ir.funcs fname in
      let cfg = A.Cfg.of_func func in
      let dom = A.Dominance.compute cfg in
      let loops = A.Loops.compute cfg dom in
      let block_cost =
        match Hashtbl.find_opt entries fname with
        | Some e -> fun label -> e.fcosts.(label)
        | None -> fun _ -> 0.
      in
      List.iter
        (fun (l : A.Loops.loop) ->
          let cost = Commset_support.Listx.sum_float block_cost l.A.Loops.body in
          reports :=
            {
              lr_func = fname;
              lr_header = l.A.Loops.header;
              lr_cost = cost;
              lr_fraction = (if total > 0. then cost /. total else 0.);
              lr_depth = l.A.Loops.depth;
            }
            :: !reports)
        loops.A.Loops.loops)
    prog.Ir.func_order;
  let reports =
    List.sort (fun a b -> compare b.lr_cost a.lr_cost) !reports
  in
  { reports; total }

(** Run the program once, profile it and log its events. *)
let run ?tap ?(machine = Machine.create ()) (prepared : Precompile.t) : t * log =
  let entries, log = record ?tap ~machine prepared in
  (analyze prepared entries log.total, log)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* A stream read back in order; [left] counts what is still unread
   (every chunk but the last is full). *)
type 'a reader = {
  mutable rest : 'a array list;
  mutable rcur : 'a array;
  mutable ri : int;
  mutable left : int;
}

let reader s =
  let left = (List.length s.full * chunk) + s.n in
  { rest = List.rev (s.cur :: s.full); rcur = [||]; ri = 0; left }

let advance r =
  match r.rest with
  | c :: rest ->
      r.rcur <- c;
      r.rest <- rest;
      r.ri <- 0
  | [] -> invalid_arg "Profile.replay: log exhausted"

let next r =
  while r.ri = Array.length r.rcur do
    advance r
  done;
  r.left <- r.left - 1;
  let x = Array.unsafe_get r.rcur r.ri in
  r.ri <- r.ri + 1;
  x

(* [next] on the event stream: inlined and typed, its float is read
   unboxed. *)
let[@inline] next_event (r : float reader) =
  while r.ri = Array.length r.rcur do
    advance r
  done;
  r.left <- r.left - 1;
  let x = Array.unsafe_get r.rcur r.ri in
  r.ri <- r.ri + 1;
  x

let builtins = Array.of_list Builtins.all

(** Feed the logged events to [o] in run order, the lines to
    [on_output]; see the interface. *)
let replay log (o : Precompile.observer) ~on_output =
  if log.replayed then invalid_arg "Profile.replay: the log was replayed already";
  log.replayed <- true;
  let funcs = Array.of_list (List.rev log.funcs) in
  let events = reader log.events and payloads = reader log.payloads in
  let on_region = match o.on_region with Some f -> f | None -> fun _ _ _ _ -> () in
  let on_call = match o.on_call with Some f -> f | None -> fun _ _ _ -> () in
  let on_builtin = match o.on_builtin with Some f -> f | None -> fun _ _ -> () in
  (* the entered functions, innermost first, and the arguments of the
     call whose callee is entered next *)
  let stack = ref [] and args = ref None in
  while events.left > 0 do
    let code = int_of_float (next_event events) in
    let operand = code asr 3 in
    (* the kinds, in the order [ev_block] .. [ev_payload] *)
    match code land 7 with
    | 0 -> o.on_block (List.hd !stack) operand
    | 1 ->
        let f = funcs.(operand) in
        (match !args with
        | Some argv ->
            args := None;
            on_call f argv []
        | None -> ());
        stack := f :: !stack;
        o.on_enter f
    | 2 -> (
        match !stack with
        | f :: rest ->
            stack := rest;
            o.on_exit f
        | [] -> ())
    | 3 -> on_builtin builtins.(operand) (next_event events)
    | _ -> (
        match next payloads with
        | Pout s -> on_output s
        | Pregion (region, actuals) -> on_region (List.hd !stack) region actuals [||]
        | Pargs argv -> args := Some argv)
  done;
  give_back (log.events.cur :: log.events.full)

(** The hottest outermost loop — the parallelization target. *)
let hottest t =
  List.find_opt (fun r -> r.lr_depth = 1) t.reports

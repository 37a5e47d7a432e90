(** Discrete-event simulator of the multicore target.

    Each virtual thread executes a segment array produced from a
    parallelization plan plus the sequential trace. Locks model the three
    paper synchronization modes (mutex with sleep/wakeup handoff, spin
    lock with cache-line bouncing that grows with the number of spinners,
    thread-safe-library internal locks), queues model the bounded
    lock-free inter-stage channels of (PS-)DSWP, and transactional
    segments model the optimistic TM runtime with abort-and-retry.

    Threads are processed in virtual-time order (always the minimum-time
    runnable thread), which preserves causality for all resource
    interactions. A scheduled thread runs ahead over its consecutive
    thread-local segments ([Compute] runs and [Emit]) before control
    returns to the scheduler: they touch no shared state, so every lock,
    queue and transaction step still happens at the same virtual time
    and in the same thread order (DESIGN §7).

    A transaction window is validated against the earlier commits it can
    overlap: the commit log is kept in {!Commit_index}, a map ordered by
    commit time, and entries older than every unfinished thread are
    pruned as virtual time advances. Footprints are precomputed string
    sets, not the [List.mem] product the naive formulation implies. *)

open Commset_support
module Metrics = Commset_obs.Metrics

let src_log = Logs.Src.create "commset.sim" ~doc:"Discrete-event multicore simulator"

module Log = (val Logs.src_log src_log : Logs.LOG)

let m_runs = Metrics.counter ~doc:"simulations executed" "sim.runs"

let m_lock_contended =
  Metrics.counter ~doc:"contended lock acquires across runs" "sim.lock_contended"

let m_tx_aborts = Metrics.counter ~doc:"transaction aborts across runs" "sim.tx_aborts"
let m_commits = Metrics.counter ~doc:"transaction commits across runs" "sim.commits"

let m_lock_wait =
  Metrics.counter ~doc:"virtual cycles spent blocked on locks (rounded per run)"
    "sim.lock_wait_cycles"

let m_queue_wait =
  Metrics.counter ~doc:"virtual cycles spent blocked on queues (rounded per run)"
    "sim.queue_wait_cycles"

type lock_spec = { lflavor : Costmodel.lock_flavor; lname : string }

(** Runtime commutativity information attached to a speculative
    transaction: the member's identity and the predicate actuals of each
    dynamic instance the transaction covers. *)
type spec_info = {
  sp_member : string;
  sp_keys : (string * Value.t list) list list;  (** per instance: set -> actuals *)
}

type seg =
  | Compute of { costs : float array; tag : string }
  | Acquire of int
  | Release of int
  | Push of int
  | Pop of int
  | Emit of string
  | Tx of {
      cost : float;
      reads : string list;
      writes : string list;
      outputs : string list;
      tag : string;
      spec : spec_info option;
    }

module Sset = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Commit index                                                        *)
(* ------------------------------------------------------------------ *)

module Commit_index = struct
  (* Commits keyed by commit time. Commit times are not monotone in log
     order (the min-time scheduler interleaves threads whose windows
     overlap), so a sorted map rather than an append-only list; a window
     query walks only the bindings inside (start, stop). *)
  module Fmap = Map.Make (Float)

  type entry = {
    e_thread : int;
    e_rset : Sset.t;
    e_wset : Sset.t;
    e_spec : spec_info option;
  }

  type t = entry list Fmap.t

  let empty : t = Fmap.empty
  let is_empty = Fmap.is_empty

  let add_sets idx ~time ~thread ~rset ~wset ~spec : t =
    let e = { e_thread = thread; e_rset = rset; e_wset = wset; e_spec = spec } in
    Fmap.update time
      (function None -> Some [ e ] | Some es -> Some (e :: es))
      idx

  let add idx ~time ~thread ~reads ~writes ~spec : t =
    add_sets idx ~time ~thread ~rset:(Sset.of_list reads) ~wset:(Sset.of_list writes) ~spec

  (* drop every commit at or before [min_time]: no future transaction
     window (start, stop) can have start < min_time once every unfinished
     thread's clock has reached min_time *)
  let prune idx ~min_time : t =
    let _, _, above = Fmap.split min_time idx in
    above

  let size idx = Fmap.fold (fun _ es acc -> acc + List.length es) idx 0

  (* an overlapping footprint is forgiven when the runtime commutativity
     check proves the two transactions' member instances commute *)
  let entry_conflicts ~commutes ~thread ~rwset ~wset ~spec e =
    e.e_thread <> thread
    && ((not (Sset.disjoint e.e_wset rwset)) || not (Sset.disjoint e.e_rset wset))
    &&
    match (spec, e.e_spec, commutes) with
    | Some s1, Some s2, Some commutes -> not (commutes s1 s2)
    | _ -> true

  let conflicts idx ~commutes ~thread ~start ~stop ~reads ~writes ~spec : bool =
    let rwset = Sset.union reads writes in
    let rec scan seq =
      match seq () with
      | Seq.Nil -> false
      | Seq.Cons ((time, entries), rest) ->
          if time >= stop then false
          else if time <= start then scan rest
          else
            List.exists (entry_conflicts ~commutes ~thread ~rwset ~wset:writes ~spec) entries
            || scan rest
    in
    scan (Fmap.to_seq_from start idx)
end

type lock_state = {
  spec : lock_spec;
  mutable owner : int option;
  waiters : int Queue.t;
  mutable contended_acquires : int;
}

type queue_state = {
  capacity : int;
  mutable count : int;
  mutable waiting_producer : int option;
  mutable waiting_consumer : int option;
}

(* float-only, so a clock update stores the float unboxed: no
   allocation and no write barrier per cost (DESIGN §7) *)
type clock = {
  mutable time : float;
  mutable busy : float;  (** cycles spent computing (not waiting) *)
}

type thread = {
  tid : int;
  segs : seg array;
  mutable pc : int;
  clock : clock;
  mutable blocked : bool;
  mutable intervals : (float * float * string) list;  (** for timelines; reverse *)
}

type result = {
  makespan : float;
  outputs : (float * string) list;  (** commit-time ordered *)
  thread_busy : float array;
  timelines : (float * float * string) list array;
  lock_contended : int;
  tx_aborts : int;
  lock_wait : float;  (** total virtual cycles threads spent blocked on locks *)
  queue_wait : float;  (** total virtual cycles threads spent blocked on queues *)
}

type t = {
  threads : thread array;
  locks : lock_state array;
  queues : queue_state array;
  mutable emitted : (float * string) list;
  mutable commits : Commit_index.t;
  mutable pruned_to : float;  (** commits at or before this time are gone *)
  mutable tx_aborts : int;
  mutable n_commits : int;
  mutable lock_wait : float;
  mutable queue_wait : float;
  spec_commutes : (spec_info -> spec_info -> bool) option;
      (** runtime commutativity check for speculative transactions: when
          both transactions carry [spec_info] and this returns [true],
          an overlapping read/write footprint is not a conflict *)
  record_timeline : bool;
}

let create ?(record_timeline = false) ?spec_commutes ~locks ~n_queues
    (programs : seg array array) : t =
  {
    threads =
      Array.mapi
        (fun tid segs ->
          {
            tid;
            segs;
            pc = 0;
            clock = { time = 0.; busy = 0. };
            blocked = false;
            intervals = [];
          })
        programs;
    locks =
      Array.map
        (fun spec -> { spec; owner = None; waiters = Queue.create (); contended_acquires = 0 })
        locks;
    queues =
      Array.init n_queues (fun _ ->
          {
            capacity = Atomic.get Costmodel.queue_capacity;
            count = 0;
            waiting_producer = None;
            waiting_consumer = None;
          });
    emitted = [];
    commits = Commit_index.empty;
    pruned_to = neg_infinity;
    tx_aborts = 0;
    n_commits = 0;
    lock_wait = 0.;
    queue_wait = 0.;
    spec_commutes;
    record_timeline;
  }

let finished th = th.pc >= Array.length th.segs

let note_interval t th start stop tag =
  if t.record_timeline && stop > start then th.intervals <- (start, stop, tag) :: th.intervals

(* a run of costs advances the clock one cost at a time, exactly as
   the same costs in consecutive single-cost segments would *)
let compute t th costs tag =
  let clock = th.clock in
  for k = 0 to Array.length costs - 1 do
    let cost = costs.(k) in
    if t.record_timeline then note_interval t th clock.time (clock.time +. cost) tag;
    clock.time <- clock.time +. cost;
    clock.busy <- clock.busy +. cost
  done

(* Execute the thread's consecutive thread-local segments. They read and
   write only the thread's own clock, busy total and timeline (plus the
   output log, which [run] sorts), and a runnable thread's clock is read
   by no other thread's step, so running them ahead leaves every shared
   step at the same time and in the same order. *)
let rec run_ahead t th =
  if th.pc < Array.length th.segs then
    match th.segs.(th.pc) with
    | Compute { costs; tag } ->
        compute t th costs tag;
        th.pc <- th.pc + 1;
        run_ahead t th
    | Emit s ->
        t.emitted <- (th.clock.time, s) :: t.emitted;
        th.pc <- th.pc + 1;
        run_ahead t th
    | Acquire _ | Release _ | Push _ | Pop _ | Tx _ -> ()

let shared_step t th =
  match th.segs.(th.pc) with
  | Compute _ | Emit _ -> ()
  | Acquire l ->
      let lock = t.locks.(l) in
      if lock.owner = None && Queue.is_empty lock.waiters then begin
        lock.owner <- Some th.tid;
        th.clock.time <- th.clock.time +. Costmodel.acquire_base lock.spec.lflavor;
        th.pc <- th.pc + 1
      end
      else begin
        lock.contended_acquires <- lock.contended_acquires + 1;
        Queue.add th.tid lock.waiters;
        th.blocked <- true
      end
  | Release l ->
      let lock = t.locks.(l) in
      if lock.owner <> Some th.tid then
        Diag.error "simulator: thread %d releases lock %s it does not own" th.tid
          lock.spec.lname;
      th.clock.time <- th.clock.time +. Costmodel.release_base lock.spec.lflavor;
      th.pc <- th.pc + 1;
      let n_waiters = Queue.length lock.waiters in
      if n_waiters = 0 then lock.owner <- None
      else begin
        (* direct handoff to the first waiter *)
        let w = Queue.pop lock.waiters in
        let waiter = t.threads.(w) in
        lock.owner <- Some w;
        let grant =
          max waiter.clock.time
            (th.clock.time +. Costmodel.handoff_penalty lock.spec.lflavor ~n_waiters)
        in
        t.lock_wait <- t.lock_wait +. (grant -. waiter.clock.time);
        if t.record_timeline then
          note_interval t waiter waiter.clock.time grant ("wait:" ^ lock.spec.lname);
        waiter.clock.time <- grant;
        waiter.blocked <- false;
        waiter.pc <- waiter.pc + 1 (* past its Acquire *)
      end
  | Push q ->
      let queue = t.queues.(q) in
      if queue.count < queue.capacity then begin
        queue.count <- queue.count + 1;
        th.clock.time <- th.clock.time +. Costmodel.queue_push_cost;
        th.pc <- th.pc + 1;
        match queue.waiting_consumer with
        | Some c ->
            queue.waiting_consumer <- None;
            let consumer = t.threads.(c) in
            consumer.blocked <- false;
            let wake = max consumer.clock.time th.clock.time in
            t.queue_wait <- t.queue_wait +. (wake -. consumer.clock.time);
            if t.record_timeline then
              note_interval t consumer consumer.clock.time wake ("wait:q" ^ string_of_int q);
            consumer.clock.time <- wake
        | None -> ()
      end
      else begin
        queue.waiting_producer <- Some th.tid;
        th.blocked <- true
      end
  | Pop q ->
      let queue = t.queues.(q) in
      if queue.count > 0 then begin
        queue.count <- queue.count - 1;
        th.clock.time <- th.clock.time +. Costmodel.queue_pop_cost;
        th.pc <- th.pc + 1;
        match queue.waiting_producer with
        | Some p ->
            queue.waiting_producer <- None;
            let producer = t.threads.(p) in
            producer.blocked <- false;
            let wake = max producer.clock.time th.clock.time in
            t.queue_wait <- t.queue_wait +. (wake -. producer.clock.time);
            if t.record_timeline then
              note_interval t producer producer.clock.time wake ("wait:q" ^ string_of_int q);
            producer.clock.time <- wake
        | None -> ()
      end
      else begin
        queue.waiting_consumer <- Some th.tid;
        th.blocked <- true
      end
  | Tx { cost; reads; writes; outputs; tag; spec } ->
      (* footprint sets built once per execution (each Tx segment runs
         exactly once), shared by every retry's conflict query *)
      let rset = Sset.of_list reads in
      let wset = Sset.of_list writes in
      (* execute-with-retry until the commit window is conflict-free *)
      let rec attempt tries start =
        let stop = start +. Costmodel.tx_begin_cost +. cost +. Costmodel.tx_commit_cost in
        if
          tries < Costmodel.tx_max_retries
          && Commit_index.conflicts t.commits ~commutes:t.spec_commutes ~thread:th.tid
               ~start ~stop ~reads:rset ~writes:wset ~spec
        then begin
          t.tx_aborts <- t.tx_aborts + 1;
          th.clock.busy <- th.clock.busy +. cost;
          (* each aborted window is its own timeline interval so retried
             transactions show up as distinct [abort:] slices in traces *)
          if t.record_timeline then note_interval t th start stop ("abort:" ^ tag);
          attempt (tries + 1) (stop +. Costmodel.tx_abort_penalty)
        end
        else (start, stop)
      in
      let start, stop = attempt 0 th.clock.time in
      note_interval t th start stop tag;
      th.clock.time <- stop;
      th.clock.busy <- th.clock.busy +. cost;
      t.n_commits <- t.n_commits + 1;
      t.commits <-
        Commit_index.add_sets t.commits ~time:stop ~thread:th.tid ~rset ~wset ~spec;
      List.iter (fun s -> t.emitted <- (stop, s) :: t.emitted) outputs;
      th.pc <- th.pc + 1

(* one scheduler turn: the thread's next shared step, then everything
   thread-local up to the one after it *)
let step t th =
  shared_step t th;
  if not th.blocked then run_ahead t th

let run t : result =
  let n = Array.length t.threads in
  let continue_ = ref true in
  while !continue_ do
    (* pick the minimum-time runnable unfinished thread; track the
       minimum time over every unfinished thread (runnable or blocked)
       as the safe horizon for pruning the commit index *)
    let best = ref None in
    let min_all = ref infinity in
    for i = 0 to n - 1 do
      let th = t.threads.(i) in
      if not (finished th) then begin
        if th.clock.time < !min_all then min_all := th.clock.time;
        if not th.blocked then
          match !best with
          | Some b when t.threads.(b).clock.time <= th.clock.time -> ()
          | _ -> best := Some i
      end
    done;
    if (not (Commit_index.is_empty t.commits)) && !min_all > t.pruned_to then begin
      t.commits <- Commit_index.prune t.commits ~min_time:!min_all;
      t.pruned_to <- !min_all
    end;
    match !best with
    | Some i -> step t t.threads.(i)
    | None ->
        if Array.exists (fun th -> not (finished th)) t.threads then
          Diag.error "simulator: deadlock (all unfinished threads are blocked)"
        else continue_ := false
  done;
  let makespan = Array.fold_left (fun acc th -> max acc th.clock.time) 0. t.threads in
  let lock_contended =
    Array.fold_left (fun acc l -> acc + l.contended_acquires) 0 t.locks
  in
  Metrics.incr m_runs;
  Metrics.add m_lock_contended lock_contended;
  Metrics.add m_tx_aborts t.tx_aborts;
  Metrics.add m_commits t.n_commits;
  (* wait totals are rounded to whole cycles per run so the aggregate is
     an integer sum and therefore identical for any COMMSET_JOBS *)
  Metrics.add m_lock_wait (int_of_float (t.lock_wait +. 0.5));
  Metrics.add m_queue_wait (int_of_float (t.queue_wait +. 0.5));
  Log.debug (fun m ->
      m
        "run: makespan %.0f, %d contended acquire(s), %d abort(s), %d commit(s), lock wait \
         %.0f, queue wait %.0f"
        makespan lock_contended t.tx_aborts t.n_commits t.lock_wait t.queue_wait);
  {
    makespan;
    outputs = List.sort compare (List.rev t.emitted);
    thread_busy = Array.map (fun th -> th.clock.busy) t.threads;
    timelines = Array.map (fun th -> List.rev th.intervals) t.threads;
    lock_contended;
    tx_aborts = t.tx_aborts;
    lock_wait = t.lock_wait;
    queue_wait = t.queue_wait;
  }

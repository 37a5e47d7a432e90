(** Per-iteration execution attribution; see the interface. *)

let machine_lock_name = "machine"
let sample_cap = 4096

type hists = {
  h_dispatch : Metrics.histogram;
  h_lock : Metrics.histogram;
  h_frontier : Metrics.histogram;
  h_builtin : Metrics.histogram;
  h_compute : Metrics.histogram;
  h_wall : Metrics.histogram;
}

type worker = {
  w_on : bool;
  w_h : hists;  (** shared with the owning [t]; atomics, safe cross-domain *)
  (* per-iteration scratch, reset by [iter_begin] *)
  mutable s_active : bool;
  mutable s_t0 : float;
  mutable s_lock : float;
  mutable s_frontier : float;
  mutable s_builtin : float;
  (* run totals *)
  mutable t_dispatch : float;
  mutable t_lock : float;
  mutable t_frontier : float;
  mutable t_builtin : float;
  mutable t_compute : float;
  mutable t_wall : float;
  mutable t_iters : int;
  mutable t_charged : float;
  mutable t_flushes : int;
  lock_wait : float array;
  lock_acq : int array;
  wb_ns : float array;
  wb_calls : int array;
  wb_cost : float array;
  (* cumulative-cause timeline samples, one per iteration up to the cap *)
  cap : int;  (** samples kept: min(loop iterations, [sample_cap]) *)
  mutable n_samples : int;
  samp_t : float array;
  samp : float array;  (** 5 causes × cap, flattened *)
}

type t = {
  a_on : bool;
  jobs : int;
  lock_names : string array;
  builtin_names : string array;  (** slot -> name *)
  workers : worker array;
  coord_dispatch : float Atomic.t;
  hists : hists;  (** per-cause per-iteration distributions *)
}

let make_worker on hs n_locks n_builtins cap =
  {
    w_on = on;
    w_h = hs;
    s_active = false;
    s_t0 = 0.;
    s_lock = 0.;
    s_frontier = 0.;
    s_builtin = 0.;
    t_dispatch = 0.;
    t_lock = 0.;
    t_frontier = 0.;
    t_builtin = 0.;
    t_compute = 0.;
    t_wall = 0.;
    t_iters = 0;
    t_charged = 0.;
    t_flushes = 0;
    lock_wait = Array.make (if on then n_locks + 1 else 0) 0.;
    lock_acq = Array.make (if on then n_locks + 1 else 0) 0;
    wb_ns = Array.make (if on then n_builtins else 0) 0.;
    wb_calls = Array.make (if on then n_builtins else 0) 0;
    wb_cost = Array.make (if on then n_builtins else 0) 0.;
    cap;
    n_samples = 0;
    samp_t = Array.make cap 0.;
    samp = Array.make (5 * cap) 0.;
  }

let create ~enabled ~lock_names ~builtin_names ~jobs ~iterations =
  let n_locks = Array.length lock_names and n_builtins = Array.length builtin_names in
  let hists =
    {
      h_dispatch = Metrics.hist_make ();
      h_lock = Metrics.hist_make ();
      h_frontier = Metrics.hist_make ();
      h_builtin = Metrics.hist_make ();
      h_compute = Metrics.hist_make ();
      h_wall = Metrics.hist_make ();
    }
  in
  {
    a_on = enabled;
    jobs;
    lock_names;
    builtin_names;
    workers =
      Array.init jobs (fun _ ->
          make_worker enabled hists n_locks n_builtins
            (if enabled then min sample_cap (max 0 iterations) else 0));
    coord_dispatch = Atomic.make 0.;
    hists;
  }

let enabled t = t.a_on
let worker t wi = t.workers.(wi)
let on w = w.w_on
let add_dispatch w dt =
  w.t_dispatch <- w.t_dispatch +. dt;
  Metrics.observe w.w_h.h_dispatch dt
let add_frontier w dt = w.s_frontier <- w.s_frontier +. dt

let add_lock w li dt =
  w.lock_wait.(li) <- w.lock_wait.(li) +. dt;
  w.lock_acq.(li) <- w.lock_acq.(li) + 1;
  w.s_lock <- w.s_lock +. dt

let inner_waits w = w.s_lock +. w.s_frontier

let add_builtin w slot ~ns ~cost =
  let ns = Float.max 0. ns in
  w.wb_ns.(slot) <- w.wb_ns.(slot) +. ns;
  w.wb_calls.(slot) <- w.wb_calls.(slot) + 1;
  w.wb_cost.(slot) <- w.wb_cost.(slot) +. cost;
  w.s_builtin <- w.s_builtin +. ns

let charge_flush w = w.t_flushes <- w.t_flushes + 1

let iter_begin w t_ns =
  w.s_active <- true;
  w.s_t0 <- t_ns;
  w.s_lock <- 0.;
  w.s_frontier <- 0.;
  w.s_builtin <- 0.

let iter_end w t_ns =
  if w.s_active then begin
    w.s_active <- false;
    let wall = Float.max 0. (t_ns -. w.s_t0) in
    let compute = Float.max 0. (wall -. w.s_lock -. w.s_frontier -. w.s_builtin) in
    w.t_lock <- w.t_lock +. w.s_lock;
    w.t_frontier <- w.t_frontier +. w.s_frontier;
    w.t_builtin <- w.t_builtin +. w.s_builtin;
    w.t_compute <- w.t_compute +. compute;
    w.t_wall <- w.t_wall +. wall;
    w.t_iters <- w.t_iters + 1;
    Metrics.observe w.w_h.h_lock w.s_lock;
    Metrics.observe w.w_h.h_frontier w.s_frontier;
    Metrics.observe w.w_h.h_builtin w.s_builtin;
    Metrics.observe w.w_h.h_compute compute;
    Metrics.observe w.w_h.h_wall wall;
    if w.n_samples < w.cap then begin
      let i = w.n_samples and cap = w.cap in
      w.samp_t.(i) <- t_ns;
      w.samp.(i) <- w.t_dispatch;
      w.samp.(cap + i) <- w.t_lock;
      w.samp.((2 * cap) + i) <- w.t_frontier;
      w.samp.((3 * cap) + i) <- w.t_builtin;
      w.samp.((4 * cap) + i) <- w.t_compute;
      w.n_samples <- i + 1
    end
  end

let set_charged w c = w.t_charged <- c

(* single writer (the coordinator), so a read-modify-write is safe *)
let add_coord_dispatch t dt = Atomic.set t.coord_dispatch (Atomic.get t.coord_dispatch +. dt)

type cause = {
  c_name : string;
  c_total_ns : float;
  c_count : int;
  c_p50_ns : float;
  c_p95_ns : float;
  c_p99_ns : float;
}

type lock_stat = { l_name : string; l_acquires : int; l_wait_ns : float }
type builtin_stat = { b_name : string; b_calls : int; b_wall_ns : float; b_cost_cycles : float }

type coord = {
  k_wall_ns : float;
  k_dispatch_wait_ns : float;
  k_utilization : float;
  k_merge_ns : float;
}

type sample = {
  s_t_ns : float;
  s_dispatch : float;
  s_lock : float;
  s_frontier : float;
  s_builtin : float;
  s_compute : float;
}

type summary = {
  a_jobs : int;
  a_iterations : int;
  a_iter_wall_ns : float;
  a_charged_cycles : float;
  a_dispatch_ns : float;
  a_lock_ns : float;
  a_frontier_ns : float;
  a_builtin_ns : float;
  a_compute_ns : float;
  a_causes : cause list;
  a_locks : lock_stat list;
  a_builtins : builtin_stat list;
  a_conservation_error : float;
  a_coord : coord;
  a_charge_flushes : int;
  a_samples : (int * sample array) list;
}

let sum f ws = Array.fold_left (fun acc w -> acc +. f w) 0. ws
let sumi f ws = Array.fold_left (fun acc w -> acc + f w) 0 ws

let cause_of name h total =
  {
    c_name = name;
    c_total_ns = total;
    c_count = Metrics.hist_count h;
    c_p50_ns = Metrics.hist_quantile h 0.50;
    c_p95_ns = Metrics.hist_quantile h 0.95;
    c_p99_ns = Metrics.hist_quantile h 0.99;
  }

let summarize t ~coord_wall_ns ~merge_ns =
  if not t.a_on then None
  else begin
    let ws = t.workers in
    let dispatch = sum (fun w -> w.t_dispatch) ws in
    let lock = sum (fun w -> w.t_lock) ws in
    let frontier = sum (fun w -> w.t_frontier) ws in
    let builtin = sum (fun w -> w.t_builtin) ws in
    let compute = sum (fun w -> w.t_compute) ws in
    let wall = sum (fun w -> w.t_wall) ws in
    let merge_cause =
      {
        c_name = "merge";
        c_total_ns = merge_ns;
        c_count = 1;
        c_p50_ns = merge_ns;
        c_p95_ns = merge_ns;
        c_p99_ns = merge_ns;
      }
    in
    let causes =
      [
        cause_of "dispatch_wait" t.hists.h_dispatch dispatch;
        cause_of "lock_wait" t.hists.h_lock lock;
        cause_of "frontier_wait" t.hists.h_frontier frontier;
        cause_of "builtin" t.hists.h_builtin builtin;
        cause_of "compute" t.hists.h_compute compute;
        merge_cause;
      ]
    in
    let n_locks = Array.length t.lock_names in
    let locks =
      List.init (n_locks + 1) (fun li ->
          {
            l_name = (if li < n_locks then t.lock_names.(li) else machine_lock_name);
            l_acquires = sumi (fun w -> w.lock_acq.(li)) ws;
            l_wait_ns = sum (fun w -> w.lock_wait.(li)) ws;
          })
    in
    let builtins =
      List.filteri (fun _ b -> b.b_calls > 0)
        (List.init (Array.length t.builtin_names) (fun bi ->
             {
               b_name = t.builtin_names.(bi);
               b_calls = sumi (fun w -> w.wb_calls.(bi)) ws;
               b_wall_ns = sum (fun w -> w.wb_ns.(bi)) ws;
               b_cost_cycles = sum (fun w -> w.wb_cost.(bi)) ws;
             }))
    in
    let coord_dispatch = Atomic.get t.coord_dispatch in
    let coord =
      {
        k_wall_ns = coord_wall_ns;
        k_dispatch_wait_ns = coord_dispatch;
        k_utilization =
          (if coord_wall_ns > 0. then
             Float.max 0. (coord_wall_ns -. coord_dispatch) /. coord_wall_ns
           else 0.);
        k_merge_ns = merge_ns;
      }
    in
    let samples =
      List.init t.jobs (fun wi ->
          let w = ws.(wi) in
          let n = w.n_samples and cap = w.cap in
          ( wi,
            Array.init n (fun i ->
                {
                  s_t_ns = w.samp_t.(i);
                  s_dispatch = w.samp.(i);
                  s_lock = w.samp.(cap + i);
                  s_frontier = w.samp.((2 * cap) + i);
                  s_builtin = w.samp.((3 * cap) + i);
                  s_compute = w.samp.((4 * cap) + i);
                }) ))
    in
    Some
      {
        a_jobs = t.jobs;
        a_iterations = sumi (fun w -> w.t_iters) ws;
        a_iter_wall_ns = wall;
        a_charged_cycles = sum (fun w -> w.t_charged) ws;
        a_dispatch_ns = dispatch;
        a_lock_ns = lock;
        a_frontier_ns = frontier;
        a_builtin_ns = builtin;
        a_compute_ns = compute;
        a_causes = causes;
        a_locks = locks;
        a_builtins = builtins;
        a_conservation_error =
          (if wall > 0. then Float.abs ((lock +. frontier +. builtin +. compute) -. wall) /. wall
           else 0.);
        a_coord = coord;
        a_charge_flushes = sumi (fun w -> w.t_flushes) ws;
        a_samples = samples;
      }
  end

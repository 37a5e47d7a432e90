(** Busy-wait primitives; see the interface for the tuning rationale. *)

let spin_rounds = 200

(* yielding quantum once the spin budget is spent: long enough that a
   preempted partner gets scheduled, short enough to stay responsive *)
let sleep_s = 50e-6

(* long-idle tier: after [idle_after] base-quantum sleeps the quantum
   doubles each sleep up to [sleep_cap_s], so an idle waiter converges to
   one wakeup per cap instead of polling every base quantum; the cap
   bounds the worst-case wakeup latency of a parked worker *)
let idle_after = 40
let sleep_cap_s = 20e-3

type backoff = { mutable rounds : int; mutable sleeps : int; mutable cur_sleep_s : float }

let backoff () = { rounds = 0; sleeps = 0; cur_sleep_s = sleep_s }

let current_sleep_s b = b.cur_sleep_s

let once b =
  if b.rounds < spin_rounds then begin
    Domain.cpu_relax ();
    b.rounds <- b.rounds + 1
  end
  else begin
    Unix.sleepf b.cur_sleep_s;
    b.sleeps <- b.sleeps + 1;
    if b.sleeps >= idle_after then
      b.cur_sleep_s <- Float.min (b.cur_sleep_s *. 2.) sleep_cap_s
  end

(* a successful wait ends the episode; the next episode of the same
   waiter starts back at the responsive tier *)
let reset b =
  b.rounds <- 0;
  b.sleeps <- 0;
  b.cur_sleep_s <- sleep_s

type lock = { flag : bool Atomic.t }

let lock_create () = { flag = Atomic.make false }

(* test-and-test-and-set: the plain read keeps the cache line shared
   while the lock is held; only a free-looking lock pays the RMW *)
let try_acquire l = (not (Atomic.get l.flag)) && Atomic.compare_and_set l.flag false true

let acquire ?(on_contend = fun () -> ()) l =
  if not (try_acquire l) then begin
    on_contend ();
    let b = backoff () in
    while not (try_acquire l) do
      once b
    done
  end

let release l = Atomic.set l.flag false

(** Flight recorder; see the interface for the contract.

    Layout notes. A buffer is five parallel arrays (two unboxed float
    arrays for the clock readings, two string arrays sharing the caller's
    name/cat pointers, one int array for depth) plus scalar cursors.
    Recording a span writes one slot of each — no record allocation, no
    shared-heap traffic beyond publishing the strings that the caller
    already holds. The buffer itself is created lazily per domain via
    [Domain.DLS], so a disabled recorder allocates nothing at all. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let default_capacity = 32768

(* Read at every buffer creation (not module load) so a test can point
   [COMMSET_TRACE_BUF] at a tiny value, spawn fresh domains and exercise
   shedding; existing buffers keep the capacity they were born with. *)
let capacity () =
  match Sys.getenv_opt "COMMSET_TRACE_BUF" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 16 -> n
      | _ -> default_capacity)
  | None -> default_capacity

type buf = {
  slot : int;
  cap : int;
  mutable n : int;  (** spans recorded; [n] is bumped after the slot is written *)
  mutable seq : int;  (** ids handed out, including dropped spans *)
  mutable depth : int;
  t0s : float array;
  t1s : float array;
  names : string array;
  cats : string array;
  depths : int array;
  mutable dropped : int;
}

let registry_lock = Mutex.create ()
let registry : buf list ref = ref []
let next_slot = Atomic.make 0

let make_buf () =
  let cap = capacity () in
  let b =
    {
      slot = Atomic.fetch_and_add next_slot 1;
      cap;
      n = 0;
      seq = 0;
      depth = 0;
      t0s = Array.make cap 0.;
      t1s = Array.make cap 0.;
      names = Array.make cap "";
      cats = Array.make cap "";
      depths = Array.make cap 0;
      dropped = 0;
    }
  in
  Mutex.lock registry_lock;
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let key : buf Domain.DLS.key = Domain.DLS.new_key make_buf

let record b cat name depth t0 t1 =
  let i = b.n in
  b.seq <- b.seq + 1;
  if i < b.cap then begin
    b.t0s.(i) <- t0;
    b.t1s.(i) <- t1;
    b.names.(i) <- name;
    b.cats.(i) <- cat;
    b.depths.(i) <- depth;
    b.n <- i + 1
  end
  else b.dropped <- b.dropped + 1

let with_span ?(cat = "") name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = Domain.DLS.get key in
    let depth = b.depth in
    b.depth <- depth + 1;
    let t0 = Clock.now_ns () in
    match f () with
    | v ->
        record b cat name depth t0 (Clock.now_ns ());
        b.depth <- depth;
        v
    | exception e ->
        record b cat name depth t0 (Clock.now_ns ());
        b.depth <- depth;
        raise e
  end

type span = {
  sid : int;
  dom : int;
  depth : int;
  name : string;
  cat : string;
  t0_ns : float;
  t1_ns : float;
}

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  List.sort (fun a b -> compare a.slot b.slot) bs

let dump () : span list =
  List.concat_map
    (fun b ->
      let n = b.n in
      List.init n (fun i ->
          {
            sid = (b.slot lsl 40) lor i;
            dom = b.slot;
            depth = b.depths.(i);
            name = b.names.(i);
            cat = b.cats.(i);
            t0_ns = b.t0s.(i);
            t1_ns = b.t1s.(i);
          }))
    (buffers ())

let dropped_total () = List.fold_left (fun acc b -> acc + b.dropped) 0 (buffers ())

let reset () =
  List.iter
    (fun b ->
      b.n <- 0;
      b.seq <- 0;
      b.dropped <- 0)
    (buffers ())

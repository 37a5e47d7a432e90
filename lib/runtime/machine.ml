(** The simulated world that builtins act on: a virtual file system, an
    RNG, a histogram, collections (vectors, bitmaps, lists, itemsets), a
    packet pool, a row database, and the output stream.

    All of this is the OCaml implementation of the substrates the paper's
    workloads need (libc I/O, allocators, STL containers, NetBench packet
    queues, MineBench databases). State is deterministic: a fresh machine
    plus a fixed program always produces the same outputs and costs. *)

open Commset_support

(* --- virtual file system ------------------------------------------- *)

type vfile = { mutable contents : string }

type open_file = { path : string; mutable pos : int; mutable closed : bool }

type t = {
  files : (string, vfile) Hashtbl.t;
  fd_table : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  (* RNG: a 48-bit LCG, same constants as POSIX drand48 *)
  mutable rng_state : int64;
  (* histogram *)
  hist : float array;
  mutable hist_count : int;
  mutable hist_total : float;
  (* string vector (single shared instance, like the paper's STL vector) *)
  mutable vec : string array;
  mutable vec_len : int;
  (* bitmaps *)
  bitmaps : (int, Bytes.t) Hashtbl.t;
  mutable next_bitmap : int;
  mutable live_bitmaps : int;
  (* integer lists (Lists<Itemset*> stand-in) *)
  lists : (int, int list ref) Hashtbl.t;
  mutable next_list : int;
  (* statistics accumulators *)
  mutable stat_sum : float;
  mutable stat_count : int;
  mutable stat_max : float;
  (* packet pool *)
  mutable packets : (int * string) list;  (** (id, url) in arrival order *)
  mutable dequeued : int;
  pkt_urls : (int, string) Hashtbl.t;
      (** payloads, immutable once generated, so [pkt_url] is pure *)
  (* row database with a shared cursor *)
  mutable db_rows : string array;
  mutable db_cursor : int;
  (* bipartite graph under construction (em3d) *)
  mutable graph_next_tbl : int array;  (** linked-list next pointers, -1 terminates *)
  mutable graph_head : int;
  graph_nbrs : (int * int, int) Hashtbl.t;  (** (node, slot) -> neighbour *)
  graph_wts : (int * int, float) Hashtbl.t;
  mutable graph_edge_count : int;
  (* memoization cache / registry *)
  registry : (string, string) Hashtbl.t;
  (* log sink *)
  mutable log_lines : string list;
  mutable log_count : int;
  (* output *)
  mutable emit : string -> unit;
  mutable outputs : string list;  (** reverse order *)
}

let create () =
  {
    files = Hashtbl.create 64;
    fd_table = Hashtbl.create 64;
    next_fd = 3;
    rng_state = 0x1234ABCD330EL;
    hist = Array.make 64 0.0;
    hist_count = 0;
    hist_total = 0.0;
    vec = Array.make 16 "";
    vec_len = 0;
    bitmaps = Hashtbl.create 16;
    next_bitmap = 1;
    live_bitmaps = 0;
    lists = Hashtbl.create 16;
    next_list = 1;
    stat_sum = 0.0;
    stat_count = 0;
    stat_max = neg_infinity;
    packets = [];
    dequeued = 0;
    pkt_urls = Hashtbl.create 256;
    db_rows = [||];
    db_cursor = 0;
    graph_next_tbl = [||];
    graph_head = -1;
    graph_nbrs = Hashtbl.create 256;
    graph_wts = Hashtbl.create 256;
    graph_edge_count = 0;
    registry = Hashtbl.create 64;
    log_lines = [];
    log_count = 0;
    emit = (fun _ -> ());
    outputs = [];
  }

let default_emit m s = m.outputs <- s :: m.outputs

let outputs m = List.rev m.outputs

(* --- files ----------------------------------------------------------- *)

let add_file m path contents = Hashtbl.replace m.files path { contents }

let file_contents m path =
  match Hashtbl.find_opt m.files path with
  | Some f -> Some f.contents
  | None -> None

let fopen m path =
  if not (Hashtbl.mem m.files path) then Hashtbl.replace m.files path { contents = "" };
  let fd = m.next_fd in
  m.next_fd <- fd + 1;
  Hashtbl.replace m.fd_table fd { path; pos = 0; closed = false };
  fd

let lookup_fd m fd =
  match Hashtbl.find_opt m.fd_table fd with
  | Some f when not f.closed -> f
  | Some _ -> Diag.error "runtime: I/O on closed fd %d" fd
  | None -> Diag.error "runtime: unknown fd %d" fd

let fread m fd n =
  let f = lookup_fd m fd in
  let file = Hashtbl.find m.files f.path in
  let avail = String.length file.contents - f.pos in
  let take = max 0 (min n avail) in
  let s = String.sub file.contents f.pos take in
  f.pos <- f.pos + take;
  s

let fsize m fd =
  let f = lookup_fd m fd in
  String.length (Hashtbl.find m.files f.path).contents

let feof m fd =
  let f = lookup_fd m fd in
  f.pos >= String.length (Hashtbl.find m.files f.path).contents

let fwrite m fd s =
  let f = lookup_fd m fd in
  let file = Hashtbl.find m.files f.path in
  file.contents <- file.contents ^ s;
  f.pos <- String.length file.contents

let fclose m fd =
  let f = lookup_fd m fd in
  f.closed <- true

(* --- RNG -------------------------------------------------------------- *)

let rng_raw m =
  m.rng_state <-
    Int64.logand
      (Int64.add (Int64.mul m.rng_state 0x5DEECE66DL) 0xBL)
      0xFFFFFFFFFFFFL;
  Int64.to_int (Int64.shift_right_logical m.rng_state 17)

let rng_int m bound = if bound <= 0 then 0 else rng_raw m mod bound

let rng_float m = float_of_int (rng_raw m) /. 2147483648.0

let rng_reseed m seed = m.rng_state <- Int64.logand (Int64.of_int seed) 0xFFFFFFFFFFFFL

(* --- histogram --------------------------------------------------------- *)

let hist_add m score =
  let bucket = max 0 (min 63 (int_of_float (score *. 8.0))) in
  m.hist.(bucket) <- m.hist.(bucket) +. 1.0;
  m.hist_count <- m.hist_count + 1;
  m.hist_total <- m.hist_total +. score

let hist_summary m =
  Printf.sprintf "hist n=%d mean=%.4f" m.hist_count
    (if m.hist_count = 0 then 0.0 else m.hist_total /. float_of_int m.hist_count)

(* --- vector ------------------------------------------------------------ *)

let vec_push m s =
  if m.vec_len = Array.length m.vec then begin
    let bigger = Array.make (2 * Array.length m.vec) "" in
    Array.blit m.vec 0 bigger 0 m.vec_len;
    m.vec <- bigger
  end;
  m.vec.(m.vec_len) <- s;
  m.vec_len <- m.vec_len + 1

let vec_size m = m.vec_len

let vec_get m i =
  if i < 0 || i >= m.vec_len then
    Diag.error ~code:"CS018" "runtime: vector index %d out of bounds" i;
  m.vec.(i)

(* --- bitmaps ------------------------------------------------------------ *)

let bm_new m nbits =
  let nbits = max 0 nbits in
  let nbytes = (nbits / 8) + if nbits mod 8 = 0 then 0 else 1 in
  if nbytes > Sys.max_string_length then
    Diag.error "runtime: bitmap of %d bits exceeds the maximum size" nbits;
  let id = m.next_bitmap in
  m.next_bitmap <- id + 1;
  m.live_bitmaps <- m.live_bitmaps + 1;
  Hashtbl.replace m.bitmaps id (Bytes.make nbytes '\000');
  id

let bm_payload m id =
  match Hashtbl.find_opt m.bitmaps id with
  | Some b -> b
  | None -> Diag.error "runtime: unknown bitmap %d" id

let bit_in_range b key = key >= 0 && key / 8 < Bytes.length b

let bit_set b key =
  if not (bit_in_range b key) then Diag.error "runtime: bitmap key %d out of range" key;
  let byte = key / 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (key mod 8))))

let bit_get b key =
  bit_in_range b key && Char.code (Bytes.get b (key / 8)) land (1 lsl (key mod 8)) <> 0

let bm_free m id =
  if Hashtbl.mem m.bitmaps id then begin
    Hashtbl.remove m.bitmaps id;
    m.live_bitmaps <- m.live_bitmaps - 1
  end

(* --- lists -------------------------------------------------------------- *)

let list_new m =
  let id = m.next_list in
  m.next_list <- id + 1;
  Hashtbl.replace m.lists id (ref []);
  id

let list_lookup m id =
  match Hashtbl.find_opt m.lists id with
  | Some l -> l
  | None -> Diag.error "runtime: unknown list %d" id

let list_insert m id item =
  let l = list_lookup m id in
  l := item :: !l

let list_size m id = List.length !(list_lookup m id)

let list_sum m id = List.fold_left ( + ) 0 !(list_lookup m id)

(* --- stats -------------------------------------------------------------- *)

let stat_add m v =
  m.stat_sum <- m.stat_sum +. v;
  m.stat_count <- m.stat_count + 1

let stat_note_max m v = if v > m.stat_max then m.stat_max <- v

let stat_summary m =
  Printf.sprintf "stats n=%d sum=%.2f max=%.2f" m.stat_count m.stat_sum
    (if m.stat_count = 0 then 0.0 else m.stat_max)

(* --- packets ------------------------------------------------------------ *)

let set_packets m pkts =
  m.packets <- pkts;
  m.dequeued <- 0

let pkt_dequeue m =
  match m.packets with
  | [] -> -1
  | (id, _) :: rest ->
      m.packets <- rest;
      m.dequeued <- m.dequeued + 1;
      id

let register_packet_url m id url = Hashtbl.replace m.pkt_urls id url

let pkt_url m id = Option.value ~default:"" (Hashtbl.find_opt m.pkt_urls id)

(* --- database ------------------------------------------------------------ *)

let set_db_rows m rows =
  m.db_rows <- rows;
  m.db_cursor <- 0

let db_read m =
  if m.db_cursor >= Array.length m.db_rows then ""
  else begin
    let row = m.db_rows.(m.db_cursor) in
    m.db_cursor <- m.db_cursor + 1;
    row
  end

(* --- graph (em3d) --------------------------------------------------------- *)

(** Build [n] nodes chained as a linked list in a scrambled order (the
    pointer-chasing structure that defeats DOALL in em3d). *)
let graph_build_nodes m n =
  let order = Array.init n (fun i -> i) in
  (* deterministic shuffle *)
  let st = ref 12345 in
  for i = n - 1 downto 1 do
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !st mod (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  m.graph_next_tbl <- Array.make n (-1);
  for i = 0 to n - 2 do
    m.graph_next_tbl.(order.(i)) <- order.(i + 1)
  done;
  m.graph_head <- (if n = 0 then -1 else order.(0));
  Hashtbl.reset m.graph_nbrs;
  Hashtbl.reset m.graph_wts;
  m.graph_edge_count <- 0

let graph_first m = m.graph_head

let graph_next m node =
  if node < 0 || node >= Array.length m.graph_next_tbl then -1 else m.graph_next_tbl.(node)

let graph_set_neighbor m node slot target =
  if not (Hashtbl.mem m.graph_nbrs (node, slot)) then
    m.graph_edge_count <- m.graph_edge_count + 1;
  Hashtbl.replace m.graph_nbrs (node, slot) target

let graph_set_weight m node slot w = Hashtbl.replace m.graph_wts (node, slot) w

let graph_summary m =
  let wsum = Hashtbl.fold (fun _ w acc -> acc +. w) m.graph_wts 0.0 in
  Printf.sprintf "graph nodes=%d edges=%d wsum=%.4f"
    (Array.length m.graph_next_tbl)
    m.graph_edge_count wsum

(* --- memoization cache ----------------------------------------------------- *)

let cache_get m key = Option.value ~default:"" (Hashtbl.find_opt m.registry key)

let cache_put m key v = Hashtbl.replace m.registry key v

(* --- log ------------------------------------------------------------------ *)

let log_write m line =
  m.log_lines <- line :: m.log_lines;
  m.log_count <- m.log_count + 1

let log_count m = m.log_count

(* --- cloning and observational comparison (commutativity sanitizer) ------- *)

let copy_tbl copy tbl =
  let t = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun k v -> Hashtbl.replace t k (copy v)) tbl;
  t

(** Deep copy of the whole machine state. The clone gets the no-op [emit];
    whoever runs programs on it installs its own. *)
let clone m =
  {
    files = copy_tbl (fun (f : vfile) -> { contents = f.contents }) m.files;
    fd_table = copy_tbl (fun (f : open_file) -> { f with pos = f.pos }) m.fd_table;
    next_fd = m.next_fd;
    rng_state = m.rng_state;
    hist = Array.copy m.hist;
    hist_count = m.hist_count;
    hist_total = m.hist_total;
    vec = Array.copy m.vec;
    vec_len = m.vec_len;
    bitmaps = copy_tbl Bytes.copy m.bitmaps;
    next_bitmap = m.next_bitmap;
    live_bitmaps = m.live_bitmaps;
    lists = copy_tbl (fun l -> ref !l) m.lists;
    next_list = m.next_list;
    stat_sum = m.stat_sum;
    stat_count = m.stat_count;
    stat_max = m.stat_max;
    packets = m.packets;
    dequeued = m.dequeued;
    pkt_urls = Hashtbl.copy m.pkt_urls;
    db_rows = Array.copy m.db_rows;
    db_cursor = m.db_cursor;
    graph_next_tbl = Array.copy m.graph_next_tbl;
    graph_head = m.graph_head;
    graph_nbrs = Hashtbl.copy m.graph_nbrs;
    graph_wts = Hashtbl.copy m.graph_wts;
    graph_edge_count = m.graph_edge_count;
    registry = Hashtbl.copy m.registry;
    log_lines = m.log_lines;
    log_count = m.log_count;
    emit = (fun _ -> ());
    outputs = m.outputs;
  }

let sorted_bindings tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** Differences between two machines that COMMSET's semantics treat as
    observable. Identity-sensitive state is compared up to renaming
    (handles like fds, bitmap ids, and list ids are allocation-order
    artifacts) and order-insensitive sinks (the output stream, the log,
    the vector, list contents) are compared as multisets — the paper's
    contract is that a commutative reordering may permute such sinks.
    Everything else is compared strictly. Returns a human-readable
    description per differing component; [[]] means observationally
    equal. *)
let obs_diff m1 m2 : string list =
  let diffs = ref [] in
  let check what equal = if not equal then diffs := what :: !diffs in
  let msort l = List.sort compare l in
  check "file contents"
    (sorted_bindings (copy_tbl (fun (f : vfile) -> f.contents) m1.files)
    = sorted_bindings (copy_tbl (fun (f : vfile) -> f.contents) m2.files));
  let fd_multiset m =
    msort (Hashtbl.fold (fun _ (f : open_file) acc -> (f.path, f.pos, f.closed) :: acc) m.fd_table [])
  in
  check "open-file table" (fd_multiset m1 = fd_multiset m2);
  check "rng state" (m1.rng_state = m2.rng_state);
  check "histogram" (m1.hist = m2.hist && m1.hist_count = m2.hist_count && m1.hist_total = m2.hist_total);
  let vec_multiset m = msort (Array.to_list (Array.sub m.vec 0 m.vec_len)) in
  check "vector contents" (vec_multiset m1 = vec_multiset m2);
  let bm_multiset m = msort (Hashtbl.fold (fun _ b acc -> Bytes.to_string b :: acc) m.bitmaps []) in
  check "bitmaps" (bm_multiset m1 = bm_multiset m2);
  let list_multiset m = msort (Hashtbl.fold (fun _ l acc -> msort !l :: acc) m.lists []) in
  check "lists" (list_multiset m1 = list_multiset m2);
  check "stats"
    (m1.stat_sum = m2.stat_sum && m1.stat_count = m2.stat_count && m1.stat_max = m2.stat_max);
  check "packet queue" (m1.packets = m2.packets && m1.dequeued = m2.dequeued);
  check "db cursor" (m1.db_rows = m2.db_rows && m1.db_cursor = m2.db_cursor);
  check "graph"
    (m1.graph_next_tbl = m2.graph_next_tbl
    && m1.graph_head = m2.graph_head
    && sorted_bindings m1.graph_nbrs = sorted_bindings m2.graph_nbrs
    && sorted_bindings m1.graph_wts = sorted_bindings m2.graph_wts);
  check "registry" (sorted_bindings m1.registry = sorted_bindings m2.registry);
  check "log" (msort m1.log_lines = msort m2.log_lines);
  check "outputs" (msort m1.outputs = msort m2.outputs);
  List.rev !diffs

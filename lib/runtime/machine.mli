(** The simulated world that builtins act on: a virtual file system, an
    RNG, a histogram, collections (vectors, bitmaps, lists), a packet
    pool, a row database, a bipartite graph, a memoization registry and
    the output stream — the substrates the paper's workloads need (libc
    I/O, allocators, STL containers, NetBench packet queues, MineBench
    databases). A fresh machine plus a fixed program is deterministic. *)

type vfile = { mutable contents : string }

type open_file = { path : string; mutable pos : int; mutable closed : bool }

type t = {
  files : (string, vfile) Hashtbl.t;
  fd_table : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  mutable rng_state : int64;
  hist : float array;
  mutable hist_count : int;
  mutable hist_total : float;
  mutable vec : string array;
  mutable vec_len : int;
  bitmaps : (int, Bytes.t) Hashtbl.t;
  mutable next_bitmap : int;
  mutable live_bitmaps : int;
  lists : (int, int list ref) Hashtbl.t;
  mutable next_list : int;
  mutable stat_sum : float;
  mutable stat_count : int;
  mutable stat_max : float;
  mutable packets : (int * string) list;
  mutable dequeued : int;
  pkt_urls : (int, string) Hashtbl.t;
  mutable db_rows : string array;
  mutable db_cursor : int;
  mutable graph_next_tbl : int array;
  mutable graph_head : int;
  graph_nbrs : (int * int, int) Hashtbl.t;
  graph_wts : (int * int, float) Hashtbl.t;
  mutable graph_edge_count : int;
  registry : (string, string) Hashtbl.t;
  mutable log_lines : string list;
  mutable log_count : int;
  mutable emit : string -> unit;  (** output sink, installed by the interpreter *)
  mutable outputs : string list;  (** reverse order *)
}

val create : unit -> t
val default_emit : t -> string -> unit

(** Program output in emission order. *)
val outputs : t -> string list

(* files *)
val add_file : t -> string -> string -> unit
val file_contents : t -> string -> string option
val fopen : t -> string -> int
val fread : t -> int -> int -> string
val fsize : t -> int -> int
val feof : t -> int -> bool
val fwrite : t -> int -> string -> unit
val fclose : t -> int -> unit

(* RNG (48-bit LCG, drand48 constants) *)
val rng_int : t -> int -> int
val rng_float : t -> float
val rng_reseed : t -> int -> unit

(* histogram *)
val hist_add : t -> float -> unit
val hist_summary : t -> string

(* shared string vector *)
val vec_push : t -> string -> unit
val vec_size : t -> int
val vec_get : t -> int -> string

(* bitmaps *)
val bm_new : t -> int -> int
val bm_payload : t -> int -> Bytes.t

(** Set / test a bit of a bitmap payload (also the real engine's private
    bitmaps): setting a key outside it is a diagnostic, testing one reads clear. *)
val bit_set : Bytes.t -> int -> unit
val bit_get : Bytes.t -> int -> bool
val bm_free : t -> int -> unit

(* integer lists *)
val list_new : t -> int
val list_lookup : t -> int -> int list ref
val list_insert : t -> int -> int -> unit
val list_size : t -> int -> int
val list_sum : t -> int -> int

(* statistics *)
val stat_add : t -> float -> unit
val stat_note_max : t -> float -> unit
val stat_summary : t -> string

(* packet pool; payloads are immutable once registered *)
val set_packets : t -> (int * string) list -> unit
val pkt_dequeue : t -> int
val register_packet_url : t -> int -> string -> unit
val pkt_url : t -> int -> string

(* row database with a shared cursor *)
val set_db_rows : t -> string array -> unit
val db_read : t -> string

(* bipartite graph under construction (em3d) *)
val graph_build_nodes : t -> int -> unit
val graph_first : t -> int
val graph_next : t -> int -> int
val graph_set_neighbor : t -> int -> int -> int -> unit
val graph_set_weight : t -> int -> int -> float -> unit
val graph_summary : t -> string

(* memoization registry *)
val cache_get : t -> string -> string
val cache_put : t -> string -> string -> unit

(* log sink *)
val log_write : t -> string -> unit
val log_count : t -> int

(** Deep copy of the whole machine state; the clone gets a no-op [emit]. *)
val clone : t -> t

(** Differences between two machines that COMMSET's semantics treat as
    observable: handle-bearing state (fds, bitmap/list ids) compares up
    to renaming, order-insensitive sinks (outputs, log, vector, lists)
    compare as multisets, everything else strictly. Returns one
    human-readable description per differing component; [[]] means
    observationally equal. *)
val obs_diff : t -> t -> string list

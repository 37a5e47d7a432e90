(** The builtin (extern) functions of miniC, one descriptor each: every
    fact another layer needs about a builtin is a field of its record
    here (see the interface), so no other module matches on names.

    Abstract resources (the [Lext] locations):
    - ["io.fdtable"]: the open-file table (fopen/fclose);
    - ["io.stream.in"] / ["io.stream.out"]: input / output stream
      positions and buffers (libc keeps per-FILE locks; input and output
      streams never alias in these workloads);
    - ["io.disk"]: shared disk bandwidth — read-only in the effect system
      (no dependence edges) but a serialization point for transfers;
    - ["io.stdout"]: the console;
    - ["rng"]: the shared RNG seed;
    - ["hist"]: the histogram accumulator;
    - ["heap.alloc"]: the allocator free-list (matrix_alloc/matrix_free,
      bm_new/bm_free);
    - ["vec"], ["bm.data"], ["lst"]: collection contents;
    - ["stats"]: statistics accumulators;
    - ["pkt.pool"]: the packet input queue;
    - ["db.cursor"]: the database read cursor;
    - ["log"]: the log sink. *)

module Ast = Commset_lang.Ast
module Effects = Commset_analysis.Effects
module Tc = Commset_lang.Typecheck
open Commset_support

type impl = Machine.t -> Value.t list -> Value.t * float

type wclass = Accum of string | Multiset of string | Alloc of string | Cursor of string
  | Rng | Overwrite | Opaque

type sharing = Free | Shared | Ordered | Bitmap_alloc | Bitmap_free
  | Bitmap_access of (Bytes.t -> Value.t list -> Value.t)

type t = {
  id : int;
  name : string;
  params : Ast.ty list;
  ret : Ast.ty;
  spec : Effects.builtin_spec;
  resources : string list;
  thread_safe : bool;
  tm_safe : bool;
  sharing : sharing;
  wclass : wclass;
  partition : (string * int) option;
  injective : bool;
  arg_cost : (Value.t list -> float) option;
  impl : impl;
}

let rw_spec ?(reads = []) ?(writes = []) ?(reads_arrays = []) ?(writes_arrays = [])
    ?(allocates = false) ?(update = Effects.No_update) () =
  {
    Effects.bs_reads = reads;
    bs_writes = writes;
    bs_reads_arrays = reads_arrays;
    bs_writes_arrays = writes_arrays;
    bs_allocates = allocates;
    bs_update = update;
  }

(* [impl] returns the value and the cost of a call; [b_priced]'s [run]
   returns the value only and [cost] prices the call from its arguments. *)
let make ?(thread_safe = false) ?(tm_safe = true) ?(spec = rw_spec ()) ?sharing
    ?(wclass = Opaque) ?partition ?(injective = false) ~arg_cost name params ret impl =
  let resources = Listx.uniq (spec.Effects.bs_reads @ spec.Effects.bs_writes) in
  let sharing = Option.value sharing ~default:(if resources = [] then Free else Shared) in
  { id = -1; name; params; ret; spec; resources; thread_safe; tm_safe; sharing; wclass;
    partition; injective; arg_cost; impl }

let b = make ~arg_cost:None

let b_priced ~cost ?thread_safe ?sharing ?wclass ?partition ~spec name params ret run =
  make ?thread_safe ?sharing ?wclass ?partition ~spec ~arg_cost:(Some cost) name params ret
    (fun m args -> (run m args, cost args))

let int_v n = Value.Vint n
let float_v f = Value.Vfloat f
let bool_v x = if x then Value.vtrue else Value.vfalse
let string_v s = Value.Vstring s
let unit_v = int_v 0

(* the labels are built once: [Value.to_*] reads them only on error *)
let arg_labels = Array.init 8 (Printf.sprintf "argument %d")
let arg n args = List.nth args n
let iarg n args = Value.to_int ~what:arg_labels.(n) (arg n args)
let farg n args = Value.to_float ~what:arg_labels.(n) (arg n args)
let sarg n args = Value.to_string_val ~what:arg_labels.(n) (arg n args)
let aarg n args = Value.to_array ~what:arg_labels.(n) (arg n args)

(* an allocation length: negative clamps to 0, past the limit is a diagnostic *)
let alloc_length n =
  let n = max 0 n in
  if n > Sys.max_array_length then
    Diag.error "runtime: length %d exceeds the maximum array length" n;
  n

(* a bitmap operation on the payload of the handle in argument 0 *)
let on_bitmap op m args = op (Machine.bm_payload m (iarg 0 args)) args
let set_bit bytes args = Machine.bit_set bytes (iarg 1 args); unit_v
let get_bit bytes args = bool_v (Machine.bit_get bytes (iarg 1 args))

open Ast

let alloc_cost n = Costmodel.alloc_base +. (Costmodel.alloc_per_slot *. float_of_int n)

let all : t list =
  List.mapi (fun id bi -> { bi with id })
  [
    (* ---- pure conversions and string ops ---- *)
    b "int_to_string" [ Tint ] Tstring ~injective:true (fun _ a ->
        (string_v (string_of_int (iarg 0 a)), 12.));
    b "float_to_string" [ Tfloat ] Tstring (fun _ a ->
        (string_v (Printf.sprintf "%.4f" (farg 0 a)), 30.));
    b "int_to_float" [ Tint ] Tfloat (fun _ a -> (float_v (float_of_int (iarg 0 a)), 1.));
    b "float_to_int" [ Tfloat ] Tint (fun _ a -> (int_v (int_of_float (farg 0 a)), 1.));
    b "fsqrt" [ Tfloat ] Tfloat (fun _ a -> (float_v (sqrt (farg 0 a)), 8.));
    b "fabs" [ Tfloat ] Tfloat (fun _ a -> (float_v (abs_float (farg 0 a)), 1.));
    b "imin" [ Tint; Tint ] Tint (fun _ a -> (int_v (min (iarg 0 a) (iarg 1 a)), 1.));
    b "imax" [ Tint; Tint ] Tint (fun _ a -> (int_v (max (iarg 0 a) (iarg 1 a)), 1.));
    b "strlen" [ Tstring ] Tint (fun _ a -> (int_v (String.length (sarg 0 a)), 2.));
    b "substr" [ Tstring; Tint; Tint ] Tstring (fun _ a ->
        let s = sarg 0 a and pos = iarg 1 a and len = iarg 2 a in
        let pos = max 0 (min pos (String.length s)) in
        let len = max 0 (min len (String.length s - pos)) in
        (string_v (String.sub s pos len), 4. +. (0.1 *. float_of_int len)));
    b "str_get" [ Tstring; Tint ] Tint (fun _ a ->
        let s = sarg 0 a and i = iarg 1 a in
        let c = if i >= 0 && i < String.length s then Char.code s.[i] else 0 in
        (int_v c, 2.));
    b "str_find" [ Tstring; Tstring ] Tint (fun _ a ->
        let hay = sarg 0 a and needle = sarg 1 a in
        let n = String.length needle and h = String.length hay in
        let rec search i =
          if n = 0 then 0
          else if i + n > h then -1
          else if String.sub hay i n = needle then i
          else search (i + 1)
        in
        (int_v (search 0), 6. +. (0.15 *. float_of_int h)));
    b "str_hash" [ Tstring ] Tint (fun _ a ->
        let s = sarg 0 a in
        let h = ref 5381 in
        String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) s;
        (int_v !h, 4. +. (0.3 *. float_of_int (String.length s))));
    (* ---- heavy pure kernels ---- *)
    b "md5_hex" [ Tstring ] Tstring (fun _ a ->
        let s = sarg 0 a in
        ( string_v (Md5.digest_string s),
          80. +. (Costmodel.md5_cost_per_byte *. float_of_int (String.length s)) ));
    b "trace_bitmap" [ Tstring ] Tstring (fun _ a ->
        (* potrace stand-in: "vectorize" a bitmap into a path whose size is
           proportional to the input, like a real vector tracer *)
        let s = sarg 0 a in
        let path = Buffer.create (String.length s / 4) in
        let crc = ref 0 and segments = ref 0 in
        String.iteri
          (fun i c ->
            let v = Char.code c in
            crc := ((!crc * 131) + (v * (1 + (i land 7)))) land 0xFFFFFF;
            if v land 1 = 1 then incr segments;
            if i land 1 = 0 then Buffer.add_char path (Char.chr (65 + (!crc land 15))))
          s;
        ( string_v (Printf.sprintf "P%d;%s" !segments (Buffer.contents path)),
          120. +. (Costmodel.trace_cost_per_byte *. float_of_int (String.length s)) ));
    (* ---- arrays ---- *)
    b "iarray" [ Tint ] (Tarray Tint)
      ~spec:(rw_spec ~allocates:true ())
      (fun _ a ->
        let n = alloc_length (iarg 0 a) in
        (Value.Varray (Array.make n (int_v 0)), alloc_cost n));
    b "farray" [ Tint ] (Tarray Tfloat)
      ~spec:(rw_spec ~allocates:true ())
      (fun _ a ->
        let n = alloc_length (iarg 0 a) in
        (Value.Varray (Array.make n (float_v 0.)), alloc_cost n));
    b "sarray" [ Tint ] (Tarray Tstring)
      ~spec:(rw_spec ~allocates:true ())
      (fun _ a ->
        let n = alloc_length (iarg 0 a) in
        (Value.Varray (Array.make n (string_v "")), alloc_cost n));
    b "alen_i" [ Tarray Tint ] Tint
      ~spec:(rw_spec ~reads_arrays:[ 0 ] ())
      (fun _ a -> (int_v (Array.length (aarg 0 a)), 1.));
    b "alen_f" [ Tarray Tfloat ] Tint
      ~spec:(rw_spec ~reads_arrays:[ 0 ] ())
      (fun _ a -> (int_v (Array.length (aarg 0 a)), 1.));
    b "alen_s" [ Tarray Tstring ] Tint
      ~spec:(rw_spec ~reads_arrays:[ 0 ] ())
      (fun _ a -> (int_v (Array.length (aarg 0 a)), 1.));
    (* matrix = float[] from the shared allocator: the allocator free-list
       is the shared resource, the storage itself is fresh (456.hmmer) *)
    b "matrix_alloc" [ Tint ] (Tarray Tfloat) ~tm_safe:true ~thread_safe:true
      ~wclass:(Alloc "heap")
      ~spec:(rw_spec ~reads:[ "heap.alloc" ] ~writes:[ "heap.alloc" ] ~allocates:true ())
      (fun _ a ->
        let n = alloc_length (iarg 0 a) in
        (Value.Varray (Array.make n (float_v 0.)), alloc_cost n +. 120.));
    b "matrix_free" [ Tarray Tfloat ] Tvoid ~tm_safe:true ~thread_safe:true ~wclass:(Alloc "heap")
      ~spec:(rw_spec ~reads:[ "heap.alloc" ] ~writes:[ "heap.alloc" ] ~reads_arrays:[ 0 ] ())
      (fun _ _ -> (int_v 0, 140.));
    (* ---- console and files ---- *)
    b "print" [ Tstring ] Tvoid ~tm_safe:false ~wclass:(Multiset "stdout")
      ~spec:(rw_spec ~reads:[ "io.stdout" ] ~writes:[ "io.stdout" ] ())
      ~thread_safe:true
      (fun m a ->
        m.Machine.emit (sarg 0 a);
        (int_v 0, Costmodel.print_cost));
    (* each call mints a distinct descriptor: the result is a fresh
       handle ([allocates]), which lets the static differencer prove
       per-iteration streams distinct *)
    b "fopen" [ Tstring ] Tint ~tm_safe:false ~wclass:(Alloc "fd")
      ~spec:(rw_spec ~reads:[ "io.fdtable" ] ~writes:[ "io.fdtable" ] ~allocates:true ())
      ~thread_safe:true
      (fun m a -> (int_v (Machine.fopen m (sarg 0 a)), Costmodel.file_open_cost));
    b "fclose" [ Tint ] Tvoid ~tm_safe:false ~wclass:(Alloc "fd")
      ~spec:(rw_spec ~reads:[ "io.fdtable" ] ~writes:[ "io.fdtable" ] ())
      ~thread_safe:true
      (fun m a ->
        Machine.fclose m (iarg 0 a);
        (int_v 0, Costmodel.file_close_cost));
    b "fread" [ Tint; Tint ] Tstring ~tm_safe:false ~wclass:(Cursor "stream")
      ~partition:("io.stream.in", 0)
      ~spec:
        (rw_spec
           ~reads:[ "io.stream.in"; "io.disk" ]
             (* "io.disk" models shared disk bandwidth: it serializes
                transfers (library lock) but, being read-only in the
                effect system, adds no dependence edges *)
           ~writes:[ "io.stream.in" ] ())
      ~thread_safe:true
      (fun m a ->
        let s = Machine.fread m (iarg 0 a) (iarg 1 a) in
        (string_v s, Costmodel.file_read_base +. (Costmodel.per_byte *. float_of_int (String.length s))));
    b "fsize" [ Tint ] Tint ~tm_safe:false ~partition:("io.stream.in", 0)
      ~spec:(rw_spec ~reads:[ "io.stream.in" ] ())
      ~thread_safe:true
      (fun m a -> (int_v (Machine.fsize m (iarg 0 a)), 40.));
    b "feof" [ Tint ] Tbool ~tm_safe:false ~partition:("io.stream.in", 0)
      ~spec:(rw_spec ~reads:[ "io.stream.in" ] ())
      ~thread_safe:true
      (fun m a -> (bool_v (Machine.feof m (iarg 0 a)), 20.));
    b "fwrite" [ Tint; Tstring ] Tvoid ~tm_safe:false ~wclass:(Multiset "stream")
      ~partition:("io.stream.out", 0)
      ~spec:(rw_spec ~reads:[ "io.stream.out"; "io.disk" ] ~writes:[ "io.stream.out" ] ())
      ~thread_safe:true
      (fun m a ->
        let s = sarg 1 a in
        Machine.fwrite m (iarg 0 a) s;
        (int_v 0, Costmodel.file_write_base +. (Costmodel.write_per_byte *. float_of_int (String.length s))));
    (* ---- RNG ---- *)
    b "rng_int" [ Tint ] Tint ~thread_safe:true ~sharing:Ordered ~wclass:Rng
      ~spec:(rw_spec ~reads:[ "rng" ] ~writes:[ "rng" ] ())
      (fun m a -> (int_v (Machine.rng_int m (iarg 0 a)), Costmodel.rng_cost));
    b "rng_range" [ Tint; Tint ] Tint ~thread_safe:true ~sharing:Ordered ~wclass:Rng
      ~spec:(rw_spec ~reads:[ "rng" ] ~writes:[ "rng" ] ())
      (fun m a ->
        let lo = iarg 0 a and hi = iarg 1 a in
        let v = if hi <= lo then lo else lo + Machine.rng_int m (hi - lo) in
        (int_v v, Costmodel.rng_cost));
    b "rng_float" [] Tfloat ~thread_safe:true ~sharing:Ordered ~wclass:Rng
      ~spec:(rw_spec ~reads:[ "rng" ] ~writes:[ "rng" ] ())
      (fun m _ -> (float_v (Machine.rng_float m), Costmodel.rng_cost));
    b "rng_gauss" [] Tfloat ~thread_safe:true ~sharing:Ordered ~wclass:Rng
      ~spec:(rw_spec ~reads:[ "rng" ] ~writes:[ "rng" ] ())
      (fun m _ ->
        let u1 = max 1e-9 (Machine.rng_float m) and u2 = Machine.rng_float m in
        (float_v (sqrt (-2. *. log u1) *. cos (6.2831853 *. u2)), Costmodel.rng_cost *. 2.));
    b "rng_reseed" [ Tint ] Tvoid ~thread_safe:true ~sharing:Ordered ~wclass:Overwrite
      ~spec:(rw_spec ~writes:[ "rng" ] ())
      (fun m a ->
        Machine.rng_reseed m (iarg 0 a);
        (int_v 0, Costmodel.rng_cost));
    (* ---- histogram ---- *)
    b_priced "hist_add" [ Tfloat ] Tvoid ~cost:(fun _ -> Costmodel.hist_cost)
      ~wclass:(Accum "histogram")
      ~spec:(rw_spec ~reads:[ "hist" ] ~writes:[ "hist" ] ~update:(Effects.Update_writer "hist") ())
      (fun m a -> Machine.hist_add m (farg 0 a); unit_v);
    b "hist_summary" [] Tstring
      ~spec:(rw_spec ~reads:[ "hist" ] ~update:(Effects.Update_reader "hist") ())
      (fun m _ -> (string_v (Machine.hist_summary m), 60.));
    (* ---- vector ---- *)
    b_priced "vec_push" [ Tstring ] Tvoid ~cost:(fun _ -> Costmodel.collection_op_cost)
      ~wclass:(Multiset "vector")
      ~spec:(rw_spec ~reads:[ "vec" ] ~writes:[ "vec" ] ~update:(Effects.Update_writer "vec") ())
      (fun m a -> Machine.vec_push m (sarg 0 a); unit_v);
    b "vec_size" [] Tint
      ~spec:(rw_spec ~reads:[ "vec" ] ~update:(Effects.Update_reader "vec") ())
      (fun m _ -> (int_v (Machine.vec_size m), 4.));
    b "vec_get" [ Tint ] Tstring
      ~spec:(rw_spec ~reads:[ "vec" ] ~update:(Effects.Update_reader "vec") ())
      (fun m a -> (string_v (Machine.vec_get m (iarg 0 a)), 6.));
    (* ---- bitmaps ---- *)
    b "bm_new" [ Tint ] Tint ~thread_safe:true ~sharing:Bitmap_alloc ~wclass:(Alloc "heap")
      ~spec:(rw_spec ~reads:[ "heap.alloc" ] ~writes:[ "heap.alloc" ] ())
      (fun m a ->
        let nbits = max 0 (iarg 0 a) in
        (int_v (Machine.bm_new m nbits), 60. +. (0.05 *. float_of_int (nbits / 8))));
    b "bm_free" [ Tint ] Tvoid ~thread_safe:true ~sharing:Bitmap_free ~wclass:(Alloc "heap")
      ~spec:(rw_spec ~reads:[ "heap.alloc" ] ~writes:[ "heap.alloc" ] ())
      (fun m a ->
        Machine.bm_free m (iarg 0 a);
        (int_v 0, 40.));
    b_priced "bm_set" [ Tint; Tint ] Tvoid ~cost:(fun _ -> Costmodel.collection_op_cost)
      ~sharing:(Bitmap_access set_bit) ~wclass:(Accum "bitmap-or") ~partition:("bm.data", 0)
      ~spec:(rw_spec ~reads:[ "bm.data" ] ~writes:[ "bm.data" ] ())
      (on_bitmap set_bit);
    b_priced "bm_get" [ Tint; Tint ] Tbool ~cost:(fun _ -> 8.) ~sharing:(Bitmap_access get_bit)
      ~partition:("bm.data", 0) ~spec:(rw_spec ~reads:[ "bm.data" ] ())
      (on_bitmap get_bit);
    (* ---- lists ---- *)
    b "list_new" [] Tint ~thread_safe:true ~wclass:(Alloc "heap")
      ~spec:(rw_spec ~reads:[ "heap.alloc" ] ~writes:[ "heap.alloc" ] ())
      (fun m _ -> (int_v (Machine.list_new m), 50.));
    b "list_insert" [ Tint; Tint ] Tvoid ~wclass:(Multiset "list") ~partition:("lst", 0)
      ~spec:(rw_spec ~reads:[ "lst" ] ~writes:[ "lst" ] ())
      (fun m a ->
        Machine.list_insert m (iarg 0 a) (iarg 1 a);
        (int_v 0, Costmodel.collection_op_cost));
    b "list_contains" [ Tint; Tint ] Tbool ~partition:("lst", 0)
      ~spec:(rw_spec ~reads:[ "lst" ] ())
      (fun m a ->
        let l = Machine.list_lookup m (iarg 0 a) in
        (bool_v (List.mem (iarg 1 a) !l), 8. +. (0.4 *. float_of_int (List.length !l))));
    b "list_size" [ Tint ] Tint ~partition:("lst", 0)
      ~spec:(rw_spec ~reads:[ "lst" ] ())
      (fun m a -> (int_v (Machine.list_size m (iarg 0 a)), 6.));
    b "list_sum" [ Tint ] Tint ~partition:("lst", 0)
      ~spec:(rw_spec ~reads:[ "lst" ] ())
      (fun m a -> (int_v (Machine.list_sum m (iarg 0 a)), 20.));
    (* ---- stats ---- *)
    b_priced "stat_add" [ Tfloat ] Tvoid ~cost:(fun _ -> 16.) ~wclass:(Accum "statistics")
      ~spec:(rw_spec ~reads:[ "stats" ] ~writes:[ "stats" ] ~update:(Effects.Update_writer "stats") ())
      (fun m a -> Machine.stat_add m (farg 0 a); unit_v);
    b_priced "stat_note_max" [ Tfloat ] Tvoid ~cost:(fun _ -> 14.) ~wclass:(Accum "statistics")
      ~spec:(rw_spec ~reads:[ "stats" ] ~writes:[ "stats" ] ~update:(Effects.Update_writer "stats") ())
      (fun m a -> Machine.stat_note_max m (farg 0 a); unit_v);
    b "stat_summary" [] Tstring
      ~spec:(rw_spec ~reads:[ "stats" ] ~update:(Effects.Update_reader "stats") ())
      (fun m _ -> (string_v (Machine.stat_summary m), 60.));
    (* ---- packets ---- *)
    b "pkt_dequeue" [] Tint ~sharing:Ordered ~wclass:(Cursor "packet-queue")
      ~spec:(rw_spec ~reads:[ "pkt.pool" ] ~writes:[ "pkt.pool" ] ())
      (fun m _ -> (int_v (Machine.pkt_dequeue m), Costmodel.packet_dequeue_cost));
    b "pkt_url" [ Tint ] Tstring (fun m a -> (string_v (Machine.pkt_url m (iarg 0 a)), 10.));
    (* ---- database ---- *)
    b "db_read" [] Tstring ~tm_safe:false ~sharing:Ordered ~wclass:(Cursor "db")
      ~spec:(rw_spec ~reads:[ "db.cursor" ] ~writes:[ "db.cursor" ] ())
      (fun m _ ->
        let row = Machine.db_read m in
        (string_v row, Costmodel.db_read_cost +. (Costmodel.per_byte *. float_of_int (String.length row))));
    (* ---- log ---- *)
    b_priced "log_write" [ Tstring ] Tvoid ~thread_safe:true ~wclass:(Multiset "log")
      ~spec:(rw_spec ~reads:[ "log" ] ~writes:[ "log" ] ~update:(Effects.Update_writer "log") ())
      ~cost:(fun a ->
        Costmodel.log_write_base +. (Costmodel.per_byte *. float_of_int (String.length (sarg 0 a))))
      (fun m a -> Machine.log_write m (sarg 0 a); unit_v);
    b "log_count" [] Tint
      ~spec:(rw_spec ~reads:[ "log" ] ~update:(Effects.Update_reader "log") ())
      (fun m _ -> (int_v (Machine.log_count m), 6.));
    (* ---- list destruction (heap free-list, like bm_free) ---- *)
    b "list_free" [ Tint ] Tvoid ~thread_safe:true ~wclass:(Alloc "heap")
      ~spec:(rw_spec ~reads:[ "heap.alloc" ] ~writes:[ "heap.alloc" ] ())
      (fun m a ->
        Hashtbl.remove m.Machine.lists (iarg 0 a);
        (int_v 0, 60.));
    (* ---- potrace output encoding (pure, heavy) ---- *)
    b "svg_encode" [ Tstring ] Tstring (fun _ a ->
        let s = sarg 0 a in
        let buf = Buffer.create (String.length s * 2) in
        Buffer.add_string buf "<svg>";
        String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
        Buffer.add_string buf "</svg>";
        (string_v (Buffer.contents buf), 60. +. (4.5 *. float_of_int (String.length s))));
    (* ---- memoization cache (string registry) ---- *)
    b "cache_get" [ Tstring ] Tstring ~thread_safe:true ~partition:("registry", 0)
      ~spec:(rw_spec ~reads:[ "registry" ] ())
      (fun m a -> (string_v (Machine.cache_get m (sarg 0 a)), 26.));
    b "cache_put" [ Tstring; Tstring ] Tvoid ~thread_safe:true ~wclass:Overwrite
      ~partition:("registry", 0)
      ~spec:(rw_spec ~reads:[ "registry" ] ~writes:[ "registry" ] ())
      (fun m a ->
        Machine.cache_put m (sarg 0 a) (sarg 1 a);
        (int_v 0, 30.));
    (* ---- em3d bipartite graph library ----
       The graph library guarantees per-node isolation of neighbour slots
       (each (node, slot) cell is written by exactly one loop iteration),
       which a shape analysis would prove; its writes are therefore not
       modeled as conflicting abstract state. See DESIGN.md. *)
    b "graph_build_nodes" [ Tint ] Tvoid
      ~spec:(rw_spec ~writes:[ "graph.nodes" ] ())
      (fun m a ->
        let n = alloc_length (iarg 0 a) in
        Machine.graph_build_nodes m n;
        (int_v 0, 100. +. (2.0 *. float_of_int n)));
    b "graph_first" [] Tint
      ~spec:(rw_spec ~reads:[ "graph.nodes" ] ())
      (fun m _ -> (int_v (Machine.graph_first m), 6.));
    b "graph_next" [ Tint ] Tint
      ~spec:(rw_spec ~reads:[ "graph.nodes" ] ())
      (fun m a -> (int_v (Machine.graph_next m (iarg 0 a)), 18.));
    b "graph_set_neighbor" [ Tint; Tint; Tint ] Tvoid ~sharing:Shared (fun m a ->
        Machine.graph_set_neighbor m (iarg 0 a) (iarg 1 a) (iarg 2 a);
        (int_v 0, 22.));
    b "graph_set_weight" [ Tint; Tint; Tfloat ] Tvoid ~sharing:Shared (fun m a ->
        Machine.graph_set_weight m (iarg 0 a) (iarg 1 a) (farg 2 a);
        (int_v 0, 22.));
    b "graph_summary" [] Tstring
      ~spec:(rw_spec ~reads:[ "graph.nodes" ] ())
      (fun m _ -> (string_v (Machine.graph_summary m), 80.));
    (* ---- array fill helpers used by workload setup code ---- *)
    b "afill_f" [ Tarray Tfloat; Tint; Tint ] Tvoid
      ~spec:(rw_spec ~writes_arrays:[ 0 ] ())
      (fun _ a ->
        let arr = aarg 0 a and mult = iarg 1 a and modv = max 1 (iarg 2 a) in
        Array.iteri
          (fun i _ ->
            arr.(i) <- float_v (float_of_int ((i * mult) mod modv) /. float_of_int modv))
          arr;
        (int_v 0, 40. +. (1.5 *. float_of_int (Array.length arr))));
    b "afill_i" [ Tarray Tint; Tint; Tint ] Tvoid
      ~spec:(rw_spec ~writes_arrays:[ 0 ] ())
      (fun _ a ->
        let arr = aarg 0 a and mult = iarg 1 a and modv = max 1 (iarg 2 a) in
        Array.iteri (fun i _ -> arr.(i) <- int_v ((i * mult) mod modv)) arr;
        (int_v 0, 40. +. (1.5 *. float_of_int (Array.length arr))));
    b "aset_f" [ Tarray Tfloat; Tint; Tfloat ] Tvoid
      ~spec:(rw_spec ~writes_arrays:[ 0 ] ())
      (fun _ a ->
        let arr = aarg 0 a and i = iarg 1 a in
        if i < 0 || i >= Array.length arr then
          Diag.error "runtime: index %d out of bounds (length %d)" i (Array.length arr);
        arr.(i) <- float_v (farg 2 a);
        (int_v 0, 3.));
  ]

let table : (string, t) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun bi -> Hashtbl.replace tbl bi.name bi) all;
  tbl

let find name = Hashtbl.find_opt table name

let find_exn name =
  match find name with
  | Some bi -> bi
  | None -> Diag.error "unknown builtin '%s'" name

(** Effect lookup for the analyses. *)
let lookup_spec : Effects.lookup = fun name -> Option.map (fun bi -> bi.spec) (find name)

(** Extern signatures for the type checker. *)
let extern_sigs : Tc.extern_sig list =
  List.map (fun bi -> { Tc.xname = bi.name; xparams = bi.params; xret = bi.ret }) all

let deferred_cost bi =
  match bi.arg_cost with
  | Some cost -> cost
  | None -> invalid_arg ("Builtins.deferred_cost: " ^ bi.name ^ " prices calls as it runs them")

(** Metrics registry; see the interface for the contract. *)

type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  h_buckets : int Atomic.t array;  (** 64 log₂ buckets *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric =
  | Mcounter of counter
  | Mgauge of gauge
  | Mhist of histogram

let registry : (string, metric * string) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let find_or_create name doc make classify =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (m, _) -> (
          match classify m with
          | Some v -> v
          | None -> invalid_arg ("Metrics: '" ^ name ^ "' registered with another kind"))
      | None ->
          let v, m = make () in
          Hashtbl.replace registry name (m, doc);
          v)

let counter ?(doc = "") name : counter =
  find_or_create name doc
    (fun () ->
      let c = Atomic.make 0 in
      (c, Mcounter c))
    (function Mcounter c -> Some c | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c 1)
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let gauge ?(doc = "") name : gauge =
  find_or_create name doc
    (fun () ->
      let g = Atomic.make 0. in
      (g, Mgauge g))
    (function Mgauge g -> Some g | _ -> None)

let rec gauge_add g v =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (cur +. v)) then gauge_add g v

let gauge_set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let n_buckets = 64

let hist_make () =
  {
    h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0.;
  }

let histogram ?(doc = "") name : histogram =
  find_or_create name doc
    (fun () -> let h = hist_make () in (h, Mhist h))
    (function Mhist h -> Some h | _ -> None)

(* bucket i covers [2^(i-32), 2^(i-31)): frexp v = (m, e) with v = m·2^e,
   0.5 <= m < 1, so the bucket index is e + 31 *)
let bucket_of v =
  if v <= 0. then 0
  else
    let _, e = Float.frexp v in
    max 0 (min (n_buckets - 1) (e + 31))

let observe h v =
  ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  gauge_add h.h_sum v

let hist_count h = Atomic.get h.h_count
let hist_sum h = Atomic.get h.h_sum

(* Quantile estimate by linear interpolation inside the target log₂
   bucket: the rank q·count is located in the cumulative bucket counts,
   and the estimate is placed proportionally between the bucket's bounds
   [2^(i-32), 2^(i-31)) (bucket 0's lower bound is taken as 0 because
   zero and negative observations clamp there). The estimate is exact
   for distributions uniform within each bucket and is always within
   the matched bucket, i.e. within a factor of 2 of the true quantile. *)
let hist_quantile h q =
  let total = Atomic.get h.h_count in
  if total = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = Float.max (q *. float_of_int total) 1e-12 in
    let rec go i cum =
      if i >= n_buckets then Float.ldexp 1. (n_buckets - 31)
      else
        let n = Atomic.get h.h_buckets.(i) in
        let cum' = cum +. float_of_int n in
        if n > 0 && cum' >= target then
          let lo = if i = 0 then 0. else Float.ldexp 1. (i - 32) in
          let hi = Float.ldexp 1. (i - 31) in
          lo +. ((target -. cum) /. float_of_int n *. (hi -. lo))
        else go (i + 1) cum'
    in
    go 0 0.
  end

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

let sorted_entries () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun name (m, doc) acc -> (name, m, doc) :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) entries

let snapshot () =
  List.concat_map
    (fun (name, m, _) ->
      match m with
      | Mcounter c -> [ (name, float_of_int (Atomic.get c)) ]
      | Mgauge g -> [ (name, Atomic.get g) ]
      | Mhist h ->
          [
            (name ^ ".count", float_of_int (Atomic.get h.h_count));
            (name ^ ".sum", Atomic.get h.h_sum);
          ])
    (sorted_entries ())

module J = Json_strict

let to_json () =
  let metric (name, m, doc) =
    let fields =
      match m with
      | Mcounter c -> [ ("kind", J.Str "counter"); ("value", J.int (Atomic.get c)) ]
      | Mgauge g -> [ ("kind", J.Str "gauge"); ("value", J.Num (Atomic.get g)) ]
      | Mhist h ->
          let buckets = ref [] in
          Array.iteri
            (fun i b ->
              let n = Atomic.get b in
              if n > 0 then buckets := (string_of_int (i - 32), J.int n) :: !buckets)
            h.h_buckets;
          [
            ("kind", J.Str "histogram");
            ("count", J.int (Atomic.get h.h_count));
            ("sum", J.Num (Atomic.get h.h_sum));
            ("p50", J.Num (hist_quantile h 0.50));
            ("p95", J.Num (hist_quantile h 0.95));
            ("p99", J.Num (hist_quantile h 0.99));
            ("buckets", J.Obj (List.rev !buckets));
          ]
    in
    let doc = if doc = "" then [] else [ ("doc", J.Str doc) ] in
    J.Obj ((("name", J.Str name) :: doc) @ fields)
  in
  J.to_string (J.Obj [ ("metrics", J.Arr (List.map metric (sorted_entries ()))) ]) ^ "\n"

let to_text () =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      let v =
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.6f" v
      in
      Buffer.add_string buf (Printf.sprintf "%-40s %s\n" name v))
    (snapshot ());
  Buffer.contents buf

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ (m, _) ->
      match m with
      | Mcounter c -> Atomic.set c 0
      | Mgauge g -> Atomic.set g 0.
      | Mhist h ->
          Array.iter (fun b -> Atomic.set b 0) h.h_buckets;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0.)
    registry;
  Mutex.unlock registry_lock

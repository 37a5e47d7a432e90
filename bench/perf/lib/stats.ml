(** Order statistics over float samples. *)

(** The [q]-quantile by linear interpolation between closest ranks
    (0 ≤ q ≤ 1). Raises [Invalid_argument] on an empty sample. *)
let quantile (xs : float list) q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  Array.sort Float.compare a;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

(** The 10th percentile: the time an operation takes when the shared host
    is not slowing it. Interference from other tenants only ever adds
    time, so this tracks the code while the median tracks the neighbours. *)
let low xs = quantile xs 0.1

(** Samples per item (a program, a source), in arrival order. *)
type table = (string, float list) Hashtbl.t

let table () : table = Hashtbl.create 16
let add (t : table) k x = Hashtbl.replace t k (x :: Option.value ~default:[] (Hashtbl.find_opt t k))
let samples (t : table) k = List.rev (Option.value ~default:[] (Hashtbl.find_opt t k))

(** Sum over items of each item's {!low}: one operation on every item, on
    a quiet host. *)
let low_sum (t : table) = Hashtbl.fold (fun _ xs acc -> acc +. low xs) t 0.

(** Per pass, the sum over items of that pass's sample: the [j]-th total
    adds every item's [j]-th sample, for as many passes as every item
    has. *)
let pass_totals (t : table) =
  let items = Hashtbl.fold (fun k _ acc -> Array.of_list (samples t k) :: acc) t [] in
  let passes = List.fold_left (fun n a -> min n (Array.length a)) max_int items in
  if items = [] then [] else List.init passes (fun j -> sum (List.map (fun a -> a.(j)) items))

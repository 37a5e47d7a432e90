(** Reference definitions of [str_find], [trace_bitmap] and [svg_encode]
    (see the interface): value and charged cost, by the most direct code. *)

module Costmodel = Commset_runtime.Costmodel

let str_find hay needle =
  let n = String.length needle and h = String.length hay in
  let rec search i =
    if n = 0 then 0
    else if i + n > h then -1
    else if String.sub hay i n = needle then i
    else search (i + 1)
  in
  (search 0, 6. +. (0.15 *. float_of_int h))

let trace_bitmap s =
  let path = Buffer.create (String.length s / 4) in
  let crc = ref 0 and segments = ref 0 in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      crc := ((!crc * 131) + (v * (1 + (i land 7)))) land 0xFFFFFF;
      if v land 1 = 1 then incr segments;
      if i land 1 = 0 then Buffer.add_char path (Char.chr (65 + (!crc land 15))))
    s;
  ( Printf.sprintf "P%d;%s" !segments (Buffer.contents path),
    120. +. (Costmodel.trace_cost_per_byte *. float_of_int (String.length s)) )

let svg_encode s =
  let buf = Buffer.create (String.length s * 2) in
  Buffer.add_string buf "<svg>";
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.add_string buf "</svg>";
  (Buffer.contents buf, 60. +. (4.5 *. float_of_int (String.length s)))

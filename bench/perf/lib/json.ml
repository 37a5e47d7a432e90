(** Printer for {!Commset_obs.Json_strict} values. Every document the
    benchmark writes is printed from a value and parsed back strictly
    before it leaves the process. *)

module J = Commset_obs.Json_strict

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

(* Integral values print without a fraction; everything else keeps all
   17 significant digits, so a measured value is never rounded. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Json.number: non-finite value";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec add b = function
  | J.Null -> Buffer.add_string b "null"
  | J.Bool x -> Buffer.add_string b (string_of_bool x)
  | J.Num f -> Buffer.add_string b (number f)
  | J.Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | J.Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | J.Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add b (J.Str k);
          Buffer.add_char b ':';
          add b v)
        kvs;
      Buffer.add_char b '}'

(** The compact document, checked with {!J.parse} before it is returned. *)
let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  let s = Buffer.contents b in
  match J.parse s with
  | Ok _ -> s
  | Error e -> failwith ("Json.to_string produced invalid JSON: " ^ e)

let int i = J.Num (float_of_int i)

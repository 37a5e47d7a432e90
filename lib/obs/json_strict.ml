(** JSON values, their printer and a strict parser; see the interface.
    The parser is recursive descent over a string with a mutable
    cursor; errors carry the byte offset. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)
let opt f = function Some v -> f v | None -> Null

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let add_string b s =
  Buffer.add_char b '"';
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
    s;
  Buffer.add_char b '"'

(* %.15g reads back exactly whenever some decimal of at most 15 digits
   does, and %.17g always does *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 0x1p53 then Printf.sprintf "%.0f" f
  else
    let shortest p = Printf.sprintf "%.*g" p f in
    let s = shortest 15 in
    if float_of_string s = f then s
    else
      let s = shortest 16 in
      if float_of_string s = f then s else shortest 17

let to_string ?(expand = 0) v =
  let b = Buffer.create 1024 in
  let rec add depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f -> Buffer.add_string b (number f)
    | Str s -> add_string b s
    | Arr xs -> seq depth '[' ']' (add (depth + 1)) xs
    | Obj kvs ->
        let sep = if depth < expand then ": " else ":" in
        seq depth '{' '}'
          (fun (k, v) ->
            add_string b k;
            Buffer.add_string b sep;
            add (depth + 1) v)
          kvs
  and seq : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
   fun depth op cl item xs ->
    let break n =
      if depth < expand && xs <> [] then (
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (2 * n) ' '))
    in
    Buffer.add_char b op;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        break (depth + 1);
        item x)
      xs;
    break depth;
    Buffer.add_char b cl
  in
  add 0 v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Fail of string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Fail (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let is_digit c = c >= '0' && c <= '9'

let parse_number st =
  let start = st.pos in
  (match peek st with Some '-' -> advance st | _ -> ());
  (* int part: a single 0, or a nonzero digit followed by digits *)
  (match peek st with
  | Some '0' -> advance st
  | Some c when is_digit c ->
      while (match peek st with Some c when is_digit c -> true | _ -> false) do
        advance st
      done
  | _ -> fail st "malformed number");
  (match peek st with
  | Some '.' ->
      advance st;
      (match peek st with
      | Some c when is_digit c -> ()
      | _ -> fail st "digit expected after '.'");
      while (match peek st with Some c when is_digit c -> true | _ -> false) do
        advance st
      done
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      (match peek st with
      | Some c when is_digit c -> ()
      | _ -> fail st "digit expected in exponent");
      while (match peek st with Some c when is_digit c -> true | _ -> false) do
        advance st
      done
  | _ -> ());
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some v -> Num v
  | None -> fail st "malformed number"

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "malformed \\u escape"

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'u' ->
            advance st;
            if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
            let code =
              (hex_digit st st.src.[st.pos] lsl 12)
              lor (hex_digit st st.src.[st.pos + 1] lsl 8)
              lor (hex_digit st st.src.[st.pos + 2] lsl 4)
              lor hex_digit st st.src.[st.pos + 3]
            in
            st.pos <- st.pos + 4;
            (* encode the code point as UTF-8 (surrogates are kept as-is
               bytes of their code unit; the exporters never emit them) *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> fail st "bad escape")
    | Some c when Char.code c < 0x20 -> fail st "raw control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let rec parse_value st : t =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_arr st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and parse_obj st : t =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
      advance st;
      Obj []
  | _ ->
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        if List.mem_assoc k acc then fail st (Printf.sprintf "duplicate key \"%s\"" k);
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            members ((k, v) :: acc)
        | Some '}' ->
            advance st;
            List.rev ((k, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (members [])

and parse_arr st : t =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
      advance st;
      Arr []
  | _ ->
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
            advance st;
            elements (v :: acc)
        | Some ']' ->
            advance st;
            List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (elements [])

let parse (s : string) : (t, string) result =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Fail msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

(* ------------------------------------------------------------------ *)
(* Chrome trace-event validation                                       *)
(* ------------------------------------------------------------------ *)

let validate_chrome_trace (s : string) : (int, string) result =
  match parse s with
  | Error e -> Error ("not strict JSON: " ^ e)
  | Ok root -> (
      match member "traceEvents" root with
      | None -> Error "top-level object has no \"traceEvents\" member"
      | Some (Arr events) -> (
          let stacks : (int * int, string list) Hashtbl.t = Hashtbl.create 8 in
          let err = ref None in
          let set_err i msg =
            if !err = None then err := Some (Printf.sprintf "event %d: %s" i msg)
          in
          let num_field i ev k =
            match member k ev with
            | Some (Num v) -> Some v
            | Some _ ->
                set_err i (Printf.sprintf "\"%s\" is not a number" k);
                None
            | None ->
                set_err i (Printf.sprintf "missing \"%s\"" k);
                None
          in
          List.iteri
            (fun i ev ->
              if !err = None then
                match ev with
                | Obj _ -> (
                    match member "ph" ev with
                    | Some (Str ph)
                      when String.length ph = 1 && String.contains "BEXiICM" ph.[0] -> (
                        let pid = num_field i ev "pid" in
                        let tid = num_field i ev "tid" in
                        let name =
                          match member "name" ev with
                          | Some (Str n) -> Some n
                          | Some _ ->
                              set_err i "\"name\" is not a string";
                              None
                          | None ->
                              if ph <> "E" then set_err i "missing \"name\"";
                              None
                        in
                        if ph <> "M" then ignore (num_field i ev "ts");
                        if ph = "X" then
                          match num_field i ev "dur" with
                          | Some d when d < 0. -> set_err i "negative \"dur\""
                          | _ -> ()
                        else if ph = "B" || ph = "E" then
                          match (pid, tid) with
                          | Some p, Some t ->
                              let key = (int_of_float p, int_of_float t) in
                              let stack =
                                Option.value ~default:[] (Hashtbl.find_opt stacks key)
                              in
                              if ph = "B" then
                                Hashtbl.replace stacks key
                                  (Option.value ~default:"" name :: stack)
                              else (
                                match stack with
                                | [] -> set_err i "\"E\" with no open \"B\" on its track"
                                | _ :: rest -> Hashtbl.replace stacks key rest)
                          | _ -> ())
                    | Some (Str ph) -> set_err i (Printf.sprintf "unknown ph \"%s\"" ph)
                    | Some _ -> set_err i "\"ph\" is not a string"
                    | None -> set_err i "missing \"ph\"")
                | _ -> set_err i "event is not an object")
            events;
          if !err = None then
            Hashtbl.iter
              (fun (p, t) stack ->
                if stack <> [] && !err = None then
                  err :=
                    Some
                      (Printf.sprintf "track (%d,%d): %d unclosed \"B\" event(s)" p t
                         (List.length stack)))
              stacks;
          match !err with None -> Ok (List.length events) | Some e -> Error e)
      | Some _ -> Error "\"traceEvents\" is not an array")

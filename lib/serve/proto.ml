(** Length-prefixed strict-JSON framing; see the interface. *)

module J = Commset_obs.Json_strict

let max_frame = 16 * 1024 * 1024

(* ---------- blocking frame I/O ---------- *)

let rec write_all fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len

let rec read_all fd buf off len =
  if len = 0 then true
  else
    match Unix.read fd buf off len with
    | 0 -> false (* EOF mid-object *)
    | n -> read_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all fd buf off len

let send_frame fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Proto.send_frame: payload exceeds max_frame";
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

let decode_len buf off =
  let len = Int32.to_int (Bytes.get_int32_be buf off) land 0xFFFFFFFF in
  if len > max_frame then
    failwith (Printf.sprintf "frame length %d exceeds max_frame %d" len max_frame);
  len

(* first header byte: 0 = clean EOF at a frame boundary *)
let rec read_first fd hdr =
  match Unix.read fd hdr 0 1 with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_first fd hdr

let recv_frame fd =
  let hdr = Bytes.create 4 in
  if read_first fd hdr = 0 then None
  else begin
    if not (read_all fd hdr 1 3) then failwith "Proto.recv_frame: truncated header";
    let len = decode_len hdr 0 in
    let payload = Bytes.create len in
    if not (read_all fd payload 0 len) then failwith "Proto.recv_frame: truncated payload";
    Some (Bytes.unsafe_to_string payload)
  end

(* ---------- incremental decoder ---------- *)

module Framer = struct
  type t = { buf : Buffer.t }

  let create () = { buf = Buffer.create 512 }

  let feed t chunk len =
    Buffer.add_subbytes t.buf chunk 0 len;
    let data = Buffer.contents t.buf in
    let total = String.length data in
    let frames = ref [] in
    let off = ref 0 in
    let continue = ref true in
    while !continue do
      if total - !off < 4 then continue := false
      else
        let flen = decode_len (Bytes.unsafe_of_string data) !off in
        if total - !off - 4 < flen then continue := false
        else begin
          frames := String.sub data (!off + 4) flen :: !frames;
          off := !off + 4 + flen
        end
    done;
    Buffer.clear t.buf;
    Buffer.add_substring t.buf data !off (total - !off);
    List.rev !frames
end

(* ---------- request / response JSON ---------- *)

type request = {
  rq_id : int;
  rq_workload : string option;
  rq_source : string option;
  rq_echo : bool;
}

let request_to_json r =
  let body =
    match (r.rq_workload, r.rq_source) with
    | Some w, _ -> ("workload", J.Str w)
    | None, Some s -> ("source", J.Str s)
    | None, None -> invalid_arg "Proto.request_to_json: no workload or source"
  in
  let echo = if r.rq_echo then [ ("echo", J.Bool true) ] else [] in
  J.to_string (J.Obj (("id", J.int r.rq_id) :: body :: echo))

let str_member name obj =
  match J.member name obj with Some (J.Str s) -> Some s | _ -> None

let num_member name obj =
  match J.member name obj with Some (J.Num n) -> Some n | _ -> None

let bool_member name obj =
  match J.member name obj with Some (J.Bool b) -> Some b | _ -> None

(* An absent member reads as 0; a present one must be an integer below
   2^53 in magnitude, where every integer is exactly a float. *)
let int_member name obj =
  match J.member name obj with
  | None -> Ok 0
  | Some (J.Num n) when Float.is_integer n && Float.abs n < 0x1p53 -> Ok (int_of_float n)
  | Some _ -> Error (Printf.sprintf "\"%s\" is not an integer below 2^53 in magnitude" name)

let ( let* ) = Result.bind

let request_of_json s =
  match J.parse s with
  | Error e -> Error ("request is not strict JSON: " ^ e)
  | Ok (J.Obj _ as obj) -> (
      let* id = int_member "id" obj in
      let workload = str_member "workload" obj in
      let source = str_member "source" obj in
      let echo = Option.value ~default:false (bool_member "echo" obj) in
      match (workload, source) with
      | Some _, Some _ -> Error "request has both \"workload\" and \"source\""
      | None, None -> Error "request needs \"workload\" or \"source\""
      | _ -> Ok { rq_id = id; rq_workload = workload; rq_source = source; rq_echo = echo })
  | Ok _ -> Error "request is not a JSON object"

type response = {
  rs_id : int;
  rs_error : string option;
  rs_workload : string;
  rs_hit : bool;
  rs_n_outputs : int;
  rs_digest : string;
  rs_outputs : string list option;
  rs_queue_us : float;
  rs_service_us : float;
}

let response_to_json r =
  let some k f = function Some v -> [ (k, f v) ] | None -> [] in
  J.to_string
    (J.Obj
       ([ ("id", J.int r.rs_id); ("status", J.Str (if r.rs_error = None then "ok" else "error")) ]
       @ some "error" (fun e -> J.Str e) r.rs_error
       @ [
           ("workload", J.Str r.rs_workload);
           ("cache", J.Str (if r.rs_hit then "hit" else "miss"));
           ("n_outputs", J.int r.rs_n_outputs);
           ("digest", J.Str r.rs_digest);
         ]
       @ some "outputs" (fun ls -> J.Arr (List.map (fun l -> J.Str l) ls)) r.rs_outputs
       @ [ ("queue_us", J.Num r.rs_queue_us); ("service_us", J.Num r.rs_service_us) ]))

let response_of_json s =
  match J.parse s with
  | Error e -> Error ("response is not strict JSON: " ^ e)
  | Ok (J.Obj _ as obj) ->
      let* id = int_member "id" obj in
      let* n_outputs = int_member "n_outputs" obj in
      let error =
        match str_member "status" obj with
        | Some "ok" -> None
        | _ -> Some (Option.value ~default:"unknown error" (str_member "error" obj))
      in
      let outputs =
        match J.member "outputs" obj with
        | Some (J.Arr xs) ->
            Some (List.filter_map (function J.Str s -> Some s | _ -> None) xs)
        | _ -> None
      in
      Ok
        {
          rs_id = id;
          rs_error = error;
          rs_workload = Option.value ~default:"" (str_member "workload" obj);
          rs_hit = str_member "cache" obj = Some "hit";
          rs_n_outputs = n_outputs;
          rs_digest = Option.value ~default:"" (str_member "digest" obj);
          rs_outputs = outputs;
          rs_queue_us = Option.value ~default:0. (num_member "queue_us" obj);
          rs_service_us = Option.value ~default:0. (num_member "service_us" obj);
        }
  | Ok _ -> Error "response is not a JSON object"

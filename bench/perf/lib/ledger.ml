(** Self time per span name: a span's duration minus the part its
    direct children cover. Spans nest per recording domain (the
    recorder's stack discipline), so a span's parent is the nearest
    earlier-starting span on the same domain one level shallower. *)

module Recorder = Commset_obs.Recorder

type entry = { count : int; total_s : float; self_s : float }
type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 64

(** Fold one {!Recorder.dump} into the ledger. Span ids are unique only
    within one dump (the recorder reuses them after a reset), so each
    dump is folded on its own. *)
let add (t : t) (spans : Recorder.span list) =
  let dur (s : Recorder.span) = (s.Recorder.t1_ns -. s.Recorder.t0_ns) /. 1e9 in
  let child_s : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let by_dom : (int, Recorder.span list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (s : Recorder.span) ->
      Hashtbl.replace by_dom s.Recorder.dom
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_dom s.Recorder.dom)))
    spans;
  Hashtbl.iter
    (fun _ dom_spans ->
      let ordered =
        List.sort
          (fun (a : Recorder.span) (b : Recorder.span) ->
            compare (a.Recorder.t0_ns, a.Recorder.depth) (b.Recorder.t0_ns, b.Recorder.depth))
          dom_spans
      in
      let stack = ref [] in
      List.iter
        (fun (s : Recorder.span) ->
          let rec unwind = function
            | (top : Recorder.span) :: rest when top.Recorder.depth >= s.Recorder.depth ->
                unwind rest
            | st -> st
          in
          stack := unwind !stack;
          (match !stack with
          | parent :: _ ->
              let k = parent.Recorder.sid in
              Hashtbl.replace child_s k
                (dur s +. Option.value ~default:0. (Hashtbl.find_opt child_s k))
          | [] -> ());
          stack := s :: !stack)
        ordered)
    by_dom;
  List.iter
    (fun (s : Recorder.span) ->
      let d = dur s in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_s s.Recorder.sid) in
      let e =
        Option.value
          ~default:{ count = 0; total_s = 0.; self_s = 0. }
          (Hashtbl.find_opt t s.Recorder.name)
      in
      Hashtbl.replace t s.Recorder.name
        { count = e.count + 1; total_s = e.total_s +. d; self_s = e.self_s +. self })
    spans

let self_s (t : t) name = match Hashtbl.find_opt t name with Some e -> e.self_s | None -> 0.

(** Every span name with its count, total and self seconds, by name. *)
let rows (t : t) = Hashtbl.fold (fun name e acc -> (name, e) :: acc) t [] |> List.sort compare

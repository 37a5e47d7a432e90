(** Plain-text table and chart rendering for the evaluation reports. *)

let rstrip s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  String.sub s 0 !n

(** Render a table: header row plus data rows, columns padded to fit. *)
let table ~header rows =
  let all = header :: rows in
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init n_cols width in
  let render_row row =
    rstrip
      (String.concat "  "
         (List.mapi
            (fun c w ->
              let cell = Option.value ~default:"" (List.nth_opt row c) in
              cell ^ String.make (max 0 (w - String.length cell)) ' ')
            widths))
  in
  let sep = rstrip (String.concat "  " (List.map (fun w -> String.make w '-') widths)) in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)

(** Render speedup-vs-threads curves as an ASCII chart.
    [series] is a list of [(name, [(threads, speedup); ...])]. *)
let chart ~max_threads (series : (string * (int * float) list) list) =
  let height = 12 in
  let max_y =
    List.fold_left
      (fun acc (_, pts) -> List.fold_left (fun a (_, s) -> max a s) acc pts)
      1.0 series
  in
  let max_y = ceil (max_y +. 0.5) in
  let marks = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&'; '$'; '~' |] in
  let col_of_thread t = (t - 1) * 6 in
  let width = col_of_thread max_threads + 2 in
  let grid = Array.make_matrix (height + 1) width ' ' in
  List.iteri
    (fun si (_, pts) ->
      let mark = marks.(si mod Array.length marks) in
      List.iter
        (fun (t, s) ->
          if t >= 1 && t <= max_threads then begin
            let row =
              height - int_of_float (Float.round (s /. max_y *. float_of_int height))
            in
            let row = max 0 (min height row) in
            grid.(row).(col_of_thread t) <- mark
          end)
        pts)
    series;
  let buf = Buffer.create 1024 in
  for r = 0 to height do
    let y = float_of_int (height - r) /. float_of_int height *. max_y in
    Buffer.add_string buf (Printf.sprintf "%5.1fx |" y);
    Buffer.add_string buf (rstrip (String.init width (fun c -> grid.(r).(c))));
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf ("       +" ^ String.make width '-' ^ "\n");
  Buffer.add_string buf "        ";
  Buffer.add_string buf
    (rstrip
       (String.concat ""
          (List.init max_threads (fun i ->
               let s = string_of_int (i + 1) in
               s ^ String.make (max 0 (6 - String.length s)) ' '))));
  Buffer.add_string buf "  threads\n";
  List.iteri
    (fun si (name, _) ->
      Buffer.add_string buf
        (Printf.sprintf "   %c = %s\n" marks.(si mod Array.length marks) name))
    series;
  Buffer.contents buf

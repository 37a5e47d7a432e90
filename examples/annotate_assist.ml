(** The paper's Figure 5 feedback loop, as a worked example: compile an
    *unannotated* log-compaction tool, let the compiler report the
    loop-carried dependences that inhibit parallelization at source level
    (with annotation hints), apply the suggested COMMSET pragmas, and
    watch the loop become DOALL-able. *)

module P = Commset_pipeline.Pipeline
module R = Commset_runtime
module T = Commset_transforms
module Report = Commset_report

let n_logs = 48

let replace_all s pat repl =
  let plen = String.length pat in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + plen <= String.length s && String.sub s !i plen = pat then begin
      Buffer.add_string buf repl;
      i := !i + plen
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* a small log-compaction tool: digest each log segment, record it in a
   shared index, note statistics *)
let body =
  {|
void main() {
  int nlogs = %NLOGS%;
  for (int i = 0; i < nlogs; i++) {
    int fd = 0;
    %OPEN%
    {
      fd = fopen("logs/seg" + int_to_string(i));
    }
    string data = "";
    %READ%
    {
      data = fread(fd, 8192);
    }
    string digest = md5_hex(data);
    %INDEX%
    {
      vec_push(digest);
    }
    %STATS%
    {
      stat_add(int_to_float(strlen(data)));
    }
    %CLOSE%
    {
      fclose(fd);
    }
  }
  print("compacted " + int_to_string(vec_size()) + " segments");
}
|}

let instantiate ~annotated =
  let b = replace_all body "%NLOGS%" (string_of_int n_logs) in
  let put hole pragma b = replace_all b hole (if annotated then pragma else "") in
  let b = put "%OPEN%" "#pragma commset member IOSET(i), SELF" b in
  let b = put "%READ%" "#pragma commset member IOSET(i), SELF" b in
  let b = put "%INDEX%" "#pragma commset member SELF" b in
  let b = put "%STATS%" "#pragma commset member SELF" b in
  let b = put "%CLOSE%" "#pragma commset member IOSET(i), SELF" b in
  if annotated then
    "#pragma commset decl IOSET group\n#pragma commset predicate IOSET (i1) (i2) (i1 != i2)"
    ^ b
  else b

let setup m =
  let st = ref 5150 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st
  in
  for i = 0 to n_logs - 1 do
    let contents =
      String.init (2048 + (next () mod 2048)) (fun _ -> Char.chr (33 + (next () mod 90)))
    in
    R.Machine.add_file m (Printf.sprintf "logs/seg%d" i) contents
  done

let () =
  print_endline "=== step 1: compile the unannotated program ===";
  let c0 = P.compile ~name:"log-compact" ~setup (instantiate ~annotated:false) in
  print_endline (Report.Explain.render c0);
  (match P.best c0 ~threads:8 with
  | Some r ->
      Printf.printf "best schedule so far: %s at %.2fx\n" r.P.plan.T.Plan.label r.P.speedup
  | None -> print_endline "no parallel schedule available");

  print_endline "\n=== step 2: apply the suggested COMMSET annotations ===";
  let annotated = instantiate ~annotated:true in
  print_endline annotated;

  print_endline "=== step 3: recompile ===";
  let c1 = P.compile ~name:"log-compact+commset" ~setup annotated in
  print_endline (Report.Explain.render c1);
  List.iter
    (fun (r : P.run) ->
      Printf.printf "  %-40s %5.2fx  %s\n" r.P.plan.T.Plan.label r.P.speedup
        (Commset_exec.Equiv.verdict_to_string r.P.fidelity))
    (Commset_support.Listx.take 3 (P.evaluate c1 ~threads:8))

(** Bring-your-own-program example: a custom miniC checksum tool, written
    inline, annotated with COMMSET pragmas, and pushed through the public
    pipeline API with a custom machine setup.

    The program hashes every report file twice (MD5 plus a cheap rolling
    hash), prints a combined line per file, and appends a summary line to
    an audit log. The audit log builtin is thread-safe (Lib mode), the
    console is not ordered (SELF on the print block), and the file
    operations commute across iterations via a predicated group set. *)

module P = Commset_pipeline.Pipeline
module R = Commset_runtime
module T = Commset_transforms

let n_reports = 64

let source =
  Printf.sprintf
    {|
// checksum every report file and append an audit trail
#pragma commset decl IOSET group
#pragma commset predicate IOSET (i1) (i2) (i1 != i2)

void main() {
  int nfiles = %d;
  for (int i = 0; i < nfiles; i++) {
    string name = "reports/r" + int_to_string(i);
    int fd = 0;
    #pragma commset member IOSET(i), SELF
    {
      fd = fopen(name);
    }
    string data = "";
    bool done = false;
    while (!done) {
      #pragma commset member IOSET(i), SELF
      {
        string chunk = fread(fd, 2048);
        if (strlen(chunk) == 0) {
          done = true;
        } else {
          data = data + chunk;
        }
      }
    }
    string digest = md5_hex(data);
    int rolling = str_hash(data);
    #pragma commset member IOSET(i), SELF
    {
      print(name + " " + digest + " " + int_to_string(rolling));
    }
    #pragma commset member SELF
    {
      log_write(name + " ok");
    }
    #pragma commset member IOSET(i), SELF
    {
      fclose(fd);
    }
  }
  print("audited " + int_to_string(log_count()) + " files");
}
|}
    n_reports

let setup m =
  let st = ref 2024 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st
  in
  for i = 0 to n_reports - 1 do
    (* report sizes vary, which keeps the simulated threads from convoying *)
    let size = 1024 + (next () mod 4096) in
    let body = String.init size (fun _ -> Char.chr (32 + (next () mod 90))) in
    R.Machine.add_file m (Printf.sprintf "reports/r%d" i) body
  done

let () =
  let c = P.compile ~name:"file_digests" ~setup source in
  Printf.printf "file_digests: %d annotations, transforms: %s\n"
    (P.count_annotations source)
    (String.concat ", " (P.applicable_transforms c));
  Printf.printf "sequential: %.0f simulated cycles\n\n" c.P.trace.R.Trace.seq_total;
  List.iter
    (fun threads ->
      match P.best c ~threads with
      | Some r ->
          Printf.printf "  %d threads: best %-36s %5.2fx (%s)\n" threads
            r.P.plan.T.Plan.label r.P.speedup
            (Commset_exec.Equiv.verdict_to_string r.P.fidelity)
      | None -> Printf.printf "  %d threads: no plan\n" threads)
    [ 2; 4; 8 ];
  (* show a slice of the program's real output, from the sequential trace *)
  print_endline "\nfirst three output lines:";
  List.iteri
    (fun i line -> if i < 3 then Printf.printf "  %s\n" line)
    c.P.trace.R.Trace.seq_outputs

(** md5sum — the paper's running example (§2, Figure 1).

    The main loop opens each input file, computes its MD5 digest through
    [mdfile] (whose [fread] block is exported as the named block READB),
    prints the digest, and closes the file. The COMMSET annotations
    reproduce Figure 1:

    - FSET: a Group commset over the fopen / print / fclose blocks,
      predicated on the loop induction variable;
    - each block is also in its own SELF set;
    - READB is enabled into the Self set SSET, predicated on the client's
      induction variable.

    The [deterministic] variant omits SELF on the print block, which
    forces in-order output: DOALL becomes inapplicable and the compiler
    switches to a PS-DSWP pipeline with a sequential print stage —
    exactly the semantic trade-off of paper Figure 3. *)

let n_files = 96
let file_size = 3072

let source_with ~print_self =
  Printf.sprintf
    {|
// md5sum: compute and print a message digest for each input file
#pragma commset decl FSET group
#pragma commset decl SSET self
#pragma commset predicate FSET (i1) (i2) (i1 != i2)
#pragma commset predicate SSET (j1) (j2) (j1 != j2)

#pragma commset namedarg READB
string mdfile(int fd) {
  string data = "";
  bool done = false;
  while (!done) {
    #pragma commset namedblock READB
    {
      string chunk = fread(fd, 1024);
      if (strlen(chunk) == 0) {
        done = true;
      } else {
        data = data + chunk;
      }
    }
  }
  return md5_hex(data);
}

void main() {
  int nfiles = %d;
  for (int i = 0; i < nfiles; i++) {
    int fd = 0;
    #pragma commset member FSET(i), SELF
    {
      fd = fopen("in/file" + int_to_string(i));
    }
    #pragma commset enable mdfile.READB in SSET(i)
    string digest = mdfile(fd);
    #pragma commset member FSET(i)%s
    {
      print(digest + "  in/file" + int_to_string(i));
    }
    #pragma commset member FSET(i), SELF
    {
      fclose(fd);
    }
  }
}
|}
    n_files
    (if print_self then ", SELF" else "")

(* deterministic pseudo-random file contents, (path, contents) in order *)
let files =
  Workload.once (fun () ->
      let st = ref 42 in
      let next () =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st
      in
      Array.init n_files (fun i ->
          let buf = Bytes.create file_size in
          for j = 0 to file_size - 1 do
            Bytes.set buf j (Char.chr (next () land 0xFF))
          done;
          (Printf.sprintf "in/file%d" i, Bytes.unsafe_to_string buf)))

let setup m =
  Array.iter (fun (path, contents) -> Commset_runtime.Machine.add_file m path contents) (files ())

let workload : Workload.t =
  {
    Workload.wname = "md5sum";
    paper_name = "md5sum";
    description = "message digests of a set of input files (paper Figure 1)";
    source = source_with ~print_self:true;
    variants = [ ("deterministic", source_with ~print_self:false) ];
    setup;
    paper_best_scheme = "DOALL + Lib";
    paper_best_speedup = 7.6;
    paper_annotations = 10;
    paper_sloc = 399;
    paper_loop_fraction = 1.0;
    paper_features = [ "PC"; "C"; "S"; "G" ];
    paper_transforms = [ "DOALL"; "PS-DSWP" ];
  }

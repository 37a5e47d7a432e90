(** potrace — bitmap tracing (paper §5.5).

    The code pattern resembles md5sum: read each bitmap, trace it into a
    vector path (pure, heavy), encode and write the output. In the
    primary (multi-output) configuration every image gets its own output
    file and the write block carries a SELF annotation — DOALL applies
    and I/O costs dominate at high thread counts. In the [singlefile]
    variant all images append to one output file: the SELF annotation on
    the write block is omitted to keep sequential output semantics, DOALL
    becomes inapplicable, and PS-DSWP's sequential write stage caps the
    speedup (the paper reports 2.2x). *)

let n_bitmaps = 96
let bitmap_size = 2048

let common_prologue =
  {|
// potrace: vectorize bitmaps into smooth paths
#pragma commset decl FSET group
#pragma commset decl RSET self
#pragma commset predicate FSET (i1) (i2) (i1 != i2)
#pragma commset predicate RSET (r1) (r2) (r1 != r2)
|}

let source_multi =
  Printf.sprintf
    {|%s
void main() {
  int nbitmaps = %d;
  for (int i = 0; i < nbitmaps; i++) {
    string name = "bmp/img" + int_to_string(i);
    string cached = "";
    #pragma commset member FSET(i), SELF
    {
      cached = cache_get(name);
    }
    if (strlen(cached) == 0) {
    int fd = 0;
    #pragma commset member FSET(i), SELF
    {
      fd = fopen(name);
    }
    string data = "";
    bool done = false;
    while (!done) {
      #pragma commset member FSET(i), RSET(i)
      {
        string chunk = fread(fd, 1024);
        if (strlen(chunk) == 0) {
          done = true;
        } else {
          data = data + chunk;
        }
      }
    }
    string path = trace_bitmap(data);
    int out = 0;
    #pragma commset member FSET(i), SELF
    {
      out = fopen("out/img" + int_to_string(i) + ".svg");
    }
    #pragma commset member FSET(i), SELF
    {
      string svg = svg_encode(path);
      fwrite(out, svg);
    }
    #pragma commset member FSET(i), SELF
    {
      fclose(out);
    }
    #pragma commset member FSET(i), SELF
    {
      fclose(fd);
    }
    #pragma commset member FSET(i), SELF
    {
      cache_put(name, path);
    }
    }
  }
}
|}
    common_prologue n_bitmaps

let source_singlefile =
  Printf.sprintf
    {|%s
string chain = "";

void main() {
  int nbitmaps = %d;
  int out = fopen("out/all.svg");
  for (int i = 0; i < nbitmaps; i++) {
    string name = "bmp/img" + int_to_string(i);
    string cached = "";
    #pragma commset member FSET(i), SELF
    {
      cached = cache_get(name);
    }
    if (strlen(cached) == 0) {
    int fd = 0;
    #pragma commset member FSET(i), SELF
    {
      fd = fopen(name);
    }
    string data = "";
    bool done = false;
    while (!done) {
      #pragma commset member FSET(i), RSET(i)
      {
        string chunk = fread(fd, 1024);
        if (strlen(chunk) == 0) {
          done = true;
        } else {
          data = data + chunk;
        }
      }
    }
    string path = trace_bitmap(data);
    // sequential output semantics: the output carries a hash chain over
    // the whole stream, so each record depends on every earlier one
    {
      string svg = svg_encode(path);
      chain = md5_hex(chain + svg);
      fwrite(out, svg + chain);
    }
    #pragma commset member FSET(i), SELF
    {
      fclose(fd);
    }
    #pragma commset member FSET(i), SELF
    {
      cache_put(name, path);
    }
    }
  }
  fclose(out);
}
|}
    common_prologue n_bitmaps

(* deterministic pseudo-random bitmaps, (path, contents) in order *)
let bitmaps =
  Workload.once (fun () ->
      let st = ref 99 in
      let next () =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st
      in
      Array.init n_bitmaps (fun i ->
          let buf = Bytes.init bitmap_size (fun _ -> Char.chr (next () land 0xFF)) in
          (Printf.sprintf "bmp/img%d" i, Bytes.unsafe_to_string buf)))

let setup m =
  Array.iter (fun (path, contents) -> Commset_runtime.Machine.add_file m path contents) (bitmaps ())

let workload : Workload.t =
  {
    Workload.wname = "potrace";
    paper_name = "potrace";
    description = "bitmap tracing with per-image or single-file output";
    source = source_multi;
    variants = [ ("singlefile", source_singlefile) ];
    setup;
    paper_best_scheme = "DOALL + Lib";
    paper_best_speedup = 5.5;
    paper_annotations = 10;
    paper_sloc = 8292;
    paper_loop_fraction = 1.0;
    paper_features = [ "PC"; "C"; "S"; "G" ];
    paper_transforms = [ "DOALL"; "PS-DSWP" ];
  }

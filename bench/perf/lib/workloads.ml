(** The benchmark's workloads. Each is a set of registry programs that
    every phase of a run works on: compiled (with the registry's
    annotation variants), suggested, executed on three engines and
    served by the daemon. The two sets differ in where a program's time
    goes, so an optimisation of one execution path has a workload that
    exercises it and one that bypasses it. *)

type t = {
  name : string;
  why : string;
  programs : string list;  (** registry names, in registry order *)
  serve_mix : (string * int) list;  (** daemon traffic: program, requests per mix block *)
  light_rps : float;
      (** mean offered rate of the latency phase: under a third of the
          daemon's one-worker capacity on this mix, so requests rarely
          queue behind each other *)
}

let compute =
  {
    name = "compute";
    why =
      "hmmer, em3d, kmeans: loop bodies are miniC arithmetic, so interpreter dispatch \
       dominates and compiled bodies run 1.3-2x faster";
    programs = [ "hmmer"; "em3d"; "kmeans" ];
    serve_mix = [ ("hmmer", 1); ("em3d", 1); ("kmeans", 1) ];
    light_rps = 15.;
  }

let builtin =
  {
    name = "builtin";
    why =
      "md5sum, url, geti, potrace: time goes to library builtins (md5, strings, files), \
       so compiled bodies run at parity with the interpreter";
    programs = [ "md5sum"; "geti"; "potrace"; "url" ];
    serve_mix = [ ("url", 1); ("md5sum", 2); ("geti", 1); ("potrace", 1) ];
    light_rps = 25.;
  }

let all = [ compute; builtin ]
let find name = List.find_opt (fun w -> w.name = name) all

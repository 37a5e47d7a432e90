(** Common shape of the eight evaluation workloads (paper Table 2):
    annotated miniC source, optional annotation variants, machine setup,
    and the paper's reported numbers for EXPERIMENTS.md comparisons. *)

type t = {
  wname : string;  (** short name used on the command line *)
  paper_name : string;  (** name in the paper's Table 2 *)
  description : string;
  source : string;  (** primary annotated miniC source *)
  variants : (string * string) list;  (** extra annotation variants (name, source) *)
  setup : Commset_runtime.Machine.t -> unit;
  paper_best_scheme : string;
  paper_best_speedup : float;  (** on eight threads *)
  paper_annotations : int;
  paper_sloc : int;
  paper_loop_fraction : float;
  paper_features : string list;  (** PI/PC/C/I/S/G *)
  paper_transforms : string list;
}

(** [once f] computes [f ()] on its first call and returns that same
    value on every later call, from any domain: a workload builds its
    generated input once per process and every [setup] installs it.
    When two domains race on the first call, both may run [f] and one
    result is kept; both get the kept value. *)
val once : (unit -> 'a) -> unit -> 'a

(** Strip every [#pragma] line: the sequential program the annotations
    decorate (the paper's elision property). *)
val strip_pragmas : string -> string

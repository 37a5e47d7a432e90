(** Common shape of the eight evaluation workloads (paper Table 2).

    Each workload provides its annotated miniC source (sometimes with an
    alternative annotation variant, like md5sum's deterministic-output
    version), a machine setup that generates its input data, and the
    paper's reported numbers for EXPERIMENTS.md comparisons. *)

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
  paper_loop_fraction : float;  (** main-loop share of execution time *)
  paper_features : string list;  (** PI/PC/C/I/S/G *)
  paper_transforms : string list;
}

(** [once f] is [f] computed at most once per process and shared (a
    workload's generated input). Two domains racing on the first call
    may both run [f]; one result is kept and returned to both. Not a
    [Lazy.t]: forcing one lazy value from two domains at once raises. *)
let once f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        let v = f () in
        if Atomic.compare_and_set cell None (Some v) then v else Option.get (Atomic.get cell)

(** Strip every [#pragma] line: the sequential program the annotations
    decorate (used by tests to check pragma-elision semantics). *)
let strip_pragmas source =
  String.split_on_char '\n' source
  |> List.filter (fun line ->
         let l = String.trim line in
         not (String.length l >= 7 && String.sub l 0 7 = "#pragma"))
  |> String.concat "\n"

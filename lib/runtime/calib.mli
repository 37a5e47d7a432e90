(** Persisted per-workload calibration profiles: the feedback loop from
    measured execution attribution back into {!Costmodel}.

    The real engine's attribution summary measures (a) how many
    nanoseconds of wall time one simulated cycle of loop-body work
    actually costs on this machine — interpreter/compiled-code dispatch
    — and (b) how long each builtin's real
    implementation takes per call versus the cycles the cost model
    charges for it. {!of_summary} turns one measured run into a profile;
    {!save} persists it as JSON under [$COMMSET_CALIB_DIR] (default
    [_build/calib]); {!apply} feeds a loaded profile into
    [Costmodel.set_exec_ns_per_cycle] and
    [Costmodel.set_builtin_cost_scales].

    Calibration is strictly opt-in ([commsetc run/stat --calibrate], the
    bench harness's ["exec_profile"] leg): nothing is loaded or applied
    implicitly, so determinism-sensitive paths (byte-identical paper
    tables) are unaffected unless a caller asks. [apply] overrides the
    default scale (it goes through [set_exec_ns_per_cycle]); {!clear}
    restores the default and deactivates the builtin scales. *)

type builtin_calib = {
  cb_name : string;
  cb_calls : int;
  cb_mean_ns : float;  (** measured wall ns per call, net of inner waits *)
  cb_mean_cycles : float;  (** cycles the cost model charged per call *)
  cb_scale : float;
      (** measured-implied cycles / charged cycles, clamped to
          [[0.05, 20.]]; the factor {!apply} installs *)
}

type profile = {
  p_workload : string;
  p_engine : string;
  p_jobs : int;
  p_ns_per_cycle : float;
      (** measured ns of worker compute wall per non-builtin charged
          cycle *)
  p_builtins : builtin_calib list;
  p_predicted : float;  (** predicted speedup at measurement time *)
  p_measured : float;  (** measured speedup at measurement time *)
}

(** Profile directory: [$COMMSET_CALIB_DIR] if set and non-empty, else
    [_build/calib]. *)
val dir : unit -> string

(** [dir ^ "/" ^ workload ^ ".calib.json"] (path separators in the
    workload name are sanitized to ["_"]). *)
val path : workload:string -> string

(** Derive a profile from a measured attribution summary. Returns
    [Error] when the run retired no charged cycles (nothing to
    calibrate on). *)
val of_summary :
  workload:string ->
  engine:string ->
  predicted:float ->
  measured:float ->
  Commset_obs.Attrib.summary ->
  (profile, string) result

val to_json : profile -> string
val of_json : string -> (profile, string) result

(** Write the profile under {!dir} (created if missing); returns the
    path written. *)
val save : profile -> (string, string) result

(** Load the persisted profile for a workload from {!dir}. *)
val load : workload:string -> (profile, string) result

(** Install the profile into {!Costmodel}: [p_ns_per_cycle] via
    [set_exec_ns_per_cycle] and the builtin scales via
    [set_builtin_cost_scales]. *)
val apply : profile -> unit

(** Undo {!apply}: builtin scales cleared, [exec_ns_per_cycle] back to
    the default. *)
val clear : unit -> unit

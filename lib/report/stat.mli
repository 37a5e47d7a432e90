(** Renderers for [commsetc stat] and [commsetc run --format=json]: the
    execution observatory's per-plan attribution report, as aligned
    text tables ({!render_text}) or one strict-JSON document
    ({!render_json}, validated in CI against [ci/stat-schema.json]).

    Both renderers take the same inputs — the executed plans
    ({!Commset_pipeline.Pipeline.exec_run}, whose [xstats.x_attrib]
    carries the attribution summary when the engine produced one) plus
    run context — and surface, per plan: the predicted-vs-measured
    fidelity row, the per-cause time breakdown with p50/p95/p99
    per-iteration quantiles, the per-commset lock-contention table, the
    builtin time table, and coordinator backbone utilization. *)

module P = Commset_pipeline.Pipeline

val render_text :
  workload:string ->
  engine:string ->
  jobs:int ->
  cores:int ->
  P.exec_run list ->
  string

(** Strict JSON (RFC 8259, accepted by {!Commset_obs.Json_strict}):
    [{"workload", "engine_requested", "jobs", "available_cores",
    "oversubscribed", "plans": [...]}] where each plan
    object embeds the full stats record and an ["attribution"] object
    ([null] when the run had none). *)
val render_json :
  workload:string ->
  engine:string ->
  jobs:int ->
  cores:int ->
  P.exec_run list ->
  string

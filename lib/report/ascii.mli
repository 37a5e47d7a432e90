(** Plain-text table and chart rendering for the evaluation reports. *)

(** Render a table: header row plus data rows, columns padded to fit. *)
val table : header:string list -> string list list -> string

(** Render speedup-vs-threads curves as a 12-row ASCII chart; each
    series is a name with [(threads, speedup)] points. *)
val chart : max_threads:int -> (string * (int * float) list) list -> string

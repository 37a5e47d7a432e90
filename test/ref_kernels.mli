(** The straightforward definitions of three string builtins — a
    substring per position for [str_find], a closure per byte for
    [trace_bitmap], a [Printf.sprintf] per byte for [svg_encode] — kept
    as the differential oracle of {!Commset_runtime.Builtins}'
    allocation-free kernels. Each returns the builtin's value and its
    charged cost. *)

val str_find : string -> string -> int * float
val trace_bitmap : string -> string * float
val svg_encode : string -> string * float

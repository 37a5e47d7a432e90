(** Runtime values of the miniC interpreter. *)

type t =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstring of string
  | Varray of t array

(** The shared [Vbool true] and [Vbool false]. The interpreter loops
    ([Precompile]), compiled iteration bodies, [Builtins.bool_v] and
    [Concrete_eval] return one of these two for every comparison,
    logical operator and [!] instead of allocating a fresh one. *)
val vtrue : t

val vfalse : t

val of_const : Commset_ir.Ir.const -> t

(** The [to_*] projections raise a diagnostic naming [what] on a type
    mismatch. *)
val to_int : ?what:string -> t -> int

val to_float : ?what:string -> t -> float
val to_bool : ?what:string -> t -> bool
val to_string_val : ?what:string -> t -> string
val to_array : ?what:string -> t -> t array

(** Structural equality with IEEE float semantics ([Vfloat nan] is not
    equal to itself); arrays compare element-wise. *)
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_display_string : t -> string

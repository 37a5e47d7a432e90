(** Runtime values of the miniC interpreter. *)

module Ir = Commset_ir.Ir
open Commset_support

type t =
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstring of string
  | Varray of t array

(* the two booleans every engine returns, so a comparison allocates
   nothing *)
let vtrue = Vbool true
let vfalse = Vbool false

let of_const = function
  | Ir.Cint n -> Vint n
  | Ir.Cfloat f -> Vfloat f
  | Ir.Cbool b -> Vbool b
  | Ir.Cstring s -> Vstring s

let to_int ?(what = "value") = function
  | Vint n -> n
  | _ -> Diag.error "runtime: %s is not an int" what

let to_float ?(what = "value") = function
  | Vfloat f -> f
  | _ -> Diag.error "runtime: %s is not a float" what

let to_bool ?(what = "value") = function
  | Vbool b -> b
  | _ -> Diag.error "runtime: %s is not a bool" what

let to_string_val ?(what = "value") = function
  | Vstring s -> s
  | _ -> Diag.error "runtime: %s is not a string" what

let to_array ?(what = "value") = function
  | Varray a -> a
  | _ -> Diag.error "runtime: %s is not an array" what

(** Structural equality with IEEE float semantics: [Vfloat nan] is not
    equal to itself (C's [==], and what the miniC type checker admits),
    arrays are compared element-wise, and values of different shapes are
    unequal. Unlike polymorphic [=] this never walks a value's
    representation blindly, so it is safe and fast on deeply nested
    arrays while agreeing with [=] on every constructible value. *)
let rec equal (a : t) (b : t) =
  match (a, b) with
  | Vint x, Vint y -> Int.equal x y
  | Vfloat x, Vfloat y -> x = y
  | Vbool x, Vbool y -> Bool.equal x y
  | Vstring x, Vstring y -> String.equal x y
  | Varray x, Varray y ->
      Array.length x = Array.length y
      &&
      let rec go i = i < 0 || (equal x.(i) y.(i) && go (i - 1)) in
      go (Array.length x - 1)
  | (Vint _ | Vfloat _ | Vbool _ | Vstring _ | Varray _), _ -> false

let rec pp ppf = function
  | Vint n -> Fmt.int ppf n
  | Vfloat f -> Fmt.pf ppf "%g" f
  | Vbool b -> Fmt.bool ppf b
  | Vstring s -> Fmt.pf ppf "%S" s
  | Varray a ->
      Fmt.pf ppf "[|%a|]" Fmt.(list ~sep:(any "; ") pp) (Array.to_list a |> List.filteri (fun i _ -> i < 8))

let to_display_string = function
  | Vint n -> string_of_int n
  | Vfloat f -> Printf.sprintf "%g" f
  | Vbool b -> string_of_bool b
  | Vstring s -> s
  | Varray _ -> "<array>"

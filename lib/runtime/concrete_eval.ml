(** Concrete evaluation of pure COMMSET predicate expressions over runtime
    values — the basis of the speculative (runtime-checked) commutativity
    mode, where a predicate that the symbolic interpreter cannot discharge
    statically is instead evaluated on the actual arguments of two
    dynamic member instances (the paper's §6 future-work direction, and
    what Galois does at runtime). *)

module Ast = Commset_lang.Ast
open Commset_support

type env = (string * Value.t) list

let bool b = if b then Value.vtrue else Value.vfalse

let rec eval (env : env) (e : Ast.expr) : Value.t =
  match e.Ast.edesc with
  | Ast.Int_lit n -> Value.Vint n
  | Ast.Float_lit f -> Value.Vfloat f
  | Ast.Bool_lit b -> bool b
  | Ast.String_lit s -> Value.Vstring s
  | Ast.Var v -> (
      match List.assoc_opt v env with
      | Some value -> value
      | None -> Diag.error "predicate evaluation: unbound parameter '%s'" v)
  | Ast.Unop (Ast.Not, a) -> bool (not (Value.to_bool (eval env a)))
  | Ast.Unop (Ast.Neg, a) -> (
      match eval env a with
      | Value.Vint n -> Value.Vint (-n)
      | Value.Vfloat f -> Value.Vfloat (-.f)
      | _ -> Diag.error "predicate evaluation: '-' on a non-number")
  | Ast.Binop (op, a, b) -> eval_binop env op a b
  | Ast.Call _ | Ast.Index _ ->
      Diag.error "predicate evaluation: impure expression (purity was checked earlier)"

and eval_binop env op a b =
  let va = eval env a and vb = eval env b in
  let open Value in
  match (op, va, vb) with
  | Ast.Add, Vint x, Vint y -> Vint (x + y)
  | Ast.Sub, Vint x, Vint y -> Vint (x - y)
  | Ast.Mul, Vint x, Vint y -> Vint (x * y)
  | Ast.Div, Vint x, Vint y ->
      if y = 0 then Diag.error "predicate evaluation: division by zero" else Vint (x / y)
  | Ast.Mod, Vint x, Vint y ->
      if y = 0 then Diag.error "predicate evaluation: modulo by zero" else Vint (x mod y)
  | Ast.Add, Vfloat x, Vfloat y -> Vfloat (x +. y)
  | Ast.Sub, Vfloat x, Vfloat y -> Vfloat (x -. y)
  | Ast.Mul, Vfloat x, Vfloat y -> Vfloat (x *. y)
  | Ast.Div, Vfloat x, Vfloat y -> Vfloat (x /. y)
  | Ast.Add, Vstring x, Vstring y -> Vstring (x ^ y)
  | Ast.Lt, Vint x, Vint y -> bool (x < y)
  | Ast.Le, Vint x, Vint y -> bool (x <= y)
  | Ast.Gt, Vint x, Vint y -> bool (x > y)
  | Ast.Ge, Vint x, Vint y -> bool (x >= y)
  | Ast.Lt, Vfloat x, Vfloat y -> bool (x < y)
  | Ast.Le, Vfloat x, Vfloat y -> bool (x <= y)
  | Ast.Gt, Vfloat x, Vfloat y -> bool (x > y)
  | Ast.Ge, Vfloat x, Vfloat y -> bool (x >= y)
  | Ast.Eq, x, y -> bool (x = y)
  | Ast.Neq, x, y -> bool (x <> y)
  | Ast.And, Vbool x, Vbool y -> bool (x && y)
  | Ast.Or, Vbool x, Vbool y -> bool (x || y)
  | _ -> Diag.error "predicate evaluation: ill-typed operation"

(** Evaluate a predicate body with the two instances' actuals bound to the
    two parameter lists. *)
let predicate_holds ~params1 ~params2 ~(actuals1 : Value.t list) ~(actuals2 : Value.t list)
    (body : Ast.expr) : bool =
  if List.length params1 <> List.length actuals1 || List.length params2 <> List.length actuals2
  then Diag.error "predicate evaluation: arity mismatch";
  let env = List.combine params1 actuals1 @ List.combine params2 actuals2 in
  Value.to_bool ~what:"predicate result" (eval env body)

(** Three-address intermediate representation.

    A function is a CFG of basic blocks over virtual registers. Commutative
    COMMSET regions are lowered to *whole-block* granularity: entering or
    leaving an annotated source block always starts a fresh basic block, so
    a region is a set of blocks with a unique entry. Every instruction and
    block records the stack of enclosing region ids (innermost first). *)

open Commset_support

type reg = int
type label = int

type const = Cint of int | Cfloat of float | Cbool of bool | Cstring of string

type operand = Reg of reg | Const of const

type ty = Commset_lang.Ast.ty
type binop = Commset_lang.Ast.binop
type unop = Commset_lang.Ast.unop

type instr_desc =
  | Move of reg * operand
  | Binop of binop * ty * reg * operand * operand
      (** [ty] is the operand type (int/float/bool/string) *)
  | Unop of unop * ty * reg * operand
  | Load_global of reg * string
  | Store_global of string * operand
  | Load_index of reg * operand * operand  (** dst, array, index *)
  | Store_index of operand * operand * operand  (** array, index, value *)
  | Call of { dst : reg option; callee : string; args : operand list; enabled : enable list }

(** A named block of [callee] enabled into commsets at this call site
    (the paper's COMMSETNAMEDARGADD). *)
and enable = { en_block : string; en_sets : (string * operand list) list }

(** An [enable] pragma as recorded during lowering, before its predicate
    actuals are evaluated at each call site. *)
type enable_spec = { es_block : string; es_sets : (string * Commset_lang.Ast.expr list) list }

type instr = {
  iid : int;  (** unique within the function *)
  desc : instr_desc;
  iloc : Loc.t;
  iregions : int list;  (** enclosing region ids, innermost first *)
}

type terminator = Jump of label | Branch of operand * label * label | Ret of operand option

type block = {
  label : label;
  mutable instrs : instr list;
  mutable term : terminator;
  mutable bregions : int list;  (** region ids this block belongs to, innermost first *)
}

(** A lowered commutative region (one instance of an annotated source
    block). [rrefs] are the commset references with their actual operands
    evaluated at region entry; ["SELF"] refs were materialized into unique
    self sets by this point of lowering. *)
type region = {
  rid : int;
  rname : string option;  (** name when this is a COMMSETNAMEDBLOCK *)
  rrefs : (string * operand list) list;
  rentry : label;
  rloc : Loc.t;
}

type func = {
  fname : string;
  fparams : (ty * string) list;
  mutable param_regs : reg list;
  fret : ty;
  entry : label;
  blocks : (label, block) Hashtbl.t;
  mutable block_order : label list;  (** creation order; entry first *)
  reg_names : (reg, string) Hashtbl.t;  (** debug names for local-variable registers *)
  reg_types : (reg, ty) Hashtbl.t;
  mutable n_regs : int;
  mutable n_labels : int;
  mutable n_instrs : int;
  mutable fregions : region list;  (** in creation order *)
  mutable loop_locals : (reg * Loc.t) list;
      (** array-typed locals declared inside loops; input to privatization *)
}

type program = {
  funcs : (string, func) Hashtbl.t;
  func_order : string list;
  prog_globals : (string * ty * const) list;  (** name, type, initial value *)
  source : Commset_lang.Ast.program;  (** the typed AST this was lowered from *)
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let block f label = Hashtbl.find f.blocks label
let blocks_in_order f = List.map (block f) f.block_order
let find_func p name = Hashtbl.find_opt p.funcs name

let iter_instrs f g =
  List.iter (fun b -> List.iter (fun i -> g b i) b.instrs) (blocks_in_order f)

let instr_defs i =
  match i.desc with
  | Move (r, _) | Binop (_, _, r, _, _) | Unop (_, _, r, _) | Load_global (r, _)
  | Load_index (r, _, _) ->
      [ r ]
  | Call { dst = Some r; _ } -> [ r ]
  | Call { dst = None; _ } | Store_global _ | Store_index _ -> []

let operand_uses = function Reg r -> [ r ] | Const _ -> []

let instr_uses i =
  match i.desc with
  | Move (_, op) | Unop (_, _, _, op) | Store_global (_, op) -> operand_uses op
  | Binop (_, _, _, a, b) -> operand_uses a @ operand_uses b
  | Load_global _ -> []
  | Load_index (_, a, idx) -> operand_uses a @ operand_uses idx
  | Store_index (a, idx, v) -> operand_uses a @ operand_uses idx @ operand_uses v
  | Call { args; enabled; _ } ->
      List.concat_map operand_uses args
      @ List.concat_map
          (fun e -> List.concat_map (fun (_, ops) -> List.concat_map operand_uses ops) e.en_sets)
          enabled

let term_uses = function
  | Jump _ -> []
  | Branch (op, _, _) -> operand_uses op
  | Ret (Some op) -> operand_uses op
  | Ret None -> []

let successors b =
  match b.term with Jump l -> [ l ] | Branch (_, l1, l2) -> [ l1; l2 ] | Ret _ -> []

let find_region f rid = List.find_opt (fun r -> r.rid = rid) f.fregions

let callee_of i = match i.desc with Call { callee; _ } -> Some callee | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let const_to_string = function
  | Cint n -> string_of_int n
  | Cfloat f -> Printf.sprintf "%g" f
  | Cbool b -> string_of_bool b
  | Cstring s -> Printf.sprintf "%S" s

let operand_to_string f = function
  | Reg r -> (
      match Hashtbl.find_opt f.reg_names r with
      | Some name -> Printf.sprintf "%%%d(%s)" r name
      | None -> Printf.sprintf "%%%d" r)
  | Const c -> const_to_string c

let pp_instr f ppf i =
  let op = operand_to_string f in
  let regions =
    if i.iregions = [] then ""
    else Printf.sprintf "  ; regions %s" (String.concat "," (List.map string_of_int i.iregions))
  in
  (match i.desc with
  | Move (r, o) -> Fmt.pf ppf "%s = %s" (op (Reg r)) (op o)
  | Binop (b, _, r, a, c) ->
      Fmt.pf ppf "%s = %s %s %s" (op (Reg r)) (op a) (Commset_lang.Ast.binop_to_string b) (op c)
  | Unop (u, _, r, a) ->
      Fmt.pf ppf "%s = %s%s" (op (Reg r)) (Commset_lang.Ast.unop_to_string u) (op a)
  | Load_global (r, g) -> Fmt.pf ppf "%s = global %s" (op (Reg r)) g
  | Store_global (g, o) -> Fmt.pf ppf "global %s = %s" g (op o)
  | Load_index (r, a, i') -> Fmt.pf ppf "%s = %s[%s]" (op (Reg r)) (op a) (op i')
  | Store_index (a, i', v) -> Fmt.pf ppf "%s[%s] = %s" (op a) (op i') (op v)
  | Call { dst; callee; args; enabled } ->
      (match dst with Some r -> Fmt.pf ppf "%s = " (op (Reg r)) | None -> ());
      Fmt.pf ppf "call %s(%s)" callee (String.concat ", " (List.map op args));
      List.iter
        (fun e ->
          Fmt.pf ppf " enable[%s in %s]" e.en_block
            (String.concat ", " (List.map fst e.en_sets)))
        enabled);
  Fmt.pf ppf "%s" regions

let pp_terminator f ppf = function
  | Jump l -> Fmt.pf ppf "jump L%d" l
  | Branch (c, l1, l2) -> Fmt.pf ppf "branch %s ? L%d : L%d" (operand_to_string f c) l1 l2
  | Ret None -> Fmt.pf ppf "ret"
  | Ret (Some o) -> Fmt.pf ppf "ret %s" (operand_to_string f o)

let pp_func ppf f =
  Fmt.pf ppf "func %s(%s) : %s {@."
    f.fname
    (String.concat ", "
       (List.map2
          (fun (ty, name) r -> Printf.sprintf "%s %s=%%%d" (Commset_lang.Ast.ty_to_string ty) name r)
          f.fparams f.param_regs))
    (Commset_lang.Ast.ty_to_string f.fret);
  List.iter
    (fun r ->
      Fmt.pf ppf "  region %d%s entry=L%d sets=[%s]@." r.rid
        (match r.rname with Some n -> Printf.sprintf " (%s)" n | None -> "")
        r.rentry
        (String.concat "; " (List.map fst r.rrefs)))
    f.fregions;
  List.iter
    (fun b ->
      Fmt.pf ppf " L%d:%s@." b.label
        (if b.bregions = [] then ""
         else
           Printf.sprintf "  ; regions %s"
             (String.concat "," (List.map string_of_int b.bregions)));
      List.iter (fun i -> Fmt.pf ppf "   %a@." (pp_instr f) i) b.instrs;
      Fmt.pf ppf "   %a@." (pp_terminator f) b.term)
    (blocks_in_order f);
  Fmt.pf ppf "}@."

(** Induction-variable detection and affine classification of operands.

    A *basic* induction variable of a loop is an int register [r] with
    exactly one defining assignment inside the loop of the shape
    [r = r ± c] (through the lowering pattern [t = r ± c; r = t]) whose
    block dominates every latch, so it advances exactly once per
    iteration. Operands are classified as affine functions [mul·iv + add]
    of a basic IV, as loop-invariant, or as unknown — this feeds the
    symbolic commutativity-predicate proof (paper §4.4, Algorithm 1). *)

module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast

type iv = { iv_reg : Ir.reg; step : int }

type classification =
  | Affine of { iv : iv; mul : int; add : int }
  | Invariant
  | Unknown

type t = {
  ivs : iv list;
  func : Ir.func;
  loop : Loops.loop;
  defs_in_loop : (Ir.reg, Ir.instr list) Hashtbl.t;
}

let defs_table func (loop : Loops.loop) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun l ->
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt tbl r) in
              Hashtbl.replace tbl r (cur @ [ i ]))
            (Ir.instr_defs i))
        (Ir.block func l).Ir.instrs)
    loop.Loops.body;
  tbl

(* find the unique instruction defining [r] inside the loop, if unique *)
let unique_def tbl r =
  match Hashtbl.find_opt tbl r with Some [ i ] -> Some i | _ -> None

let compute (func : Ir.func) (cfg : Cfg.t) (dom : Dominance.t) (loop : Loops.loop) : t =
  let tbl = defs_table func loop in
  let block_of_iid = Hashtbl.create 64 in
  List.iter
    (fun l ->
      List.iter
        (fun i -> Hashtbl.replace block_of_iid i.Ir.iid l)
        (Ir.block func l).Ir.instrs)
    loop.Loops.body;
  ignore cfg;
  let is_iv r =
    match unique_def tbl r with
    | Some { Ir.desc = Ir.Move (_, Ir.Reg t); iid; _ } -> (
        (* t must be uniquely defined as r ± const *)
        match unique_def tbl t with
        | Some { Ir.desc = Ir.Binop (op, Ast.Tint, _, Ir.Reg src, Ir.Const (Ir.Cint c)); _ }
          when src = r && (op = Ast.Add || op = Ast.Sub) ->
            let step = if op = Ast.Add then c else -c in
            if step = 0 then None
            else
              (* the update must run every iteration *)
              let blk = Hashtbl.find block_of_iid iid in
              if List.for_all (fun latch -> Dominance.dominates dom blk latch) loop.Loops.latches
              then Some { iv_reg = r; step }
              else None
        | _ -> None)
    | _ -> None
  in
  let candidate_regs =
    Hashtbl.fold (fun r _ acc -> r :: acc) tbl [] |> List.sort_uniq compare
  in
  let ivs = List.filter_map is_iv candidate_regs in
  { ivs; func; loop; defs_in_loop = tbl }

let basic_ivs t = t.ivs

(** Classify an operand's value at a point inside the loop as affine in a
    basic IV, loop-invariant, or unknown. Chains of [Move]/[Binop] through
    uniquely-defined registers are followed up to a small depth. *)
let classify t (op : Ir.operand) : classification =
  let rec go depth op =
    if depth > 8 then Unknown
    else
      match op with
      | Ir.Const _ -> Invariant
      | Ir.Reg r -> (
          match List.find_opt (fun iv -> iv.iv_reg = r) t.ivs with
          | Some iv -> Affine { iv; mul = 1; add = 0 }
          | None -> (
              match Hashtbl.find_opt t.defs_in_loop r with
              | None -> Invariant (* no def inside the loop *)
              | Some [ { Ir.desc = Ir.Move (_, src); _ } ] -> go (depth + 1) src
              | Some [ { Ir.desc = Ir.Binop (bop, Ast.Tint, _, a, b); _ } ] -> (
                  let ca = go (depth + 1) a in
                  let cb = go (depth + 1) b in
                  let const_of o =
                    match o with Ir.Const (Ir.Cint n) -> Some n | _ -> None
                  in
                  match (bop, ca, cb) with
                  | Ast.Add, Affine af, Invariant -> (
                      match const_of b with
                      | Some n -> Affine { af with add = af.add + n }
                      | None -> Unknown)
                  | Ast.Add, Invariant, Affine af -> (
                      match const_of a with
                      | Some n -> Affine { af with add = af.add + n }
                      | None -> Unknown)
                  | Ast.Sub, Affine af, Invariant -> (
                      match const_of b with
                      | Some n -> Affine { af with add = af.add - n }
                      | None -> Unknown)
                  | Ast.Mul, Affine af, Invariant -> (
                      match const_of b with
                      | Some n -> Affine { iv = af.iv; mul = af.mul * n; add = af.add * n }
                      | None -> Unknown)
                  | Ast.Mul, Invariant, Affine af -> (
                      match const_of a with
                      | Some n -> Affine { iv = af.iv; mul = af.mul * n; add = af.add * n }
                      | None -> Unknown)
                  | _, Invariant, Invariant -> Invariant
                  | _ -> Unknown)
              | Some _ -> Unknown))
  in
  go 0 op

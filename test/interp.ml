(** The reference interpreter: a tree-walking evaluator of IR programs
    with cycle accounting and the {!hooks} event stream. It is the
    oracle the prepared engine ({!Precompile}) is differentially tested
    against; no library code runs it. *)

module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast
open Commset_support
open Commset_runtime

type hooks = {
  mutable on_instr : Ir.func -> Ir.instr -> unit;
  mutable on_block : Ir.func -> Ir.label -> unit;
  mutable on_base_cost : float -> unit;
  mutable on_builtin : Builtins.t -> float -> unit;
  mutable on_output : string -> unit;
  mutable on_enter_func : Ir.func -> unit;
  mutable on_exit_func : Ir.func -> unit;
  mutable on_region_enter :
    Ir.func -> Ir.region -> (string * Value.t list) list -> Value.t array -> unit;
  mutable on_call_actuals :
    Ir.instr -> Value.t list -> (string * (string * Value.t list) list) list -> unit;
}

let null_hooks () =
  {
    on_instr = (fun _ _ -> ());
    on_block = (fun _ _ -> ());
    on_base_cost = (fun _ -> ());
    on_builtin = (fun _ _ -> ());
    on_output = (fun _ -> ());
    on_enter_func = (fun _ -> ());
    on_exit_func = (fun _ -> ());
    on_region_enter = (fun _ _ _ _ -> ());
    on_call_actuals = (fun _ _ _ -> ());
  }

type t = {
  prog : Ir.program;
  machine : Machine.t;
  globals : (string, Value.t) Hashtbl.t;
  hooks : hooks;
  region_entries : (string * Ir.label, Ir.region) Hashtbl.t;
      (** (function, label) -> region whose entry block it is *)
  mutable fuel : int;
  mutable total_cost : float;
}

let create ?(hooks = null_hooks ()) ?(fuel = Precompile.default_fuel)
    ?(machine = Machine.create ()) prog =
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (name, _, const) -> Hashtbl.replace globals name (Value.of_const const))
    prog.Ir.prog_globals;
  let region_entries = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fname f ->
      List.iter
        (fun (r : Ir.region) -> Hashtbl.replace region_entries (fname, r.Ir.rentry) r)
        f.Ir.fregions)
    prog.Ir.funcs;
  let t = { prog; machine; globals; hooks; region_entries; fuel; total_cost = 0. } in
  machine.Machine.emit <-
    (fun s ->
      Machine.default_emit machine s;
      t.hooks.on_output s);
  t

let charge t c =
  t.total_cost <- t.total_cost +. c;
  t.hooks.on_base_cost c

(* ------------------------------------------------------------------ *)
(* Operand / operator evaluation                                       *)
(* ------------------------------------------------------------------ *)

let eval_operand regs = function
  | Ir.Const c -> Value.of_const c
  | Ir.Reg r -> regs.(r)

let eval_binop op ty (a : Value.t) (b : Value.t) : Value.t =
  let open Value in
  let bad () = Diag.error "runtime: ill-typed binop" in
  match (op, ty) with
  | Ast.Add, Ast.Tint -> Vint (to_int a + to_int b)
  | Ast.Sub, Ast.Tint -> Vint (to_int a - to_int b)
  | Ast.Mul, Ast.Tint -> Vint (to_int a * to_int b)
  | Ast.Div, Ast.Tint ->
      let d = to_int b in
      if d = 0 then Diag.error ~code:"CS018" "runtime: division by zero"
      else Vint (to_int a / d)
  | Ast.Mod, Ast.Tint ->
      let d = to_int b in
      if d = 0 then Diag.error ~code:"CS018" "runtime: modulo by zero"
      else Vint (to_int a mod d)
  | Ast.Add, Ast.Tfloat -> Vfloat (to_float a +. to_float b)
  | Ast.Sub, Ast.Tfloat -> Vfloat (to_float a -. to_float b)
  | Ast.Mul, Ast.Tfloat -> Vfloat (to_float a *. to_float b)
  | Ast.Div, Ast.Tfloat ->
      let d = to_float b in
      Vfloat (to_float a /. d)
  | Ast.Add, Ast.Tstring -> Vstring (to_string_val a ^ to_string_val b)
  | Ast.Lt, Ast.Tint -> Vbool (to_int a < to_int b)
  | Ast.Le, Ast.Tint -> Vbool (to_int a <= to_int b)
  | Ast.Gt, Ast.Tint -> Vbool (to_int a > to_int b)
  | Ast.Ge, Ast.Tint -> Vbool (to_int a >= to_int b)
  | Ast.Lt, Ast.Tfloat -> Vbool (to_float a < to_float b)
  | Ast.Le, Ast.Tfloat -> Vbool (to_float a <= to_float b)
  | Ast.Gt, Ast.Tfloat -> Vbool (to_float a > to_float b)
  | Ast.Ge, Ast.Tfloat -> Vbool (to_float a >= to_float b)
  | Ast.Lt, Ast.Tstring -> Vbool (to_string_val a < to_string_val b)
  | Ast.Gt, Ast.Tstring -> Vbool (to_string_val a > to_string_val b)
  | Ast.Eq, _ -> Vbool (Value.equal a b)
  | Ast.Neq, _ -> Vbool (not (Value.equal a b))
  | Ast.And, Ast.Tbool -> Vbool (to_bool a && to_bool b)
  | Ast.Or, Ast.Tbool -> Vbool (to_bool a || to_bool b)
  | _ -> bad ()

let eval_unop op (a : Value.t) : Value.t =
  match (op, a) with
  | Ast.Neg, Value.Vint n -> Value.Vint (-n)
  | Ast.Neg, Value.Vfloat f -> Value.Vfloat (-.f)
  | Ast.Not, Value.Vbool x -> Value.Vbool (not x)
  | _ -> Diag.error "runtime: ill-typed unop"

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let rec exec_func t (func : Ir.func) (args : Value.t list) : Value.t option =
  t.hooks.on_enter_func func;
  let result = exec_func_body t func args in
  t.hooks.on_exit_func func;
  result

and exec_func_body t (func : Ir.func) (args : Value.t list) : Value.t option =
  let regs = Array.make (max 1 func.Ir.n_regs) (Value.Vint 0) in
  (* walk params and args in lockstep; extra args are ignored, like a
     C call through a mismatched prototype *)
  let rec bind i params args =
    match (params, args) with
    | [], _ -> ()
    | r :: params, v :: args ->
        regs.(r) <- v;
        bind (i + 1) params args
    | _ :: _, [] -> Diag.error "runtime: missing argument %d of %s" i func.Ir.fname
  in
  bind 0 func.Ir.param_regs args;
  let rec run label =
    (* fuel is also charged per block so empty infinite loops terminate *)
    if t.fuel <= 0 then raise Precompile.Out_of_fuel;
    t.fuel <- t.fuel - 1;
    t.hooks.on_block func label;
    (match Hashtbl.find_opt t.region_entries (func.Ir.fname, label) with
    | Some region ->
        let actuals =
          List.map
            (fun (set, ops) -> (set, List.map (eval_operand regs) ops))
            region.Ir.rrefs
        in
        t.hooks.on_region_enter func region actuals regs
    | None -> ());
    let block = Ir.block func label in
    List.iter (exec_instr t func regs) block.Ir.instrs;
    charge t Costmodel.terminator_cost;
    match block.Ir.term with
    | Ir.Jump l -> run l
    | Ir.Branch (c, l1, l2) ->
        if Value.to_bool ~what:"branch condition" (eval_operand regs c) then run l1 else run l2
    | Ir.Ret vo -> Option.map (eval_operand regs) vo
  in
  run func.Ir.entry

and exec_instr t func regs (i : Ir.instr) =
  if t.fuel <= 0 then raise Precompile.Out_of_fuel;
  t.fuel <- t.fuel - 1;
  t.hooks.on_instr func i;
  charge t (Costmodel.instr_cost i.Ir.desc);
  match i.Ir.desc with
  | Ir.Move (r, op) -> regs.(r) <- eval_operand regs op
  | Ir.Binop (op, ty, r, a, b) ->
      regs.(r) <- eval_binop op ty (eval_operand regs a) (eval_operand regs b)
  | Ir.Unop (op, _, r, a) -> regs.(r) <- eval_unop op (eval_operand regs a)
  | Ir.Load_global (r, g) -> (
      match Hashtbl.find_opt t.globals g with
      | Some v -> regs.(r) <- v
      | None -> Diag.error "runtime: unknown global '%s'" g)
  | Ir.Store_global (g, op) -> Hashtbl.replace t.globals g (eval_operand regs op)
  | Ir.Load_index (r, arr, idx) ->
      let a = Value.to_array ~what:"indexed value" (eval_operand regs arr) in
      let j = Value.to_int ~what:"index" (eval_operand regs idx) in
      if j < 0 || j >= Array.length a then
        Diag.error ~loc:i.Ir.iloc ~code:"CS018" "runtime: index %d out of bounds (length %d)" j
          (Array.length a);
      regs.(r) <- a.(j)
  | Ir.Store_index (arr, idx, v) ->
      let a = Value.to_array ~what:"indexed value" (eval_operand regs arr) in
      let j = Value.to_int ~what:"index" (eval_operand regs idx) in
      if j < 0 || j >= Array.length a then
        Diag.error ~loc:i.Ir.iloc ~code:"CS018" "runtime: index %d out of bounds (length %d)" j
          (Array.length a);
      a.(j) <- eval_operand regs v
  | Ir.Call { dst; callee; args; enabled } -> (
      let argv = List.map (eval_operand regs) args in
      match Builtins.find callee with
      | Some bi ->
          let v, cost = bi.Builtins.impl t.machine argv in
          (* builtin cost is reported through its own hook, not on_base_cost *)
          t.total_cost <- t.total_cost +. cost;
          t.hooks.on_builtin bi cost;
          (match dst with Some r -> regs.(r) <- v | None -> ())
      | None -> (
          match Ir.find_func t.prog callee with
          | Some f -> (
              let en_actuals =
                List.map
                  (fun (e : Ir.enable) ->
                    ( e.Ir.en_block,
                      List.map
                        (fun (set, ops) -> (set, List.map (eval_operand regs) ops))
                        e.Ir.en_sets ))
                  enabled
              in
              t.hooks.on_call_actuals i argv en_actuals;
              let result = exec_func t f argv in
              match (dst, result) with
              | Some r, Some v -> regs.(r) <- v
              | Some r, None -> regs.(r) <- Value.Vint 0
              | None, _ -> ())
          | None -> Diag.error ~loc:i.Ir.iloc "runtime: call to unknown function '%s'" callee))

(** Execute one commutative region of [func] in isolation, starting from
    its entry block with the given register file, and stop as soon as
    control leaves the region's blocks (the single external exit that
    well-formedness guarantees) or the function returns. Used by the
    commutativity sanitizer to replay a traced member instance on a cloned
    machine; deliberately does not re-fire [on_region_enter]. *)
let exec_region t (func : Ir.func) (regs : Value.t array) (region : Ir.region) : unit =
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if List.mem region.Ir.rid b.Ir.bregions then Hashtbl.replace labels b.Ir.label ())
    (Ir.blocks_in_order func);
  let rec run label =
    if Hashtbl.mem labels label then begin
      if t.fuel <= 0 then raise Precompile.Out_of_fuel;
      t.fuel <- t.fuel - 1;
      t.hooks.on_block func label;
      let block = Ir.block func label in
      List.iter (exec_instr t func regs) block.Ir.instrs;
      charge t Costmodel.terminator_cost;
      match block.Ir.term with
      | Ir.Jump l -> run l
      | Ir.Branch (c, l1, l2) ->
          if Value.to_bool ~what:"branch condition" (eval_operand regs c) then run l1
          else run l2
      | Ir.Ret _ -> ()
    end
  in
  run region.Ir.rentry

(** Run [main()] to completion; returns total simulated cycles. *)
let run_main t =
  match Ir.find_func t.prog "main" with
  | Some main ->
      let _ = exec_func t main [] in
      t.total_cost
  | None -> Diag.error "program has no 'main' function"

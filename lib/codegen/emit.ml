(** miniC iteration-body → OCaml source translation.

    Input is {!Commset_runtime.Precompile}'s typed view of the target
    function (the exact region [run_iteration] spans) plus a static
    instruction→PDG-node map. Output is the source of a self-contained
    module whose [iter : Abi.ctx -> Value.t array -> unit] replays one
    iteration with the reference semantics:

    - in-loop blocks become mutually tail-recursive [unit] functions
      closing over the caller's register file; reachable callee
      functions become [Value.t]-returning functions over a fresh frame
      (the [w_nested] contract: builtins intercepted, no node tracking);
    - fuel is charged per block entry and per instruction at the exact
      interpreter points (so [Out_of_fuel] and step totals agree); a
      straight run of simple instructions pays one batched check and
      subtraction when the tank clearly covers it, falling back to the
      per-instruction path — which traps exactly where the interpreter
      would — when it may not; fuel and simulated cycles accumulate in
      locals and reach the worker state through one [ctx.cg_charge] as
      the iteration exits, normally or by an exception (nothing reads
      the worker's totals mid-iteration);
    - node transitions ([ctx.cg_node]) are emitted once per maximal run
      of same-node instructions — the per-instruction [on_instr] of the
      interpreted path collapses to its static boundaries — and a block
      every path enters in its first instruction's node opens without
      one, so a body whose map sends most instructions to -1 pays for
      transitions only where the map changes;
    - operator/trap semantics mirror [prep_binop]/[prep_unop]/
      [prep_instr] case by case, including error message text and
      constant-branch traps; the int, float, array and index reads
      match the expected constructor inline (the prelude's [int_of],
      [float_of], [indexed_of], [index_of]) and call the [Value]
      coercion only to raise its diagnostic.

    The emitted text is deterministic for a given prepared program +
    target + node map: it is the content-hash cache key's preimage. *)

open Commset_support
module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast
module Value = Commset_runtime.Value
module Builtins = Commset_runtime.Builtins
module Costmodel = Commset_runtime.Costmodel
module Precompile = Commset_runtime.Precompile

(** Placeholder the builder substitutes with the content-hash key (the
    hash is over the source containing the placeholder, so the final
    text can embed its own key). *)
let key_marker = "__COMMSET_CODEGEN_KEY__"

exception Unsupported of string

(* ---- literal printing ------------------------------------------------ *)

(* Hex float literals round-trip exactly; the special values have no
   literal syntax and use Stdlib names. *)
let float_lit (f : float) : string =
  if Float.is_nan f then "Stdlib.nan"
  else if f = Float.infinity then "Stdlib.infinity"
  else if f = Float.neg_infinity then "Stdlib.neg_infinity"
  else Printf.sprintf "(%h)" f

let int_lit (n : int) : string = Printf.sprintf "(%d)" n

let value_lit (v : Value.t) : string =
  match v with
  | Value.Vint n -> Printf.sprintf "(V.Vint %s)" (int_lit n)
  | Value.Vfloat f -> Printf.sprintf "(V.Vfloat %s)" (float_lit f)
  | Value.Vbool b -> Printf.sprintf "(V.Vbool %b)" b
  | Value.Vstring s -> Printf.sprintf "(V.Vstring %S)" s
  | Value.Varray _ -> raise (Unsupported "array-valued constant")

(* ---- emission state -------------------------------------------------- *)

type pools = {
  mutable p_bindings : (string * string) list;  (** name, expr — reversed *)
  consts : (Ir.const, string) Hashtbl.t;
  builtins : (string, string) Hashtbl.t;
  locs : (Loc.t, string) Hashtbl.t;
  mutable next : int;
}

let fresh_name pools prefix =
  let n = Printf.sprintf "%s%d" prefix pools.next in
  pools.next <- pools.next + 1;
  n

let bind pools prefix expr =
  let n = fresh_name pools prefix in
  pools.p_bindings <- (n, expr) :: pools.p_bindings;
  n

let const_name pools (c : Ir.const) : string =
  match Hashtbl.find_opt pools.consts c with
  | Some n -> n
  | None ->
      let expr =
        match c with
        | Ir.Cint n -> Printf.sprintf "V.Vint %s" (int_lit n)
        | Ir.Cfloat f -> Printf.sprintf "V.Vfloat %s" (float_lit f)
        | Ir.Cbool b -> Printf.sprintf "V.Vbool %b" b
        | Ir.Cstring s -> Printf.sprintf "V.Vstring %S" s
      in
      let n = bind pools "k" expr in
      Hashtbl.replace pools.consts c n;
      n

let builtin_name pools (name : string) : string =
  match Hashtbl.find_opt pools.builtins name with
  | Some n -> n
  | None ->
      let n = bind pools "b" (Printf.sprintf "B.find_exn %S" name) in
      Hashtbl.replace pools.builtins name n;
      n

let loc_name pools (loc : Loc.t) : string =
  match Hashtbl.find_opt pools.locs loc with
  | Some n -> n
  | None ->
      let expr =
        if Loc.is_dummy loc then "L.dummy"
        else
          let pos (p : Loc.position) =
            Printf.sprintf "(L.position ~line:%d ~col:%d ~offset:%d)" p.Loc.line
              p.Loc.col p.Loc.offset
          in
          Printf.sprintf "L.make ~file:%S ~start_pos:%s ~end_pos:%s" loc.Loc.file
            (pos loc.Loc.start_pos) (pos loc.Loc.end_pos)
      in
      let n = bind pools "loc" expr in
      Hashtbl.replace pools.locs loc n;
      n

(* ---- operand expressions -------------------------------------------- *)

(* Value expression of an operand; register reads use the local frame
   binding [regs] (the closed-over iteration frame in target blocks, the
   function parameter in nested functions — same identifier in both). *)
let ov pools = function
  | Ir.Reg r -> Printf.sprintf "regs.(%d)" r
  | Ir.Const c -> const_name pools c

(* Coerced operand expressions. A constant of the matching constructor
   folds to an OCaml literal (the coercion is the identity there); any
   other operand goes through the prelude's inlined read, which traps
   through the [Value] coercion the interpreter applies, with the same
   message. *)
let oi pools = function
  | Ir.Const (Ir.Cint n) -> int_lit n
  | o -> Printf.sprintf "(int_of %s)" (ov pools o)

let of_ pools = function
  | Ir.Const (Ir.Cfloat f) -> float_lit f
  | o -> Printf.sprintf "(float_of %s)" (ov pools o)

let os pools = function
  | Ir.Const (Ir.Cstring s) -> Printf.sprintf "%S" s
  | o -> Printf.sprintf "(V.to_string_val %s)" (ov pools o)

let ob pools = function
  | Ir.Const (Ir.Cbool b) -> Printf.sprintf "%b" b
  | o -> Printf.sprintf "(V.to_bool %s)" (ov pools o)

(* ---- instruction bodies ---------------------------------------------- *)

(* A boolean result: one of [Value]'s two shared values, never a fresh
   [Vbool]. *)
let vbool cond = Printf.sprintf "(if %s then V.vtrue else V.vfalse)" cond

(* The (op, ty) table of [Precompile.prep_binop], emitted case by case. *)
let binop_expr pools op ty a b : string =
  let i = oi pools and f = of_ pools and s = os pools and bl = ob pools in
  let v = ov pools in
  match (op, ty) with
  | Ast.Add, Ast.Tint -> Printf.sprintf "V.Vint (%s + %s)" (i a) (i b)
  | Ast.Sub, Ast.Tint -> Printf.sprintf "V.Vint (%s - %s)" (i a) (i b)
  | Ast.Mul, Ast.Tint -> Printf.sprintf "V.Vint (%s * %s)" (i a) (i b)
  | Ast.Div, Ast.Tint ->
      Printf.sprintf
        "(let d = %s in if d = 0 then D.error ~code:\"CS018\" \"runtime: division by \
         zero\" else V.Vint (%s / d))"
        (i b) (i a)
  | Ast.Mod, Ast.Tint ->
      Printf.sprintf
        "(let d = %s in if d = 0 then D.error ~code:\"CS018\" \"runtime: modulo by \
         zero\" else V.Vint (%s mod d))"
        (i b) (i a)
  | Ast.Add, Ast.Tfloat -> Printf.sprintf "V.Vfloat (%s +. %s)" (f a) (f b)
  | Ast.Sub, Ast.Tfloat -> Printf.sprintf "V.Vfloat (%s -. %s)" (f a) (f b)
  | Ast.Mul, Ast.Tfloat -> Printf.sprintf "V.Vfloat (%s *. %s)" (f a) (f b)
  | Ast.Div, Ast.Tfloat -> Printf.sprintf "V.Vfloat (%s /. %s)" (f a) (f b)
  | Ast.Add, Ast.Tstring -> Printf.sprintf "V.Vstring (%s ^ %s)" (s a) (s b)
  | Ast.Lt, Ast.Tint -> vbool (Printf.sprintf "%s < %s" (i a) (i b))
  | Ast.Le, Ast.Tint -> vbool (Printf.sprintf "%s <= %s" (i a) (i b))
  | Ast.Gt, Ast.Tint -> vbool (Printf.sprintf "%s > %s" (i a) (i b))
  | Ast.Ge, Ast.Tint -> vbool (Printf.sprintf "%s >= %s" (i a) (i b))
  | Ast.Lt, Ast.Tfloat -> vbool (Printf.sprintf "%s < %s" (f a) (f b))
  | Ast.Le, Ast.Tfloat -> vbool (Printf.sprintf "%s <= %s" (f a) (f b))
  | Ast.Gt, Ast.Tfloat -> vbool (Printf.sprintf "%s > %s" (f a) (f b))
  | Ast.Ge, Ast.Tfloat -> vbool (Printf.sprintf "%s >= %s" (f a) (f b))
  | Ast.Lt, Ast.Tstring -> vbool (Printf.sprintf "%s < %s" (s a) (s b))
  | Ast.Gt, Ast.Tstring -> vbool (Printf.sprintf "%s > %s" (s a) (s b))
  | Ast.Eq, _ -> vbool (Printf.sprintf "V.equal %s %s" (v a) (v b))
  | Ast.Neq, _ -> vbool (Printf.sprintf "not (V.equal %s %s)" (v a) (v b))
  | Ast.And, Ast.Tbool -> vbool (Printf.sprintf "%s && %s" (bl a) (bl b))
  | Ast.Or, Ast.Tbool -> vbool (Printf.sprintf "%s || %s" (bl a) (bl b))
  | _ -> "(D.error \"runtime: ill-typed binop\")"

let unop_expr pools op a : string =
  match op with
  | Ast.Neg ->
      Printf.sprintf
        "(match %s with V.Vint n -> V.Vint (-n) | V.Vfloat f -> V.Vfloat (-.f) | _ \
         -> D.error \"runtime: ill-typed unop\")"
        (ov pools a)
  | Ast.Not ->
      Printf.sprintf
        "(match %s with V.Vbool x -> %s | _ -> D.error \"runtime: ill-typed unop\")"
        (ov pools a) (vbool "not x")

(* ---- the emitter ------------------------------------------------------ *)

type callee = { cl_fn : string; cl_view : Precompile.view_func }

type env = {
  pools : pools;
  prepared : Precompile.t;
  buf : Buffer.t;
  callees : (string, callee) Hashtbl.t;  (** user function name → emitted id *)
  mutable callee_order : string list;  (** reversed discovery order *)
}

let line env fmt = Printf.ksprintf (fun s -> Buffer.add_string env.buf (s ^ "\n")) fmt

(* Resolve a call like prep_instr: builtin name wins, then user
   function, else a trap site. *)
type resolved = Rbuiltin of string | Ruser of callee | Runknown

let resolve_callee env name =
  match Builtins.find name with
  | Some _ -> Rbuiltin name
  | None -> (
      match Hashtbl.find_opt env.callees name with
      | Some c -> Ruser c
      | None -> (
          match Precompile.view_func env.prepared name with
          | Some view ->
              let c =
                { cl_fn = Printf.sprintf "fn%d" (Hashtbl.length env.callees); cl_view = view }
              in
              Hashtbl.replace env.callees name c;
              env.callee_order <- name :: env.callee_order;
              Ruser c
          | None -> Runknown))

let step_stmt = "if !fuel <= 0 then raise Commset_runtime.Precompile.Out_of_fuel; decr fuel;"

(* [pc] is a one-element float array so accumulating simulated cycles
   never boxes (a [float ref] allocates on every update). *)
let charge_stmt cost = Printf.sprintf "pc.(0) <- pc.(0) +. %s;" (float_lit cost)

(* One call instruction: fuel + own static cost, then the builtin
   dispatch through ctx or the user-call frame setup. *)
let emit_call env ~ind ~cost (i : Ir.instr) =
  match i.Ir.desc with
  | Ir.Call { dst; callee; args; enabled = _ } -> (
      line env "%s%s" ind step_stmt;
      line env "%s%s" ind (charge_stmt cost);
      match resolve_callee env callee with
      | Rbuiltin name ->
          let argv = String.concat "; " (List.map (ov env.pools) args) in
          let has_dst = match dst with Some _ -> true | None -> false in
          line env
            "%s(let (v, c) = ctx.A.cg_builtin %s [%s] ~has_dst:%b in pc.(0) <- pc.(0) +. c; %s);"
            ind
            (builtin_name env.pools callee)
            argv has_dst
            (match dst with
            | Some r -> Printf.sprintf "regs.(%d) <- v" r
            | None -> "ignore v");
          ignore name
      | Ruser c ->
          let np = Array.length c.cl_view.Precompile.vf_params in
          let nargs = List.length args in
          if nargs < np then
            line env "%sD.error \"runtime: missing argument %d of %s\";" ind nargs callee
          else begin
            line env "%s(let cr = Array.make %d (V.Vint 0) in" ind
              c.cl_view.Precompile.vf_nregs;
            List.iteri
              (fun j a ->
                if j < np then
                  line env "%s cr.(%d) <- %s;" ind
                    c.cl_view.Precompile.vf_params.(j)
                    (ov env.pools a))
              args;
            match dst with
            | Some r -> line env "%s regs.(%d) <- %s cr);" ind r c.cl_fn
            | None -> line env "%s ignore (%s cr));" ind c.cl_fn
          end
      | Runknown ->
          line env "%sD.error ~loc:%s \"runtime: call to unknown function '%s'\";" ind
            (loc_name env.pools i.Ir.iloc)
            callee)
  | _ -> assert false

(* A non-call instruction as one unit statement (same trap text and
   coercion order as prep_instr). *)
let simple_stmt env (i : Ir.instr) : string =
  let pools = env.pools in
  match i.Ir.desc with
  | Ir.Move (r, op) -> Printf.sprintf "regs.(%d) <- %s;" r (ov pools op)
  | Ir.Binop (op, ty, r, a, b) ->
      Printf.sprintf "regs.(%d) <- %s;" r (binop_expr pools op ty a b)
  | Ir.Unop (op, _, r, a) -> Printf.sprintf "regs.(%d) <- %s;" r (unop_expr pools op a)
  | Ir.Load_global (r, g) -> (
      match Precompile.global_slot env.prepared g with
      | Some slot when Precompile.global_declared env.prepared g ->
          Printf.sprintf "regs.(%d) <- gl.(%d);" r slot
      | Some slot ->
          Printf.sprintf
            "regs.(%d) <- (if gld.(%d) then gl.(%d) else D.error \"runtime: unknown \
             global '%s'\");"
            r slot slot g
      | None -> Printf.sprintf "regs.(%d) <- D.error \"runtime: unknown global '%s'\";" r g)
  | Ir.Store_global (g, op) -> (
      match Precompile.global_slot env.prepared g with
      | None -> raise (Unsupported ("stored global without a slot: " ^ g))
      | Some slot ->
          if Precompile.global_declared env.prepared g then
            Printf.sprintf "gl.(%d) <- %s;" slot (ov pools op)
          else
            Printf.sprintf "gl.(%d) <- %s; gld.(%d) <- true;" slot (ov pools op) slot)
  | Ir.Load_index (r, arr, idx) ->
      Printf.sprintf
        "(let a = indexed_of %s in let j = index_of %s in if j < 0 || j >= \
         Array.length a then D.error ~loc:%s ~code:\"CS018\" \"runtime: index %%d out \
         of bounds (length %%d)\" j (Array.length a); regs.(%d) <- a.(j));"
        (ov pools arr) (ov pools idx)
        (loc_name pools i.Ir.iloc)
        r
  | Ir.Store_index (arr, idx, v) ->
      Printf.sprintf
        "(let a = indexed_of %s in let j = index_of %s in if j < 0 || j >= \
         Array.length a then D.error ~loc:%s ~code:\"CS018\" \"runtime: index %%d out \
         of bounds (length %%d)\" j (Array.length a); a.(j) <- %s);"
        (ov pools arr) (ov pools idx)
        (loc_name pools i.Ir.iloc)
        (ov pools v)
  | Ir.Call _ -> assert false

(* Emit a block's instruction sequence. [node_of] present = target
   depth (node boundaries emitted, starting from [entry_nid], the node
   the worker is known to be in at block entry; [min_int] = unknown);
   absent = nested depth. Straight runs of non-call instructions charge
   their summed static cost once, then step+execute per instruction. *)
let emit_instrs env ~ind ~(node_of : (int -> int) option) ?(entry_nid = min_int)
    (vb : Precompile.view_block) =
  let instrs = vb.Precompile.vb_instrs and costs = vb.Precompile.vb_costs in
  let pending = ref [] (* (instr, cost) reversed *) in
  let flush_pending () =
    match List.rev !pending with
    | [] -> ()
    | ps ->
        let total = List.fold_left (fun acc (_, c) -> acc +. c) 0. ps in
        if total <> 0. then line env "%s%s" ind (charge_stmt total);
        (* A straight run of n simple instructions consumes exactly n
           fuel and none of them observes the counter, so the common
           case pays one check and one subtraction; only a nearly-dry
           tank takes the per-instruction path, which traps at the
           exact same instruction the interpreter would. *)
        let n = List.length ps in
        if n = 1 then
          List.iter
            (fun (i, _) ->
              line env "%s%s" ind step_stmt;
              line env "%s%s" ind (simple_stmt env i))
            ps
        else begin
          line env "%sif !fuel >= %d then begin fuel := !fuel - %d;" ind n n;
          List.iter (fun (i, _) -> line env "%s  %s" ind (simple_stmt env i)) ps;
          line env "%send else begin" ind;
          List.iter
            (fun (i, _) ->
              line env "%s  %s" ind step_stmt;
              line env "%s  %s" ind (simple_stmt env i))
            ps;
          line env "%send;" ind
        end;
        pending := []
  in
  let prev_nid = ref entry_nid in
  Array.iteri
    (fun k (i : Ir.instr) ->
      (match node_of with
      | Some nid_of ->
          let nid = nid_of i.Ir.iid in
          if nid <> !prev_nid then begin
            flush_pending ();
            line env "%sctx.A.cg_node (%d);" ind nid;
            prev_nid := nid
          end
      | None -> ());
      match i.Ir.desc with
      | Ir.Call _ ->
          flush_pending ();
          emit_call env ~ind ~cost:costs.(k) i
      | _ -> pending := (i, costs.(k)) :: !pending)
    instrs;
  flush_pending ()

(* The node a worker is in when each target block starts, where every
   path into the block agrees: an iteration starts in no node (-1), a
   block with instructions leaves its last instruction's node, and an
   empty block passes on the node it was entered in. [min_int] marks a
   block whose paths disagree (or that is unreachable); it opens with a
   transition. *)
type entry = Unseen | At of int | Mixed

let entry_nodes ~(blocks : Precompile.view_block array) ~header ~in_loop ~body_entry
    ~(nid_of_iid : int -> int) : int array =
  let n = Array.length blocks in
  let target b = b <> header && b >= 0 && b < n && b < Array.length in_loop && in_loop.(b) in
  let st = Array.make n Unseen in
  let join b v =
    let v' =
      match (st.(b), v) with
      | Unseen, v -> v
      | At a, At c when a = c -> At a
      | _ -> Mixed
    in
    if v' = st.(b) then false
    else begin
      st.(b) <- v';
      true
    end
  in
  if target body_entry then ignore (join body_entry (At (-1)));
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun b (vb : Precompile.view_block) ->
        if target b && st.(b) <> Unseen then begin
          let k = Array.length vb.Precompile.vb_instrs in
          let out =
            if k = 0 then st.(b) else At (nid_of_iid vb.Precompile.vb_instrs.(k - 1).Ir.iid)
          in
          let succs =
            match vb.Precompile.vb_term with
            | Precompile.Vjump j -> [ j ]
            | Precompile.Vbranch (_, l1, l2) -> [ l1; l2 ]
            | _ -> []
          in
          List.iter (fun s -> if target s && join s out then changed := true) succs
        end)
      blocks
  done;
  Array.map (function At nid -> nid | Unseen | Mixed -> min_int) st

let terminator_charge env ~ind =
  line env "%s%s" ind (charge_stmt Costmodel.terminator_cost)

(* Target-depth transfer: the continue_to of run_iteration, resolved
   statically per edge. *)
let target_go ~header ~in_loop tgt : string =
  if tgt = header then "()"
  else if tgt >= 0 && tgt < Array.length in_loop && in_loop.(tgt) then
    Printf.sprintf "tb%d ()" tgt
  else "D.error \"real-exec: iteration escaped the target loop\""

let emit_target_term env ~ind ~header ~in_loop (vb : Precompile.view_block) =
  terminator_charge env ~ind;
  let go = target_go ~header ~in_loop in
  match vb.Precompile.vb_term with
  | Precompile.Vjump j -> line env "%s%s" ind (go j)
  | Precompile.Vbranch (c, l1, l2) ->
      line env
        "%s(match regs.(%d) with V.Vbool true -> %s | V.Vbool false -> %s | v -> \
         ignore (V.to_bool ~what:\"branch condition\" v); assert false)"
        ind c (go l1) (go l2)
  | Precompile.Vbranch_const v ->
      line env "%signore (V.to_bool ~what:\"branch condition\" %s); assert false" ind
        (value_lit v)
  | Precompile.Vret_reg _ | Precompile.Vret_const _ | Precompile.Vret_none ->
      line env "%sD.error \"real-exec: iteration returned out of the target loop\"" ind

(* Nested-depth transfer: whole-function w_nested semantics. A jump to
   a label with no block charges block-entry fuel then raises Not_found
   like [Ir.block]. *)
let nested_go (c : callee) tgt : string =
  if tgt >= 0 then Printf.sprintf "%sb%d regs" c.cl_fn tgt
  else
    Printf.sprintf "(%s raise Stdlib.Not_found)"
      "if !fuel <= 0 then raise Commset_runtime.Precompile.Out_of_fuel; decr fuel;"

let emit_nested_term env ~ind (c : callee) (vb : Precompile.view_block) =
  terminator_charge env ~ind;
  let go = nested_go c in
  match vb.Precompile.vb_term with
  | Precompile.Vjump j -> line env "%s%s" ind (go j)
  | Precompile.Vbranch (cr, l1, l2) ->
      line env
        "%s(match regs.(%d) with V.Vbool true -> %s | V.Vbool false -> %s | v -> \
         ignore (V.to_bool ~what:\"branch condition\" v); assert false)"
        ind cr (go l1) (go l2)
  | Precompile.Vbranch_const v ->
      line env "%signore (V.to_bool ~what:\"branch condition\" %s); assert false" ind
        (value_lit v)
  | Precompile.Vret_reg r -> line env "%sregs.(%d)" ind r
  | Precompile.Vret_const v -> line env "%s%s" ind (value_lit v)
  | Precompile.Vret_none -> line env "%sV.Vint 0" ind

(** Translate; returns the module source with {!key_marker} in place of
    the content key, or [Error reason] for an unsupported shape. *)
let emit ~(prepared : Precompile.t) ~(rt : Precompile.rtarget)
    ~(nid_of_iid : int -> int) () : (string, string) result =
  try
    let view = Precompile.rtarget_view rt in
    let header = Precompile.rtarget_header rt in
    let body_entry = Precompile.rtarget_body_entry rt in
    let in_loop = Precompile.rtarget_in_loop rt in
    let env =
      {
        pools =
          {
            p_bindings = [];
            consts = Hashtbl.create 16;
            builtins = Hashtbl.create 16;
            locs = Hashtbl.create 16;
            next = 0;
          };
        prepared;
        buf = Buffer.create 8192;
        callees = Hashtbl.create 8;
        callee_order = [];
      }
    in
    (* target blocks: every in-loop block except the header (continue_to
       returns before entering it) *)
    let blocks = view.Precompile.vf_blocks in
    let entry = entry_nodes ~blocks ~header ~in_loop ~body_entry ~nid_of_iid in
    let first = ref true in
    Array.iteri
      (fun bi (vb : Precompile.view_block) ->
        if bi <> header && bi < Array.length in_loop && in_loop.(bi) then begin
          line env "  %s tb%d () : unit =" (if !first then "let rec" else "and") bi;
          first := false;
          line env "    %s" step_stmt;
          emit_instrs env ~ind:"    " ~node_of:(Some nid_of_iid) ~entry_nid:entry.(bi) vb;
          emit_target_term env ~ind:"    " ~header ~in_loop vb
        end)
      blocks;
    if !first then raise (Unsupported "target loop has no body blocks");
    (* nested callees, discovered while emitting target blocks and each
       other; the worklist grows through resolve_callee *)
    let emitted = Hashtbl.create 8 in
    let rec drain () =
      let todo =
        List.rev
          (List.filter (fun n -> not (Hashtbl.mem emitted n)) env.callee_order)
      in
      match todo with
      | [] -> ()
      | names ->
          List.iter
            (fun name ->
              Hashtbl.replace emitted name ();
              let c = Hashtbl.find env.callees name in
              let v = c.cl_view in
              line env "  and %s (regs : V.t array) : V.t = %sb%d regs" c.cl_fn c.cl_fn
                v.Precompile.vf_entry;
              Array.iteri
                (fun bi vb ->
                  line env "  and %sb%d (regs : V.t array) : V.t =" c.cl_fn bi;
                  line env "    %s" step_stmt;
                  emit_instrs env ~ind:"    " ~node_of:None vb;
                  emit_nested_term env ~ind:"    " c vb)
                v.Precompile.vf_blocks)
            names;
          drain ()
    in
    drain ();
    line env "  in";
    line env "  (try tb%d () with e -> flush (); raise e);" body_entry;
    line env "  flush ()";
    (* assemble: header, pools, iter, registration *)
    let out = Buffer.create (Buffer.length env.buf + 2048) in
    Buffer.add_string out
      (Printf.sprintf
         "(* generated by commset codegen (abi v%d): fn=%s header=%d entry=%d *)\n"
         Abi.abi_version view.Precompile.vf_name header body_entry);
    Buffer.add_string out "[@@@warning \"-a\"]\n";
    Buffer.add_string out "module V = Commset_runtime.Value\n";
    Buffer.add_string out "module B = Commset_runtime.Builtins\n";
    Buffer.add_string out "module A = Commset_codegen.Abi\n";
    Buffer.add_string out "module D = Commset_support.Diag\n";
    Buffer.add_string out "module L = Commset_support.Loc\n";
    (* local so that they inline: the runtime library may be compiled
       [-opaque], and then no [Value] function inlines into this unit *)
    List.iter
      (fun l -> Buffer.add_string out (l ^ "\n"))
      [
        "let[@inline] int_of = function V.Vint n -> n | v -> V.to_int v";
        "let[@inline] float_of = function V.Vfloat f -> f | v -> V.to_float v";
        "let[@inline] indexed_of = function";
        "  | V.Varray a -> a | v -> V.to_array ~what:\"indexed value\" v";
        "let[@inline] index_of = function V.Vint n -> n | v -> V.to_int ~what:\"index\" v";
      ];
    List.iter
      (fun (n, e) -> Buffer.add_string out (Printf.sprintf "let %s = %s\n" n e))
      (List.rev env.pools.p_bindings);
    Buffer.add_string out "let iter (ctx : A.ctx) (regs : V.t array) : unit =\n";
    Buffer.add_string out "  let gl = ctx.A.cg_globals in\n";
    Buffer.add_string out "  let gld = ctx.A.cg_gdefined in\n";
    Buffer.add_string out "  ignore gl; ignore gld;\n";
    Buffer.add_string out "  let fuel = ref (ctx.A.cg_fuel_left ()) in\n";
    Buffer.add_string out "  let f0 = ref !fuel in\n";
    Buffer.add_string out "  let pc = [| 0.0 |] in\n";
    Buffer.add_string out "  let flush () =\n";
    Buffer.add_string out "    let s = !f0 - !fuel in\n";
    Buffer.add_string out "    if s <> 0 || pc.(0) <> 0.0 then begin\n";
    Buffer.add_string out "      ctx.A.cg_charge ~steps:s ~cost:pc.(0);\n";
    Buffer.add_string out "      f0 := !fuel; pc.(0) <- 0.0\n";
    Buffer.add_string out "    end\n";
    Buffer.add_string out "  in\n";
    Buffer.add_buffer out env.buf;
    Buffer.add_string out
      (Printf.sprintf "let () = A.register ~version:%d ~key:\"%s\" iter\n"
         Abi.abi_version key_marker);
    Ok (Buffer.contents out)
  with Unsupported reason -> Error ("uncompilable body: " ^ reason)

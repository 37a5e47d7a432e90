(** Prepared-program execution layer: a one-time pass that resolves an
    {!Ir.program} into an array-indexed, closure-threaded form, and the
    interpreter loops over it.

    What the prepare pass specializes away from a tree-walking
    interpreter's hot loop:

    - block lookup: labels become dense array indices, terminators jump
      to pre-resolved indices (no [Hashtbl.find] per block);
    - commutative region entries: the [(function, label) -> region]
      table becomes a per-block field with the region's commset actuals
      compiled, evaluated only for an observed run that asks for them;
    - operand access: [Const] operands become pre-built {!Value.t}
      shares, [Reg] operands become direct [regs.(i)] reads;
    - operator dispatch: the [(op, ty)] match happens once at prepare
      time, leaving a direct two-argument function; a binop whose left
      operand is a register and whose right operand is a register or a
      constant reads both in place and calls that function directly;
    - booleans: every comparison, logical operator and [!] returns one
      of the two shared {!Value.vtrue}/{!Value.vfalse};
    - callee resolution: the builtin-vs-user split happens at prepare
      time; user calls bind arguments straight into the callee's fresh
      register file with no intermediate list;
    - global variables: names become dense array slots (a declared
      global's load is one array read);
    - cost accounting: {!Costmodel.instr_cost} is precomputed per
      instruction into a flat float array, charged in reference order,
      so total cycles are bit-identical (float addition is not
      associative — per-block batching would drift); the running total
      lives in a float-only record, so a charge is a load, an add and a
      store, with no allocation and no write barrier.

    Two instruction loops run over the prepared form:

    - the fast loop ([f_run]) carries every run: [run_main], the
      compile-time recorders' observed runs ([run_observed]), the real
      engine's coordinator ([run_main_real]), workers' nested calls and
      the verifier's replay entries. What a run observes comes from an
      optional per-state {!probe}, consulted once per block entry and
      once per call, and from an optional per-state builtin dispatch;
      neither is looked at per instruction. An {!observer} hears block
      entries, calls, returns and builtins with their costs (outputs
      come through {!Machine.emit}); region and call actuals are
      evaluated only if it asks, inside the probe, so an unobserved run
      does no work for them;
    - [run_iteration]'s target-depth loop, whose per-instruction
      [on_instr] is fixed by its signature.

    Per instruction the fast loop makes one closure call (a binop adds
    its operator's) and one running-total charge. What it still
    allocates is every [int] or [float] result (a boxed {!Value.t}) and,
    per builtin call, the argument list and the result pair.

    Behavioural contract, relied on by the differential tests against
    the reference interpreter kept in [test/]: for any program, outputs,
    total cycles, diagnostics, and the observed events are identical to
    the reference's. Runtime failures raise the same {!Diag.Error}s at
    the same point (division or modulo by zero and an index out of
    bounds carry CS018); fuel is charged per instruction and per block
    exactly like the reference, so {!Out_of_fuel} fires at the same
    execution point. *)

module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast
open Commset_support
module Metrics = Commset_obs.Metrics

(* "instructions retired" falls out of the existing fuel accounting —
   fuel is decremented once per block entry and once per instruction, so
   [initial fuel - remaining fuel] counts steps with zero added cost on
   the per-instruction hot path; totals are flushed once per run *)
let m_steps =
  Metrics.counter ~doc:"interpreter steps retired (block entries + instructions)"
    "interp.steps"

let m_exec_runs = Metrics.counter ~doc:"prepared-program runs" "interp.runs"

(* ------------------------------------------------------------------ *)
(* Fuel                                                                *)
(* ------------------------------------------------------------------ *)

exception Out_of_fuel

let default_fuel = 200_000_000

let fuel_guard f =
  try f ()
  with Out_of_fuel ->
    Diag.error ~code:"CS017" "program exhausted its fuel; it may not terminate"

(* ------------------------------------------------------------------ *)
(* Prepared form                                                       *)
(* ------------------------------------------------------------------ *)

(** The running cycle total. A float-only record stores its field
    unboxed: a charge is a load, an add and a store, where a float field
    of the mixed [state] record would box every sum and store it through
    the write barrier. *)
type cycles = { mutable cycles : float }

type state = {
  st_machine : Machine.t;
  st_globals : Value.t array;
  st_gdefined : bool array;
      (** per-slot "has a value": always true for declared globals;
          initially false for slots reserved for undeclared names that
          some [Store_global] creates at run time (the reference's
          [Hashtbl.replace] semantics) *)
  mutable st_fuel : int;
  st_total : cycles;
  mutable st_obs : probe option;  (** consulted by the fast loop only *)
  mutable st_builtin :
    (Builtins.t -> Value.t list -> has_dst:bool -> Value.t * float) option;
      (** replaces [Builtins.impl] on the fast loop when set *)
}

(** What a fast-loop run observes, beyond its effects. *)
and probe = {
  ob_block : pfunc -> int -> Value.t array -> pblock;
      (** at every block entry, in place of {!enter}: charges the
          entry's fuel and returns the block to execute, which need not
          be the one jumped to *)
  ob_enter : pfunc -> opf array -> enables -> Value.t array -> unit;
      (** before a call binds its arguments: the callee, the call
          site's compiled arguments and enables, and the caller's
          register file. An entry ([main], {!run_func}) is no call and
          passes an empty register file, which no frame has. *)
  ob_exit : Ir.func -> unit;  (** after a call returns normally *)
}

(** Per COMMSETNAMEDARGADD enable on a call: the named block and its
    sets' compiled actuals. *)
and enables = (string * (string * opf array) list) list

(** A compiled operand read: closed over the constant or the register
    index; never allocates. *)
and opf = Value.t array -> Value.t

and pinstr =
  | Psimple of (state -> Value.t array -> unit)
      (** everything but calls; includes raising stubs for instructions
          whose resolution failed (unknown global / unknown callee),
          which must keep failing at execution time, not prepare time *)
  | Pbuiltin of { bi : Builtins.t; bargs : opf array; bdst : int (* -1 = none *) }
  | Pcall of { ccallee : pfunc; cargs : opf array; cdst : int (* -1 = none *); cenabled : enables }

and pterm =
  | Pjump of int
  | Pbranch of int * int * int  (** condition register, then-idx, else-idx *)
  | Pbranch_raise of opf
      (** non-bool constant condition: evaluates and traps like the
          reference's [Value.to_bool] *)
  | Pret_reg of int
  | Pret_const of Value.t
  | Pret_none
      (** Jump targets are block indices, or [-1 - label] for an edge to
          a label with no block: the reference's [Ir.block] raises
          [Not_found] only if such an edge is actually taken, so the
          trap must stay behind the branch condition. *)

and pblock = {
  pb_label : Ir.label;
  pb_instrs : pinstr array;
  pb_irs : Ir.instr array;  (** parallel to [pb_instrs] *)
  pb_costs : float array;  (** parallel static {!Costmodel.instr_cost}s *)
  pb_term : pterm;
  pb_region : (Ir.region * (string * opf array) list) option;
      (** the region this block enters, with its commset actuals
          compiled; [None] for non-entry blocks *)
}

and pfunc = {
  pf_ir : Ir.func;
  pf_nregs : int;
  pf_params : int array;
  mutable pf_entry : int;
  mutable pf_blocks : pblock array;
}

type t = {
  p_prog : Ir.program;
  p_funcs : (string, pfunc) Hashtbl.t;
  p_main : pfunc option;
  p_global_slots : (string, int) Hashtbl.t;
  p_global_names : string array;
  p_global_init : Value.t array;  (** copied into each executor *)
  p_global_defined : bool array;  (** initial defined flags, copied too *)
}

let program t = t.p_prog

(* ------------------------------------------------------------------ *)
(* Prepare: operands and operators                                     *)
(* ------------------------------------------------------------------ *)

let prep_operand : Ir.operand -> opf = function
  | Ir.Const c ->
      let v = Value.of_const c in
      fun _ -> v
  | Ir.Reg r -> fun regs -> regs.(r)

(* Hot-path helpers, local so that they inline: dune's dev profile
   compiles with [-opaque], so nothing from [Value] inlines here. A
   mismatch fails through [Value.to_int]/[to_float], with their text.
   ([Value] has no [of_bool], so opening it does not shadow this one.) *)
let[@inline] of_bool b = if b then Value.vtrue else Value.vfalse
let[@inline] int_of = function Value.Vint n -> n | v -> Value.to_int v
let[@inline] float_of = function Value.Vfloat f -> f | v -> Value.to_float v

(* the (op, ty) match, performed once per instruction *)
let prep_binop op ty : Value.t -> Value.t -> Value.t =
  let open Value in
  match (op, ty) with
  | Ast.Add, Ast.Tint -> fun a b -> Vint (int_of a + int_of b)
  | Ast.Sub, Ast.Tint -> fun a b -> Vint (int_of a - int_of b)
  | Ast.Mul, Ast.Tint -> fun a b -> Vint (int_of a * int_of b)
  | Ast.Div, Ast.Tint ->
      fun a b ->
        let d = int_of b in
        if d = 0 then Diag.error ~code:"CS018" "runtime: division by zero"
        else Vint (int_of a / d)
  | Ast.Mod, Ast.Tint ->
      fun a b ->
        let d = int_of b in
        if d = 0 then Diag.error ~code:"CS018" "runtime: modulo by zero"
        else Vint (int_of a mod d)
  | Ast.Add, Ast.Tfloat -> fun a b -> Vfloat (float_of a +. float_of b)
  | Ast.Sub, Ast.Tfloat -> fun a b -> Vfloat (float_of a -. float_of b)
  | Ast.Mul, Ast.Tfloat -> fun a b -> Vfloat (float_of a *. float_of b)
  | Ast.Div, Ast.Tfloat -> fun a b -> Vfloat (float_of a /. float_of b)
  | Ast.Add, Ast.Tstring -> fun a b -> Vstring (to_string_val a ^ to_string_val b)
  | Ast.Lt, Ast.Tint -> fun a b -> of_bool (int_of a < int_of b)
  | Ast.Le, Ast.Tint -> fun a b -> of_bool (int_of a <= int_of b)
  | Ast.Gt, Ast.Tint -> fun a b -> of_bool (int_of a > int_of b)
  | Ast.Ge, Ast.Tint -> fun a b -> of_bool (int_of a >= int_of b)
  | Ast.Lt, Ast.Tfloat -> fun a b -> of_bool (float_of a < float_of b)
  | Ast.Le, Ast.Tfloat -> fun a b -> of_bool (float_of a <= float_of b)
  | Ast.Gt, Ast.Tfloat -> fun a b -> of_bool (float_of a > float_of b)
  | Ast.Ge, Ast.Tfloat -> fun a b -> of_bool (float_of a >= float_of b)
  | Ast.Lt, Ast.Tstring -> fun a b -> of_bool (to_string_val a < to_string_val b)
  | Ast.Gt, Ast.Tstring -> fun a b -> of_bool (to_string_val a > to_string_val b)
  | Ast.Eq, _ -> fun a b -> of_bool (Value.equal a b)
  | Ast.Neq, _ -> fun a b -> of_bool (not (Value.equal a b))
  | Ast.And, Ast.Tbool -> fun a b -> of_bool (to_bool a && to_bool b)
  | Ast.Or, Ast.Tbool -> fun a b -> of_bool (to_bool a || to_bool b)
  | _ -> fun _ _ -> Diag.error "runtime: ill-typed binop"

let prep_unop op : Value.t -> Value.t =
 fun a ->
  match (op, a) with
  | Ast.Neg, Value.Vint n -> Value.Vint (-n)
  | Ast.Neg, Value.Vfloat f -> Value.Vfloat (-.f)
  | Ast.Not, Value.Vbool x -> of_bool (not x)
  | _ -> Diag.error "runtime: ill-typed unop"

(* ------------------------------------------------------------------ *)
(* Prepare: instructions, terminators, blocks                          *)
(* ------------------------------------------------------------------ *)

let prep_instr ~global_slots ~declared ~funcs (i : Ir.instr) : pinstr =
  let loc = i.Ir.iloc in
  match i.Ir.desc with
  | Ir.Move (r, op) -> (
      match op with
      | Ir.Const c ->
          let v = Value.of_const c in
          Psimple (fun _ regs -> regs.(r) <- v)
      | Ir.Reg s -> Psimple (fun _ regs -> regs.(r) <- regs.(s)))
  | Ir.Binop (op, ty, r, a, b) -> (
      (* the two commonest operand shapes read their operands in place:
         two indirect calls (instruction, operator) instead of four *)
      let f = prep_binop op ty in
      match (a, b) with
      | Ir.Reg x, Ir.Reg y -> Psimple (fun _ regs -> regs.(r) <- f regs.(x) regs.(y))
      | Ir.Reg x, Ir.Const c ->
          let k = Value.of_const c in
          Psimple (fun _ regs -> regs.(r) <- f regs.(x) k)
      | _ ->
          let fa = prep_operand a and fb = prep_operand b in
          Psimple (fun _ regs -> regs.(r) <- f (fa regs) (fb regs)))
  | Ir.Unop (op, _, r, a) ->
      let f = prep_unop op in
      let fa = prep_operand a in
      Psimple (fun _ regs -> regs.(r) <- f (fa regs))
  | Ir.Load_global (r, g) -> (
      match Hashtbl.find_opt global_slots g with
      | Some slot when Hashtbl.mem declared g ->
          Psimple (fun st regs -> regs.(r) <- st.st_globals.(slot))
      | Some slot ->
          (* undeclared name that some store creates at run time: visible
             here only once the store has executed, like the reference's
             globals hashtable *)
          Psimple
            (fun st regs ->
              if st.st_gdefined.(slot) then regs.(r) <- st.st_globals.(slot)
              else Diag.error "runtime: unknown global '%s'" g)
      | None -> Psimple (fun _ _ -> Diag.error "runtime: unknown global '%s'" g))
  | Ir.Store_global (g, op) ->
      let fop = prep_operand op in
      let slot = Hashtbl.find global_slots g in
      if Hashtbl.mem declared g then
        Psimple (fun st regs -> st.st_globals.(slot) <- fop regs)
      else
        Psimple
          (fun st regs ->
            st.st_globals.(slot) <- fop regs;
            st.st_gdefined.(slot) <- true)
  | Ir.Load_index (r, arr, idx) ->
      let fa = prep_operand arr and fi = prep_operand idx in
      Psimple
        (fun _ regs ->
          let a = Value.to_array ~what:"indexed value" (fa regs) in
          let j = Value.to_int ~what:"index" (fi regs) in
          if j < 0 || j >= Array.length a then
            Diag.error ~loc ~code:"CS018" "runtime: index %d out of bounds (length %d)" j
              (Array.length a);
          regs.(r) <- a.(j))
  | Ir.Store_index (arr, idx, v) ->
      let fa = prep_operand arr and fi = prep_operand idx and fv = prep_operand v in
      Psimple
        (fun _ regs ->
          let a = Value.to_array ~what:"indexed value" (fa regs) in
          let j = Value.to_int ~what:"index" (fi regs) in
          if j < 0 || j >= Array.length a then
            Diag.error ~loc ~code:"CS018" "runtime: index %d out of bounds (length %d)" j
              (Array.length a);
          a.(j) <- fv regs)
  | Ir.Call { dst; callee; args; enabled } -> (
      let cargs = Array.of_list (List.map prep_operand args) in
      let cdst = match dst with Some r -> r | None -> -1 in
      match Builtins.find callee with
      | Some bi -> Pbuiltin { bi; bargs = cargs; bdst = cdst }
      | None -> (
          match Hashtbl.find_opt funcs callee with
          | Some pf ->
              let cenabled =
                List.map
                  (fun (e : Ir.enable) ->
                    ( e.Ir.en_block,
                      List.map
                        (fun (set, ops) -> (set, Array.of_list (List.map prep_operand ops)))
                        e.Ir.en_sets ))
                  enabled
              in
              Pcall { ccallee = pf; cargs; cdst; cenabled }
          | None ->
              Psimple
                (fun _ _ -> Diag.error ~loc "runtime: call to unknown function '%s'" callee)))

let prep_term ~(label_idx : (Ir.label, int) Hashtbl.t) (t : Ir.terminator) : pterm =
  let idx l = match Hashtbl.find_opt label_idx l with Some i -> i | None -> -1 - l in
  match t with
  | Ir.Jump l -> Pjump (idx l)
  | Ir.Branch (c, l1, l2) -> (
      match c with
      | Ir.Const (Ir.Cbool true) -> Pjump (idx l1)
      | Ir.Const (Ir.Cbool false) -> Pjump (idx l2)
      | Ir.Const _ -> Pbranch_raise (prep_operand c)
      | Ir.Reg r -> Pbranch (r, idx l1, idx l2))
  | Ir.Ret None -> Pret_none
  | Ir.Ret (Some (Ir.Reg r)) -> Pret_reg r
  | Ir.Ret (Some (Ir.Const c)) -> Pret_const (Value.of_const c)

let prepare (prog : Ir.program) : t =
  (* global slots: declared globals first (later duplicate declarations
     overwrite the initial value, the reference's Hashtbl.replace), then
     one slot per undeclared name targeted by some Store_global *)
  let global_slots = Hashtbl.create 16 in
  let declared = Hashtbl.create 16 in
  let slots_rev = ref [] in
  let n_slots = ref 0 in
  let slot_of name =
    match Hashtbl.find_opt global_slots name with
    | Some s -> s
    | None ->
        let s = !n_slots in
        incr n_slots;
        Hashtbl.replace global_slots name s;
        slots_rev := name :: !slots_rev;
        s
  in
  List.iter
    (fun (name, _, _) ->
      ignore (slot_of name);
      Hashtbl.replace declared name ())
    prog.Ir.prog_globals;
  Hashtbl.iter
    (fun _ (f : Ir.func) ->
      Ir.iter_instrs f (fun _ i ->
          match i.Ir.desc with Ir.Store_global (g, _) -> ignore (slot_of g) | _ -> ()))
    prog.Ir.funcs;
  let n = max 1 !n_slots in
  let global_init = Array.make n (Value.Vint 0) in
  let global_defined = Array.make n false in
  let global_names = Array.make n "" in
  List.iteri (fun i name -> global_names.(!n_slots - 1 - i) <- name) !slots_rev;
  List.iter
    (fun (name, _, const) ->
      let s = Hashtbl.find global_slots name in
      global_init.(s) <- Value.of_const const;
      global_defined.(s) <- true)
    prog.Ir.prog_globals;
  (* two passes over functions so (mutually) recursive calls resolve to
     the final pfuncs: create shells, then fill blocks in place *)
  let funcs : (string, pfunc) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fname (f : Ir.func) ->
      Hashtbl.replace funcs fname
        {
          pf_ir = f;
          pf_nregs = max 1 f.Ir.n_regs;
          pf_params = Array.of_list f.Ir.param_regs;
          pf_entry = 0;
          pf_blocks = [||];
        })
    prog.Ir.funcs;
  let fill _fname (pf : pfunc) =
    let f = pf.pf_ir in
    let blocks = Ir.blocks_in_order f in
    let label_idx = Hashtbl.create 16 in
    List.iteri (fun i (b : Ir.block) -> Hashtbl.replace label_idx b.Ir.label i) blocks;
    (* region whose entry this block is: last declaration wins, matching
       the reference's Hashtbl.replace over fregions in order *)
    let region_of label =
      List.fold_left
        (fun acc (r : Ir.region) -> if r.Ir.rentry = label then Some r else acc)
        None f.Ir.fregions
    in
    pf.pf_blocks <-
      Array.of_list
        (List.map
           (fun (b : Ir.block) ->
             let irs = Array.of_list b.Ir.instrs in
             {
               pb_label = b.Ir.label;
               pb_instrs = Array.map (prep_instr ~global_slots ~declared ~funcs) irs;
               pb_irs = irs;
               pb_costs = Array.map (fun (i : Ir.instr) -> Costmodel.instr_cost i.Ir.desc) irs;
               pb_term = prep_term ~label_idx b.Ir.term;
               pb_region =
                 (match region_of b.Ir.label with
                 | Some r ->
                     Some
                       ( r,
                         List.map
                           (fun (set, ops) ->
                             (set, Array.of_list (List.map prep_operand ops)))
                           r.Ir.rrefs )
                 | None -> None);
             })
           blocks);
    match Hashtbl.find_opt label_idx f.Ir.entry with
    | Some i -> pf.pf_entry <- i
    | None -> Diag.error "internal: function '%s' has no entry block" f.Ir.fname
  in
  Hashtbl.iter fill funcs;
  {
    p_prog = prog;
    p_funcs = funcs;
    p_main = Hashtbl.find_opt funcs "main";
    p_global_slots = global_slots;
    p_global_names = global_names;
    p_global_init = global_init;
    p_global_defined = global_defined;
  }

(* ------------------------------------------------------------------ *)
(* Executors                                                           *)
(* ------------------------------------------------------------------ *)

type exec = {
  ex_prepared : t;
  ex_state : state;
  ex_fuel0 : int;  (** initial fuel, for the steps-retired accessor *)
}

let executor ?(fuel = default_fuel) ?(machine = Machine.create ()) (p : t) : exec =
  let st =
    {
      st_machine = machine;
      st_globals = Array.copy p.p_global_init;
      st_gdefined = Array.copy p.p_global_defined;
      st_fuel = fuel;
      st_total = { cycles = 0. };
      st_obs = None;
      st_builtin = None;
    }
  in
  machine.Machine.emit <- (fun s -> Machine.default_emit machine s);
  { ex_prepared = p; ex_state = st; ex_fuel0 = fuel }

let machine ex = ex.ex_state.st_machine
let total_cost ex = ex.ex_state.st_total.cycles
let steps ex = ex.ex_fuel0 - ex.ex_state.st_fuel

(** Live global bindings, as the reference's globals hashtable would
    hold them (declared globals plus any undeclared names created by an
    executed store). *)
let globals ex : (string * Value.t) list =
  let names = ex.ex_prepared.p_global_names in
  let st = ex.ex_state in
  let acc = ref [] in
  for i = Array.length names - 1 downto 0 do
    if st.st_gdefined.(i) then acc := (names.(i), st.st_globals.(i)) :: !acc
  done;
  !acc

let set_globals ex (bindings : (string * Value.t) list) =
  let st = ex.ex_state in
  Array.fill st.st_gdefined 0 (Array.length st.st_gdefined) false;
  List.iter
    (fun (name, v) ->
      let s = Hashtbl.find ex.ex_prepared.p_global_slots name in
      st.st_globals.(s) <- v;
      st.st_gdefined.(s) <- true)
    bindings

(* ---- fast loop ------------------------------------------------------ *)

(* One step of fuel: a block entry or an instruction. *)
let[@inline] step st =
  if st.st_fuel <= 0 then raise Out_of_fuel;
  st.st_fuel <- st.st_fuel - 1

(* One charge to the running total: inlined, it boxes nothing. *)
let[@inline] charge st c = st.st_total.cycles <- st.st_total.cycles +. c

(* A block entry: one step, then the block, where a jump to a label
   with no block raises [Not_found] like the reference's [Ir.block].
   Probes call this (or an equivalent) themselves. *)
let[@inline] enter st (pf : pfunc) bidx : pblock =
  step st;
  if bidx < 0 then ignore (Ir.block pf.pf_ir (-1 - bidx));
  Array.unsafe_get pf.pf_blocks bidx

let rec f_args bargs regs i n =
  if i >= n then [] else bargs.(i) regs :: f_args bargs regs (i + 1) n

let rec f_call st (callee : pfunc) (cargs : opf array) cenabled caller_regs : Value.t =
  (match st.st_obs with None -> () | Some o -> o.ob_enter callee cargs cenabled caller_regs);
  let regs = Array.make callee.pf_nregs (Value.Vint 0) in
  let params = callee.pf_params in
  let np = Array.length params in
  if Array.length cargs < np then
    Diag.error "runtime: missing argument %d of %s" (Array.length cargs)
      callee.pf_ir.Ir.fname;
  for i = 0 to np - 1 do
    regs.(params.(i)) <- cargs.(i) caller_regs
  done;
  let v = f_run st callee regs callee.pf_entry in
  (match st.st_obs with None -> () | Some o -> o.ob_exit callee.pf_ir);
  v

and f_run st (pf : pfunc) regs bidx : Value.t =
  let b =
    match st.st_obs with None -> enter st pf bidx | Some o -> o.ob_block pf bidx regs
  in
  let instrs = b.pb_instrs and costs = b.pb_costs in
  for k = 0 to Array.length instrs - 1 do
    step st;
    charge st (Array.unsafe_get costs k);
    match Array.unsafe_get instrs k with
    | Psimple f -> f st regs
    | Pbuiltin { bi; bargs; bdst } ->
        let argv = f_args bargs regs 0 (Array.length bargs) in
        let v, cost =
          match st.st_builtin with
          | None -> bi.Builtins.impl st.st_machine argv
          | Some dispatch -> dispatch bi argv ~has_dst:(bdst >= 0)
        in
        charge st cost;
        if bdst >= 0 then regs.(bdst) <- v
    | Pcall { ccallee; cargs; cdst; cenabled } ->
        let v = f_call st ccallee cargs cenabled regs in
        if cdst >= 0 then regs.(cdst) <- v
  done;
  charge st Costmodel.terminator_cost;
  match b.pb_term with
  | Pjump j -> f_run st pf regs j
  | Pbranch (c, l1, l2) -> (
      match regs.(c) with
      | Value.Vbool true -> f_run st pf regs l1
      | Value.Vbool false -> f_run st pf regs l2
      | v ->
          ignore (Value.to_bool ~what:"branch condition" v);
          assert false)
  | Pbranch_raise fop ->
      ignore (Value.to_bool ~what:"branch condition" (fop regs));
      assert false
  | Pret_reg r -> regs.(r)
  | Pret_const v -> v
  | Pret_none -> Value.Vint 0

(* ---- entries -------------------------------------------------------- *)

(* Run [main()] from [ex] with [probe] installed; counts the run and its
   steps in the metrics. *)
let run_entry ?probe (ex : exec) : float =
  match ex.ex_prepared.p_main with
  | None -> Diag.error "program has no 'main' function"
  | Some mainf ->
      let st = ex.ex_state in
      let fuel_before = st.st_fuel in
      Metrics.incr m_exec_runs;
      st.st_obs <- probe;
      Fun.protect
        ~finally:(fun () ->
          st.st_obs <- None;
          Metrics.add m_steps (fuel_before - st.st_fuel))
        (fun () -> ignore (f_call st mainf [||] [] [||]));
      st.st_total.cycles

(** Run [main()] to completion; returns total simulated cycles. The
    executor keeps the machine, globals, and running total for
    inspection afterwards. *)
let run_main (ex : exec) : float = run_entry ex

(** What an observed run reports; see the interface. *)
type observer = {
  on_block : Ir.func -> Ir.label -> unit;
  on_region :
    (Ir.func -> Ir.region -> (string * Value.t list) list -> Value.t array -> unit) option;
  on_enter : Ir.func -> unit;
  on_call :
    (Ir.func -> Value.t list -> (string * (string * Value.t list) list) list -> unit) option;
  on_exit : Ir.func -> unit;
  on_builtin : (Builtins.t -> float -> unit) option;
}

let eval_sets (sets : (string * opf array) list) regs : (string * Value.t list) list =
  List.map (fun (set, fns) -> (set, List.map (fun f -> f regs) (Array.to_list fns))) sets

(* The observer's payloads are evaluated here, and only those it asks
   for: a block-grained observer costs one step and one call per block
   entry and per call, as on the plain fast loop. *)
let run_observed (ex : exec) (o : observer) : float =
  let st = ex.ex_state in
  let ob_block pf bidx regs =
    step st;
    if bidx < 0 then begin
      o.on_block pf.pf_ir (-1 - bidx);
      ignore (Ir.block pf.pf_ir (-1 - bidx))
    end;
    let b = Array.unsafe_get pf.pf_blocks bidx in
    o.on_block pf.pf_ir b.pb_label;
    (match (o.on_region, b.pb_region) with
    | Some on_region, Some (region, sets) ->
        on_region pf.pf_ir region (eval_sets sets regs) regs
    | _ -> ());
    b
  in
  let ob_enter pf cargs cenabled caller_regs =
    (match o.on_call with
    | Some on_call when Array.length caller_regs > 0 ->
        on_call pf.pf_ir
          (f_args cargs caller_regs 0 (Array.length cargs))
          (List.map (fun (blk, sets) -> (blk, eval_sets sets caller_regs)) cenabled)
    | _ -> ());
    o.on_enter pf.pf_ir
  in
  st.st_builtin <-
    (match o.on_builtin with
    | None -> None
    | Some on_builtin ->
        Some
          (fun bi argv ~has_dst:_ ->
            let ((_, cost) as r) = bi.Builtins.impl st.st_machine argv in
            on_builtin bi cost;
            r));
  Fun.protect
    ~finally:(fun () -> st.st_builtin <- None)
    (fun () -> run_entry ex ~probe:{ ob_block; ob_enter; ob_exit = o.on_exit })

let run_func ex (f : Ir.func) (args : Value.t list) : Value.t =
  let pf = Hashtbl.find ex.ex_prepared.p_funcs f.Ir.fname in
  f_call ex.ex_state pf (Array.of_list (List.map (fun v _ -> v) args)) [] [||]

exception Left_region

let run_region ex (f : Ir.func) (region : Ir.region) (regs : Value.t array) : unit =
  let pf = Hashtbl.find ex.ex_prepared.p_funcs f.Ir.fname in
  let inside =
    Array.map
      (fun b -> List.mem region.Ir.rid (Ir.block pf.pf_ir b.pb_label).Ir.bregions)
      pf.pf_blocks
  in
  let entry =
    match Array.find_index (fun b -> b.pb_label = region.Ir.rentry) pf.pf_blocks with
    | Some i -> i
    | None -> -1 - region.Ir.rentry
  in
  (* only the region's own frame can leave it; callee frames run whole *)
  let st = ex.ex_state in
  let depth = ref 0 in
  let ob_block pf' bidx _ =
    if !depth = 0 && not (bidx >= 0 && inside.(bidx)) then raise_notrace Left_region;
    enter st pf' bidx
  in
  let ob_enter _ _ _ _ = incr depth in
  st.st_obs <- Some { ob_block; ob_enter; ob_exit = (fun _ -> decr depth) };
  Fun.protect
    ~finally:(fun () -> st.st_obs <- None)
    (fun () -> try ignore (f_run st pf regs entry) with Left_region -> ())

(* ------------------------------------------------------------------ *)
(* Real-execution support                                              *)
(* ------------------------------------------------------------------ *)

(* The real multicore backend (lib/exec) splits one prepared program
   between a coordinator domain and worker domains. The coordinator runs
   the whole program but, inside the target loop, executes only the
   "backbone": the backward slice of the loop-control condition (the
   induction arithmetic, plus read-only builtins like [graph_next] that
   feed a loop-carried control register). At each header entry where the
   loop continues it hands the live register file to [on_iter]; workers
   then execute the full iteration body — every skipped instruction —
   against the shared machine and global slots. The functions below are
   deliberately conservative: [plan_real] rejects any loop shape whose
   backbone cannot be proven to live entirely in the header and the
   single latch block, and the caller falls back to another engine. *)

type rtarget = {
  rt_pf : pfunc;
  rt_header : int;
  rt_body_entry : int;
  rt_in_loop : bool array;  (** per block index of [rt_pf] *)
  rt_latch : pblock;
      (** the latch reduced to its backbone instructions: the block the
          coordinator runs after each dispatch *)
  rt_backbone : int list;  (** iids the coordinator executes inside the loop *)
}

let rtarget_backbone rt = rt.rt_backbone

let instr_def (i : Ir.instr) : int option =
  match i.Ir.desc with
  | Ir.Move (r, _) | Ir.Binop (_, _, r, _, _) | Ir.Unop (_, _, r, _)
  | Ir.Load_global (r, _) | Ir.Load_index (r, _, _) ->
      Some r
  | Ir.Call { dst; _ } -> dst
  | Ir.Store_global _ | Ir.Store_index _ -> None

let instr_uses (i : Ir.instr) : int list =
  let op acc = function Ir.Reg r -> r :: acc | Ir.Const _ -> acc in
  match i.Ir.desc with
  | Ir.Move (_, o) -> op [] o
  | Ir.Binop (_, _, _, a, b) -> op (op [] a) b
  | Ir.Unop (_, _, _, a) -> op [] a
  | Ir.Load_global _ -> []
  | Ir.Store_global (_, o) -> op [] o
  | Ir.Load_index (_, a, ix) -> op (op [] a) ix
  | Ir.Store_index (a, ix, v) -> op (op (op [] a) ix) v
  | Ir.Call { args; _ } -> List.fold_left op [] args

let plan_real (p : t) ~(fname : string) ~(header : Ir.label)
    ~(latches : Ir.label list) ~(body : Ir.label list) : (rtarget, string) result =
  let ( let* ) r f = Result.bind r f in
  let* pf =
    match Hashtbl.find_opt p.p_funcs fname with
    | Some pf -> Ok pf
    | None -> Error (Printf.sprintf "no function '%s'" fname)
  in
  let nblocks = Array.length pf.pf_blocks in
  let idx_of = Hashtbl.create 16 in
  Array.iteri (fun i (b : pblock) -> Hashtbl.replace idx_of b.pb_label i) pf.pf_blocks;
  let* header_idx =
    match Hashtbl.find_opt idx_of header with
    | Some i -> Ok i
    | None -> Error "header block not found"
  in
  let in_loop = Array.make nblocks false in
  List.iter
    (fun l -> match Hashtbl.find_opt idx_of l with Some i -> in_loop.(i) <- true | None -> ())
    body;
  let* latch_idx =
    match latches with
    | [ l ] -> (
        match Hashtbl.find_opt idx_of l with
        | Some i -> Ok i
        | None -> Error "latch block not found")
    | _ -> Error "loop has multiple latches"
  in
  (* the latch must fall through to the header unconditionally, so the
     coordinator's spine is straight-line per iteration *)
  let* () =
    match pf.pf_blocks.(latch_idx).pb_term with
    | Pjump j when j = header_idx -> Ok ()
    | _ -> Error "latch does not jump unconditionally to the header"
  in
  let* cond =
    match pf.pf_blocks.(header_idx).pb_term with
    | Pbranch (c, t1, t2) ->
        let inl i = i >= 0 && i < nblocks && in_loop.(i) in
        if inl t1 && not (inl t2) then Ok (c, t1, t2)
        else if inl t2 && not (inl t1) then Ok (c, t1, t2)
        else Error "header branch does not separate loop body from exit"
    | _ -> Error "header terminator is not a two-way branch"
  in
  let c, t1, t2 = cond in
  let body_entry = if t1 >= 0 && t1 < nblocks && in_loop.(t1) then t1 else t2 in
  (* backward slice of the loop condition over in-loop instructions *)
  let loop_instrs =
    let acc = ref [] in
    Array.iteri
      (fun bi (b : pblock) ->
        if in_loop.(bi) then
          Array.iter (fun (i : Ir.instr) -> acc := (bi, i) :: !acc) b.pb_irs)
      pf.pf_blocks;
    List.rev !acc
  in
  let needed = Hashtbl.create 16 in
  Hashtbl.replace needed c ();
  let backbone : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((_, i) : int * Ir.instr) ->
        if not (Hashtbl.mem backbone i.Ir.iid) then
          match instr_def i with
          | Some r when Hashtbl.mem needed r ->
              Hashtbl.replace backbone i.Ir.iid ();
              List.iter
                (fun u ->
                  if not (Hashtbl.mem needed u) then begin
                    Hashtbl.replace needed u ();
                    changed := true
                  end)
                (instr_uses i);
              changed := true
          | _ -> ())
      loop_instrs
  done;
  (* globals stored inside the loop, for the backbone purity check *)
  let loop_stored_globals = Hashtbl.create 8 in
  List.iter
    (fun ((_, i) : int * Ir.instr) ->
      match i.Ir.desc with
      | Ir.Store_global (g, _) -> Hashtbl.replace loop_stored_globals g ()
      | _ -> ())
    loop_instrs;
  let check_backbone_instr ((bi, i) : int * Ir.instr) : (unit, string) result =
    if not (Hashtbl.mem backbone i.Ir.iid) then Ok ()
    else if bi <> header_idx && bi <> latch_idx then
      Error "loop-control slice escapes the header and latch blocks"
    else
      match i.Ir.desc with
      | Ir.Load_global (_, g) when Hashtbl.mem loop_stored_globals g ->
          Error "loop condition reads a global written in the loop body"
      | Ir.Call { callee; _ } -> (
          match Builtins.find callee with
          | Some b when b.Builtins.spec.Commset_analysis.Effects.bs_writes = [] -> Ok ()
          | Some _ -> Error "loop-control slice calls a machine-writing builtin"
          | None -> Error "loop-control slice calls a user function")
      | _ -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc bi -> Result.bind acc (fun () -> check_backbone_instr bi))
      (Ok ()) loop_instrs
  in
  (* every header instruction must be backbone: workers never execute the
     header, so anything else there would be lost *)
  let* () =
    if
      Array.for_all
        (fun (i : Ir.instr) -> Hashtbl.mem backbone i.Ir.iid)
        pf.pf_blocks.(header_idx).pb_irs
    then Ok ()
    else Error "header block contains non-loop-control work"
  in
  (* live-out check: a register written by a skipped (non-backbone) loop
     instruction must not be read after the loop — the coordinator's
     copy would be stale *)
  let skipped_defs = Hashtbl.create 16 in
  List.iter
    (fun ((_, i) : int * Ir.instr) ->
      if not (Hashtbl.mem backbone i.Ir.iid) then
        match instr_def i with Some r -> Hashtbl.replace skipped_defs r () | None -> ())
    loop_instrs;
  let live_out_violation = ref false in
  Array.iteri
    (fun bi (b : pblock) ->
      if not in_loop.(bi) then begin
        Array.iter
          (fun (i : Ir.instr) ->
            List.iter
              (fun u -> if Hashtbl.mem skipped_defs u then live_out_violation := true)
              (instr_uses i))
          b.pb_irs;
        match b.pb_term with
        | Pbranch (r, _, _) | Pret_reg r ->
            if Hashtbl.mem skipped_defs r then live_out_violation := true
        | _ -> ()
      end)
    pf.pf_blocks;
  let* () =
    if !live_out_violation then
      Error "a register written in the loop body is read after the loop"
    else Ok ()
  in
  let rt_latch =
    let latch = pf.pf_blocks.(latch_idx) in
    let backbone_only a =
      Array.of_list
        (List.filteri
           (fun k _ -> Hashtbl.mem backbone latch.pb_irs.(k).Ir.iid)
           (Array.to_list a))
    in
    {
      latch with
      pb_instrs = backbone_only latch.pb_instrs;
      pb_irs = backbone_only latch.pb_irs;
      pb_costs = backbone_only latch.pb_costs;
    }
  in
  Ok
    {
      rt_pf = pf;
      rt_header = header_idx;
      rt_body_entry = body_entry;
      rt_in_loop = in_loop;
      rt_latch;
      rt_backbone = Hashtbl.fold (fun iid () acc -> iid :: acc) backbone [];
    }

(* ---- typed iteration-body IR view (codegen input) ------------------- *)

(* The codegen backend re-translates the iteration body from the
   original [Ir.instr]s, but it must agree with the *prepared* form on
   everything the prepare pass resolved: block indices, per-instruction
   static costs, global slot numbers, and the declared/undeclared
   global split. The view below exposes exactly those resolutions,
   keeping the prepared closures themselves private. *)

type view_term =
  | Vjump of int
  | Vbranch of int * int * int
  | Vbranch_const of Value.t
      (** non-bool constant branch condition: traps like the reference *)
  | Vret_reg of int
  | Vret_const of Value.t
  | Vret_none

type view_block = {
  vb_label : Ir.label;
  vb_instrs : Ir.instr array;
  vb_costs : float array;  (** parallel static {!Costmodel.instr_cost}s *)
  vb_term : view_term;
}

type view_func = {
  vf_name : string;
  vf_nregs : int;
  vf_params : int array;
  vf_entry : int;
  vf_blocks : view_block array;
}

let view_of_pfunc (pf : pfunc) : view_func =
  {
    vf_name = pf.pf_ir.Ir.fname;
    vf_nregs = pf.pf_nregs;
    vf_params = Array.copy pf.pf_params;
    vf_entry = pf.pf_entry;
    vf_blocks =
      Array.map
        (fun (b : pblock) ->
          {
            vb_label = b.pb_label;
            vb_instrs = b.pb_irs;
            vb_costs = b.pb_costs;
            vb_term =
              (match b.pb_term with
              | Pjump j -> Vjump j
              | Pbranch (c, l1, l2) -> Vbranch (c, l1, l2)
              | Pbranch_raise fop ->
                  (* only built from a [Const] operand, so the closure
                     ignores the register file *)
                  Vbranch_const (fop [||])
              | Pret_reg r -> Vret_reg r
              | Pret_const v -> Vret_const v
              | Pret_none -> Vret_none);
          })
        pf.pf_blocks;
  }

let view_func (p : t) name : view_func option =
  Option.map view_of_pfunc (Hashtbl.find_opt p.p_funcs name)

let rtarget_view (rt : rtarget) : view_func = view_of_pfunc rt.rt_pf
let rtarget_header rt = rt.rt_header
let rtarget_body_entry rt = rt.rt_body_entry
let rtarget_in_loop rt = Array.copy rt.rt_in_loop
let global_slot (p : t) name = Hashtbl.find_opt p.p_global_slots name

let global_declared (p : t) name =
  List.exists (fun (n, _, _) -> n = name) p.p_prog.Ir.prog_globals

(* ---- coordinator ---------------------------------------------------- *)

(* The fast loop with the target loop intercepted at block entry: the
   header runs whole; entering the body fires [on_iter] and runs the
   latch's backbone instead, which jumps back to the header; entering
   any other block of the target function from the header is the loop's
   exit. The backbone makes no user calls, so no other frame of the
   target function can interleave while the loop is open. *)
let run_main_real (ex : exec) (rt : rtarget) ~(on_iter : int -> Value.t array -> unit)
    ~(on_loop_done : unit -> unit) : float =
  let st = ex.ex_state in
  let iterc = ref 0 in
  let looping = ref false in
  let ob_block pf bidx regs =
    if pf != rt.rt_pf then enter st pf bidx
    else if bidx = rt.rt_body_entry then begin
      on_iter !iterc regs;
      incr iterc;
      step st;
      rt.rt_latch
    end
    else begin
      if bidx = rt.rt_header then looping := true
      else if !looping then begin
        looping := false;
        on_loop_done ()
      end;
      enter st pf bidx
    end
  in
  run_entry ex ~probe:{ ob_block; ob_enter = (fun _ _ _ _ -> ()); ob_exit = ignore }

(* ---- workers -------------------------------------------------------- *)

type wstate = state

(** A worker's private execution state sharing the coordinator's machine
    and global slots: global slot writes are word-sized [Value.t] stores,
    so sharing the arrays is tear-free; coherence of the *values* is the
    real backend's job (frontier ordering / commset locks). *)
let worker_state (ex : exec) ~fuel : wstate =
  {
    st_machine = ex.ex_state.st_machine;
    st_globals = ex.ex_state.st_globals;
    st_gdefined = ex.ex_state.st_gdefined;
    st_fuel = fuel;
    st_total = { cycles = 0. };
    st_obs = None;
    st_builtin = None;
  }

let wstate_fuel_left (st : wstate) = st.st_fuel
let wstate_total (st : wstate) = st.st_total.cycles
let wstate_globals (st : wstate) = st.st_globals
let wstate_gdefined (st : wstate) = st.st_gdefined

let wstate_charge (st : wstate) ~steps ~cost =
  st.st_fuel <- st.st_fuel - steps;
  charge st cost

(* The target-depth loop: node tracking ([on_instr]) stays at this depth
   — callee work belongs to the calling node — so nested calls run whole
   on the fast loop, with [builtin] installed as the state's dispatch. *)
let run_iteration (st : wstate) (rt : rtarget) ~(on_instr : Ir.instr -> unit)
    ~(builtin : Builtins.t -> Value.t list -> has_dst:bool -> Value.t * float)
    (regs : Value.t array) : unit =
  st.st_builtin <- Some builtin;
  let pf = rt.rt_pf in
  let nblocks = Array.length pf.pf_blocks in
  let rec span bidx =
    step st;
    let b = Array.unsafe_get pf.pf_blocks bidx in
    let instrs = b.pb_instrs and costs = b.pb_costs and irs = b.pb_irs in
    for k = 0 to Array.length instrs - 1 do
      step st;
      charge st (Array.unsafe_get costs k);
      on_instr (Array.unsafe_get irs k);
      match Array.unsafe_get instrs k with
      | Psimple f -> f st regs
      | Pbuiltin { bi; bargs; bdst } ->
          let argv = f_args bargs regs 0 (Array.length bargs) in
          let v, cost = builtin bi argv ~has_dst:(bdst >= 0) in
          charge st cost;
          if bdst >= 0 then regs.(bdst) <- v
      | Pcall { ccallee; cargs; cdst; cenabled } ->
          let v = f_call st ccallee cargs cenabled regs in
          if cdst >= 0 then regs.(cdst) <- v
    done;
    charge st Costmodel.terminator_cost;
    let continue_to tgt =
      if tgt = rt.rt_header then ()
      else if tgt >= 0 && tgt < nblocks && rt.rt_in_loop.(tgt) then span tgt
      else Diag.error "real-exec: iteration escaped the target loop"
    in
    match b.pb_term with
    | Pjump j -> continue_to j
    | Pbranch (c, l1, l2) -> (
        match regs.(c) with
        | Value.Vbool true -> continue_to l1
        | Value.Vbool false -> continue_to l2
        | v ->
            ignore (Value.to_bool ~what:"branch condition" v);
            assert false)
    | Pbranch_raise fop ->
        ignore (Value.to_bool ~what:"branch condition" (fop regs));
        assert false
    | Pret_reg _ | Pret_const _ | Pret_none ->
        Diag.error "real-exec: iteration returned out of the target loop"
  in
  span rt.rt_body_entry

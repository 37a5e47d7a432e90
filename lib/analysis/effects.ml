(** Memory effect analysis.

    Every instruction is summarized by the sets of abstract locations it
    may read and write. Locations:
    - [Lglobal g] — the global variable cell [g];
    - [Lheap src] — elements of arrays with provenance [src];
    - [Lext r] — an abstract resource owned by a builtin (e.g. the virtual
      file-descriptor table, a random-number-generator seed);
    - [Lunknown] — conservative top, conflicts with everything.

    Array provenance is a flow-insensitive, name-based points-to
    abstraction computed per function; function summaries are computed
    bottom-up over the call graph with a fixpoint for recursion. Effects on
    arrays that never escape a callee are invisible to its callers. *)

module Ir = Commset_ir.Ir
module Ast = Commset_lang.Ast
open Commset_support

type source =
  | Sglobal of string  (** arrays reachable from global [g] *)
  | Sparam of int  (** arrays passed via parameter [i] of the current function *)
  | Slocal of Ir.reg  (** arrays held in a local register (allocation inside) *)
  | Sunknown

type location = Lglobal of string | Lheap of source | Lext of string | Lunknown

module LocSet = Set.Make (struct
  type t = location

  let compare = compare
end)

type rw = { reads : LocSet.t; writes : LocSet.t }

let rw_empty = { reads = LocSet.empty; writes = LocSet.empty }
let rw_union a b = { reads = LocSet.union a.reads b.reads; writes = LocSet.union a.writes b.writes }
let add_read l rw = { rw with reads = LocSet.add l rw.reads }
let add_write l rw = { rw with writes = LocSet.add l rw.writes }

type update_role = No_update | Update_writer of string | Update_reader of string

(** Effect specification of a builtin, supplied by the runtime. *)
type builtin_spec = {
  bs_reads : string list;  (** abstract resources read *)
  bs_writes : string list;  (** abstract resources written *)
  bs_reads_arrays : int list;  (** argument positions whose array elements are read *)
  bs_writes_arrays : int list;  (** argument positions whose array elements are written *)
  bs_allocates : bool;  (** the result is a freshly allocated array *)
  bs_update : update_role;
}

type lookup = string -> builtin_spec option

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

module SrcSet = Set.Make (struct
  type t = source

  let compare = compare
end)

type prov = (Ir.reg, SrcSet.t) Hashtbl.t

let prov_of tbl r = Option.value ~default:SrcSet.empty (Hashtbl.find_opt tbl r)

let operand_prov tbl = function Ir.Reg r -> prov_of tbl r | Ir.Const _ -> SrcSet.empty

(** Summary of one function's effects, in its own terms. *)
type summary = {
  sm_rw : rw;  (** effects with [Sparam] relative to this function *)
  sm_ret_prov : SrcSet.t;  (** provenance of the returned array, if any *)
  sm_ret_fresh : bool;  (** the returned array is freshly allocated inside *)
}

let empty_summary = { sm_rw = rw_empty; sm_ret_prov = SrcSet.empty; sm_ret_fresh = false }

type t = {
  lookup : lookup;
  summaries : (string, summary) Hashtbl.t;
  provs : (string, prov) Hashtbl.t;
}

(* Compute array provenance for all registers of [f], given current callee
   summaries. Iterates to a fixpoint (monotone). *)
let compute_prov (lookup : lookup) summaries (f : Ir.func) : prov =
  let tbl : prov = Hashtbl.create 32 in
  List.iteri
    (fun i r ->
      match List.nth f.Ir.fparams i with
      | Ast.Tarray _, _ -> Hashtbl.replace tbl r (SrcSet.singleton (Sparam i))
      | _ -> ())
    f.Ir.param_regs;
  let changed = ref true in
  let update r srcs =
    if not (SrcSet.subset srcs (prov_of tbl r)) then begin
      Hashtbl.replace tbl r (SrcSet.union srcs (prov_of tbl r));
      changed := true
    end
  in
  while !changed do
    changed := false;
    Ir.iter_instrs f (fun _ i ->
        match i.Ir.desc with
        | Ir.Move (r, op) -> update r (operand_prov tbl op)
        | Ir.Load_global (r, g) -> update r (SrcSet.singleton (Sglobal g))
        | Ir.Load_index (r, arr, _) ->
            (* nested arrays collapse onto the outer provenance *)
            update r (operand_prov tbl arr)
        | Ir.Call { dst = Some r; callee; args; _ } -> (
            match lookup callee with
            | Some spec -> if spec.bs_allocates then update r (SrcSet.singleton (Slocal r))
            | None -> (
                match Hashtbl.find_opt summaries callee with
                | Some sm ->
                    let mapped =
                      SrcSet.fold
                        (fun src acc ->
                          match src with
                          | Sparam j -> (
                              match List.nth_opt args j with
                              | Some op -> SrcSet.union (operand_prov tbl op) acc
                              | None -> SrcSet.add Sunknown acc)
                          | Sglobal g -> SrcSet.add (Sglobal g) acc
                          | Slocal _ -> SrcSet.add (Slocal r) acc
                          | Sunknown -> SrcSet.add Sunknown acc)
                        sm.sm_ret_prov SrcSet.empty
                    in
                    let mapped =
                      if sm.sm_ret_fresh then SrcSet.add (Slocal r) mapped else mapped
                    in
                    update r mapped
                | None -> update r (SrcSet.singleton Sunknown)))
        | Ir.Call { dst = None; _ }
        | Ir.Binop _ | Ir.Unop _ | Ir.Store_global _ | Ir.Store_index _ ->
            ())
  done;
  tbl

let heap_locs srcs =
  SrcSet.fold (fun s acc -> LocSet.add (Lheap s) acc) srcs LocSet.empty

(* Effects of a single instruction of [f], in [f]'s own terms. *)
let instr_rw_with lookup summaries (prov : prov) (i : Ir.instr) : rw =
  match i.Ir.desc with
  | Ir.Move _ | Ir.Binop _ | Ir.Unop _ -> rw_empty
  | Ir.Load_global (_, g) -> add_read (Lglobal g) rw_empty
  | Ir.Store_global (g, _) -> add_write (Lglobal g) rw_empty
  | Ir.Load_index (_, arr, _) ->
      { rw_empty with reads = heap_locs (operand_prov prov arr) }
  | Ir.Store_index (arr, _, _) ->
      { rw_empty with writes = heap_locs (operand_prov prov arr) }
  | Ir.Call { callee; args; dst; _ } -> (
      match lookup callee with
      | Some spec ->
          let ext_locs names = List.fold_left (fun acc r -> LocSet.add (Lext r) acc) LocSet.empty names in
          let arg_heap positions =
            List.fold_left
              (fun acc p ->
                match List.nth_opt args p with
                | Some op -> LocSet.union (heap_locs (operand_prov prov op)) acc
                | None -> acc)
              LocSet.empty positions
          in
          {
            reads = LocSet.union (ext_locs spec.bs_reads) (arg_heap spec.bs_reads_arrays);
            writes = LocSet.union (ext_locs spec.bs_writes) (arg_heap spec.bs_writes_arrays);
          }
      | None -> (
          match Hashtbl.find_opt summaries callee with
          | Some sm ->
              (* instantiate the callee summary at this call site *)
              let map_loc loc acc =
                match loc with
                | Lglobal _ | Lext _ | Lunknown -> LocSet.add loc acc
                | Lheap (Sparam j) -> (
                    match List.nth_opt args j with
                    | Some op -> LocSet.union (heap_locs (operand_prov prov op)) acc
                    | None -> LocSet.add Lunknown acc)
                | Lheap (Sglobal g) -> LocSet.add (Lheap (Sglobal g)) acc
                | Lheap (Slocal _) -> (
                    (* effects on arrays local to the callee: visible to the
                       caller only through the returned array *)
                    match dst with
                    | Some r -> LocSet.add (Lheap (Slocal r)) acc
                    | None -> acc)
                | Lheap Sunknown -> LocSet.add (Lheap Sunknown) acc
              in
              {
                reads = LocSet.fold map_loc sm.sm_rw.reads LocSet.empty;
                writes = LocSet.fold map_loc sm.sm_rw.writes LocSet.empty;
              }
          | None -> { reads = LocSet.singleton Lunknown; writes = LocSet.singleton Lunknown }))

(* Summarize [f]'s externally visible effects. Effects on Slocal arrays
   that are returned become part of the freshly-returned object and are
   dropped from the summary (they happen-before the return). *)
let summarize lookup summaries prov (f : Ir.func) : summary =
  let rw = ref rw_empty in
  Ir.iter_instrs f (fun _ i -> rw := rw_union !rw (instr_rw_with lookup summaries prov i));
  let visible loc =
    match loc with
    | Lheap (Slocal _) -> false (* not visible outside unless via return; see above *)
    | Lglobal _ | Lext _ | Lheap _ | Lunknown -> true
  in
  let filter s = LocSet.filter visible s in
  let ret_prov = ref SrcSet.empty in
  let ret_fresh = ref false in
  (match f.Ir.fret with
  | Ast.Tarray _ ->
      List.iter
        (fun b ->
          match b.Ir.term with
          | Ir.Ret (Some (Ir.Reg r)) ->
              let srcs = prov_of prov r in
              SrcSet.iter
                (fun s ->
                  match s with
                  | Slocal _ -> ret_fresh := true
                  | other -> ret_prov := SrcSet.add other !ret_prov)
                srcs
          | _ -> ())
        (Ir.blocks_in_order f)
  | _ -> ());
  {
    sm_rw = { reads = filter !rw.reads; writes = filter !rw.writes };
    sm_ret_prov = !ret_prov;
    sm_ret_fresh = !ret_fresh;
  }

(** Build effect summaries for every function of [p], bottom-up over the
    call graph with iteration for recursive cycles. *)
let analyze (lookup : lookup) (p : Ir.program) : t =
  let summaries = Hashtbl.create 16 in
  let provs = Hashtbl.create 16 in
  (* call graph over user functions *)
  let g = Digraph.create () in
  List.iter (fun name -> Digraph.add_node g name) p.Ir.func_order;
  List.iter
    (fun name ->
      let f = Hashtbl.find p.Ir.funcs name in
      Ir.iter_instrs f (fun _ i ->
          match Ir.callee_of i with
          | Some callee when Hashtbl.mem p.Ir.funcs callee -> Digraph.add_edge g name callee
          | _ -> ()))
    p.Ir.func_order;
  (* Tarjan gives reverse topological order: callees before callers *)
  let sccs = Digraph.sccs g in
  List.iter
    (fun component ->
      (* iterate within the component until summaries stabilize *)
      let stable = ref false in
      let rounds = ref 0 in
      List.iter (fun name -> Hashtbl.replace summaries name empty_summary) component;
      while (not !stable) && !rounds < 10 do
        stable := true;
        incr rounds;
        List.iter
          (fun name ->
            let f = Hashtbl.find p.Ir.funcs name in
            let prov = compute_prov lookup summaries f in
            Hashtbl.replace provs name prov;
            let sm = summarize lookup summaries prov f in
            if Hashtbl.find_opt summaries name <> Some sm then begin
              Hashtbl.replace summaries name sm;
              stable := false
            end)
          component
      done)
    sccs;
  { lookup; summaries; provs }

let summary t name = Hashtbl.find_opt t.summaries name

let prov_of_func t name = Hashtbl.find_opt t.provs name

(** Instantiate an effect set expressed in a callee's own terms at a call
    site in [fname] with argument operands [args] and destination [dst]. *)
let instantiate_rw t ~fname ~(args : Ir.operand list) ~(dst : Ir.reg option) (callee_rw : rw) : rw
    =
  let prov =
    match Hashtbl.find_opt t.provs fname with Some p -> p | None -> Hashtbl.create 1
  in
  let map_loc loc acc =
    match loc with
    | Lglobal _ | Lext _ | Lunknown -> LocSet.add loc acc
    | Lheap (Sparam j) -> (
        match List.nth_opt args j with
        | Some op -> LocSet.union (heap_locs (operand_prov prov op)) acc
        | None -> LocSet.add Lunknown acc)
    | Lheap (Sglobal g) -> LocSet.add (Lheap (Sglobal g)) acc
    | Lheap (Slocal _) -> (
        match dst with Some r -> LocSet.add (Lheap (Slocal r)) acc | None -> acc)
    | Lheap Sunknown -> LocSet.add (Lheap Sunknown) acc
  in
  {
    reads = LocSet.fold map_loc callee_rw.reads LocSet.empty;
    writes = LocSet.fold map_loc callee_rw.writes LocSet.empty;
  }

(** Effects of a set of instructions of [fname], in [fname]'s own terms. *)
let instrs_rw t ~fname (instrs : Ir.instr list) : rw =
  match Hashtbl.find_opt t.provs fname with
  | Some prov ->
      List.fold_left
        (fun acc i -> rw_union acc (instr_rw_with t.lookup t.summaries prov i))
        rw_empty instrs
  | None -> { reads = LocSet.singleton Lunknown; writes = LocSet.singleton Lunknown }

(** Effects of one instruction of function [fname], in that function's own
    terms ([Sparam] indices refer to [fname]'s parameters). *)
let instr_rw t ~fname (i : Ir.instr) : rw =
  match Hashtbl.find_opt t.provs fname with
  | Some prov -> instr_rw_with t.lookup t.summaries prov i
  | None -> { reads = LocSet.singleton Lunknown; writes = LocSet.singleton Lunknown }

(* ------------------------------------------------------------------ *)
(* Conflicts                                                           *)
(* ------------------------------------------------------------------ *)

let locs_conflict a b =
  match (a, b) with
  | Lunknown, _ | _, Lunknown -> true
  | Lheap Sunknown, Lheap _ | Lheap _, Lheap Sunknown -> true
  | x, y -> x = y

let sets_conflict s1 s2 =
  LocSet.exists (fun l1 -> LocSet.exists (fun l2 -> locs_conflict l1 l2) s2) s1

(** Conflicting location pairs that make [a] and [b] dependent:
    write/write, write/read or read/write overlaps. *)
let conflict a b =
  sets_conflict a.writes b.writes || sets_conflict a.writes b.reads
  || sets_conflict a.reads b.writes

(** The locations of [a] involved in a conflict with [b]. *)
let conflict_locs a b =
  let overlap s1 s2 = LocSet.filter (fun l1 -> LocSet.exists (locs_conflict l1) s2) s1 in
  LocSet.union
    (overlap a.writes (LocSet.union b.reads b.writes))
    (overlap a.reads b.writes)

let pp_source ppf = function
  | Sglobal g -> Fmt.pf ppf "global:%s" g
  | Sparam i -> Fmt.pf ppf "param:%d" i
  | Slocal r -> Fmt.pf ppf "local:%%%d" r
  | Sunknown -> Fmt.string ppf "?"

let pp_location ppf = function
  | Lglobal g -> Fmt.pf ppf "g(%s)" g
  | Lheap s -> Fmt.pf ppf "heap(%a)" pp_source s
  | Lext r -> Fmt.pf ppf "ext(%s)" r
  | Lunknown -> Fmt.string ppf "unknown"

let pp_rw ppf rw =
  Fmt.pf ppf "reads{%a} writes{%a}"
    Fmt.(list ~sep:(any ",") pp_location)
    (LocSet.elements rw.reads)
    Fmt.(list ~sep:(any ",") pp_location)
    (LocSet.elements rw.writes)

(* ------------------------------------------------------------------ *)
(* Commutative-update classes                                          *)
(* ------------------------------------------------------------------ *)

(* Extern calls reachable from [body], transitively through user
   callees: (callee, has_dst) pairs. *)
let loop_extern_calls (program : Ir.program) (func : Ir.func) (body : Ir.label list) :
    (string * bool) list =
  let seen_funcs = Hashtbl.create 8 in
  let acc = ref [] in
  let rec scan_func (f : Ir.func) =
    if not (Hashtbl.mem seen_funcs f.Ir.fname) then begin
      Hashtbl.replace seen_funcs f.Ir.fname ();
      List.iter (fun b -> scan_block (Ir.block f b)) f.Ir.block_order
    end
  and scan_block (b : Ir.block) =
    List.iter
      (fun (i : Ir.instr) ->
        match i.Ir.desc with
        | Ir.Call { dst; callee; _ } -> (
            match Ir.find_func program callee with
            | Some f -> scan_func f
            | None -> acc := (callee, dst <> None) :: !acc)
        | _ -> ())
      b.Ir.instrs
  in
  List.iter (fun l -> scan_block (Ir.block func l)) body;
  !acc

let bufferable_updates (lookup : lookup) (program : Ir.program) (func : Ir.func)
    (body : Ir.label list) : (string, unit) Hashtbl.t =
  let calls = loop_extern_calls program func body in
  let role name = match lookup name with Some s -> s.bs_update | None -> No_update in
  let families = Hashtbl.create 4 in
  List.iter
    (fun (n, _) -> match role n with Update_writer f -> Hashtbl.replace families f () | _ -> ())
    calls;
  (* a reader in the loop, or a writer whose result is used, keeps the
     family unbuffered *)
  List.iter
    (fun (n, has_dst) ->
      match role n with
      | Update_reader f -> Hashtbl.remove families f
      | Update_writer f when has_dst -> Hashtbl.remove families f
      | _ -> ())
    calls;
  families

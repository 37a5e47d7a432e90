(** Per-member effect summaries with *operation classes*.

    The raw {!Effects} footprint says which abstract locations a member
    touches; to difference two interleavings we also need to know *how*
    each write combines with a concurrent write to the same location.
    Every write is classified:

    - [Accum]: commutative-associative accumulation (histogram add,
      statistics, bitmap OR, read-modify-write array updates) — any
      interleaving yields the same state;
    - [Multiset]: append to an order-insensitive sink (log, vector,
      output stream) — states are equal as multisets;
    - [Alloc]: allocator bump (fd table, heap ids) — states are equal up
      to handle renaming;
    - [Cursor]: advance of a shared cursor (packet queue, db rows,
      stream position) — positions commute, drawn values are exchanged;
    - [Rng]: pseudo-random stream draw — values are exchanged;
    - [Advance]: a deterministic self-update [g = f(g)] of one global
      (e.g. a hand-rolled linear-congruential generator): two instances
      apply the same [f] so both orders leave [f(f(g))], only the
      per-instance results are exchanged;
    - [Overwrite]: last-writer-wins store — commutes only when both
      interleavings provably store the same final value;
    - [Opaque]: no algebraic structure known.

    Accesses also carry a *key* operand when the touched resource is
    partitioned by one of the builtin's arguments (a bitmap handle, a
    file descriptor, a cache key): instances operating on provably
    distinct keys touch disjoint state regardless of class. Calls to
    user-defined functions are summarized transitively — the callee's
    per-location classes are lifted to the call site, with key operands
    rebound through parameter positions — instead of being opaque. *)

module Ir = Commset_ir.Ir
module Effects = Commset_analysis.Effects
module Metadata = Commset_core.Metadata
module Builtins = Commset_runtime.Builtins

type opclass =
  | Accum of string
  | Multiset of string
  | Alloc of string
  | Cursor of string
  | Rng
  | Advance of string
  | Overwrite
  | Opaque of string

let opclass_to_string = function
  | Accum s -> Printf.sprintf "accumulate(%s)" s
  | Multiset s -> Printf.sprintf "append(%s)" s
  | Alloc s -> Printf.sprintf "alloc(%s)" s
  | Cursor s -> Printf.sprintf "cursor(%s)" s
  | Rng -> "rng-draw"
  | Advance s -> Printf.sprintf "advance(%s)" s
  | Overwrite -> "overwrite"
  | Opaque s -> Printf.sprintf "opaque(%s)" s

(** One abstract-store access of a member. *)
type access = {
  aloc : Effects.location;
  awrite : bool;
  aclass : opclass;
  avalue : Ir.operand option;
      (** the stored operand, when the write is a [Store_global] whose
          value the differencing engine can reason about symbolically *)
  akey : Ir.operand option;
      (** the sub-resource key, in the summarized function's own frame *)
}

let read_access ?key l = { aloc = l; awrite = false; aclass = Opaque "read"; avalue = None; akey = key }

(* How a builtin's writes combine with a concurrent write to the same
   resource, from its descriptor. *)
let write_class (bi : Builtins.t) =
  match bi.Builtins.wclass with
  | Builtins.Accum s -> Accum s
  | Builtins.Multiset s -> Multiset s
  | Builtins.Alloc s -> Alloc s
  | Builtins.Cursor s -> Cursor s
  | Builtins.Rng -> Rng
  | Builtins.Overwrite -> Overwrite
  | Builtins.Opaque -> Opaque bi.Builtins.name

(* ---- transitive summarization of user-function calls ---------------- *)

(* The per-location (class, key) map of a callee, in the callee's own
   frame, joined over all of its instructions. Recursion through user
   callees is cycle-guarded by [visited]; a function in its own call
   chain contributes opaque accesses. *)

let join_class a b = if a = b then a else Opaque "mixed operation classes"

(* Lift a callee-frame key operand to the caller: parameters rebind to
   the call-site actual, constants survive, anything else is lost. *)
let lift_key (callee_f : Ir.func) (args : Ir.operand list) = function
  | Some (Ir.Const _ as k) -> Some k
  | Some (Ir.Reg r) -> (
      match List.find_index (fun pr -> pr = r) callee_f.Ir.param_regs with
      | Some i -> List.nth_opt args i
      | None -> None)
  | None -> None

let rec accesses_of_instr md ~fname ~visited (i : Ir.instr) : access list =
  let effects = md.Metadata.effects in
  let rw = Effects.instr_rw effects ~fname i in
  match i.Ir.desc with
  | Ir.Call { callee; args; _ } -> (
      match Builtins.find callee with
      | Some bi ->
          let wclass = write_class bi in
          (* a partitioned resource carries its key operand *)
          let key l =
            match (bi.Builtins.partition, l) with
            | Some (r, idx), Effects.Lext r' when r = r' -> List.nth_opt args idx
            | _ -> None
          in
          let mk awrite l =
            {
              aloc = l;
              awrite;
              aclass = (if awrite then wclass else Opaque "read");
              avalue = None;
              akey = key l;
            }
          in
          Effects.LocSet.fold
            (fun l acc -> mk true l :: acc)
            rw.Effects.writes
            (Effects.LocSet.fold (fun l acc -> mk false l :: acc) rw.Effects.reads [])
      | None -> accesses_of_user_call md ~fname ~visited ~callee ~args rw)
  | _ ->
      let wclass, wvalue =
        match i.Ir.desc with
        | Ir.Store_global (_, v) -> (Overwrite, Some v)
        | Ir.Store_index _ -> (Opaque "array element write", None)
        | _ -> (Opaque "write", None)
      in
      Effects.LocSet.fold
        (fun l acc ->
          { aloc = l; awrite = true; aclass = wclass; avalue = wvalue; akey = None }
          :: acc)
        rw.Effects.writes
        (Effects.LocSet.fold
           (fun l acc -> read_access l :: acc)
           rw.Effects.reads [])

(* A user call: the caller-frame footprint comes from {!Effects}
   (instantiated correctly there); the classes and keys come from the
   callee's own accesses, matched per location and lifted through the
   parameter binding. *)
and accesses_of_user_call md ~fname:_ ~visited ~callee ~args (rw : Effects.rw) :
    access list =
  let prog = md.Metadata.prog in
  let opaque_all () =
    let cls = Opaque (Printf.sprintf "call to '%s'" callee) in
    Effects.LocSet.fold
      (fun l acc ->
        { aloc = l; awrite = true; aclass = cls; avalue = None; akey = None } :: acc)
      rw.Effects.writes
      (Effects.LocSet.fold (fun l acc -> read_access l :: acc) rw.Effects.reads [])
  in
  match Ir.find_func prog callee with
  | None -> opaque_all ()
  | Some _ when List.mem callee visited -> opaque_all ()
  | Some cf ->
      let callee_accs =
        let acc = ref [] in
        Ir.iter_instrs cf (fun _ ci ->
            acc :=
              accesses_of_instr md ~fname:callee ~visited:(callee :: visited) ci
              :: !acc);
        List.concat (List.rev !acc)
      in
      (* class and key of the callee accesses matching a caller-frame
         location: precise for globals, named resources and
         global-rooted heap; joined over all param/local heap accesses
         otherwise (the instantiation may merge them) *)
      let summarize ~awrite (l : Effects.location) =
        let matches (a : access) =
          a.awrite = awrite
          &&
          match (l, a.aloc) with
          | Effects.Lglobal g, Effects.Lglobal g' -> g = g'
          | Effects.Lext e, Effects.Lext e' -> e = e'
          | Effects.Lheap (Effects.Sglobal g), Effects.Lheap (Effects.Sglobal g') ->
              g = g'
          | Effects.Lheap _, Effects.Lheap (Effects.Sglobal _) -> false
          | Effects.Lheap _, Effects.Lheap _ -> true
          | _ -> false
        in
        match List.filter matches callee_accs with
        | [] ->
            if awrite then (Opaque (Printf.sprintf "call to '%s'" callee), None)
            else (Opaque "read", None)
        | a0 :: rest ->
            let cls =
              List.fold_left (fun acc a -> join_class acc a.aclass) a0.aclass rest
            in
            let key =
              (* a single consistent callee-frame key, or nothing *)
              if List.for_all (fun a -> a.akey = a0.akey) rest then
                lift_key cf args a0.akey
              else None
            in
            ((if awrite then cls else Opaque "read"), key)
      in
      Effects.LocSet.fold
        (fun l acc ->
          let aclass, akey = summarize ~awrite:true l in
          { aloc = l; awrite = true; aclass; avalue = None; akey } :: acc)
        rw.Effects.writes
        (Effects.LocSet.fold
           (fun l acc ->
             let _, akey = summarize ~awrite:false l in
             read_access ?key:akey l :: acc)
           rw.Effects.reads [])

(** Summary of one commset member: its identity, owning function, the
    classified accesses of its body, and the raw footprint. *)
type t = {
  smember : Metadata.member;
  sowner : string;
  sacc : access list;
  srw : Effects.rw;
}

let instrs_of_member md (m : Metadata.member) : string * Ir.instr list =
  let prog = md.Metadata.prog in
  match m with
  | Metadata.Mregion (fname, rid) -> (
      match Ir.find_func prog fname with
      | None -> (fname, [])
      | Some f -> (fname, Metadata.region_instrs f rid))
  | Metadata.Mfun fname -> (
      match Ir.find_func prog fname with
      | None -> (fname, [])
      | Some f ->
          let acc = ref [] in
          Ir.iter_instrs f (fun _ i -> acc := i :: !acc);
          (fname, List.rev !acc))
  | Metadata.Mnamed (fname, bname) -> (
      match (Ir.find_func prog fname, Metadata.named_region md fname bname) with
      | Some f, Some r -> (fname, Metadata.region_instrs f r.Ir.rid)
      | _ -> (fname, []))

(* ---- structural recognition of algebraic write patterns ------------- *)

(* unique in-function definitions: reg -> instr when defined exactly once *)
let unique_defs (f : Ir.func) =
  let count = Hashtbl.create 64 and def = Hashtbl.create 64 in
  Ir.iter_instrs f (fun _ i ->
      List.iter
        (fun r ->
          Hashtbl.replace count r (1 + Option.value ~default:0 (Hashtbl.find_opt count r));
          Hashtbl.replace def r i)
        (Ir.instr_defs i));
  fun r ->
    match Hashtbl.find_opt count r with
    | Some 1 -> Hashtbl.find_opt def r
    | _ -> None

(* the root of an array operand: the global it was loaded from, or the
   register itself when it is not a (unique) global load *)
let array_root udef (op : Ir.operand) =
  match op with
  | Ir.Reg r -> (
      match udef r with
      | Some { Ir.desc = Ir.Load_global (_, g); _ } -> `Global g
      | _ -> `Reg r)
  | Ir.Const _ -> `Const

(* structural equality of value chains, following unique defs to a small
   depth: used to match the load and store addresses of an RMW *)
let rec chain_equal udef depth (a : Ir.operand) (b : Ir.operand) =
  depth > 0
  &&
  match (a, b) with
  | Ir.Const ca, Ir.Const cb -> ca = cb
  | Ir.Reg ra, Ir.Reg rb -> (
      ra = rb
      ||
      match (udef ra, udef rb) with
      | Some ia, Some ib -> (
          match (ia.Ir.desc, ib.Ir.desc) with
          | Ir.Binop (opa, tya, _, xa, ya), Ir.Binop (opb, tyb, _, xb, yb) ->
              opa = opb && tya = tyb
              && chain_equal udef (depth - 1) xa xb
              && chain_equal udef (depth - 1) ya yb
          | Ir.Unop (opa, tya, _, xa), Ir.Unop (opb, tyb, _, xb) ->
              opa = opb && tya = tyb && chain_equal udef (depth - 1) xa xb
          | Ir.Move (_, xa), Ir.Move (_, xb) -> chain_equal udef (depth - 1) xa xb
          | Ir.Load_global (_, ga), Ir.Load_global (_, gb) -> ga = gb
          | _ -> false)
      | _ -> false)
  | _ -> false

(* Does the chain of [op] (through unique defs) read any memory beyond
   the allowed set? [allow_global] admits loads of that one global (the
   self-update pattern); everything else — other global loads,
   array loads, calls — fails closed. *)
let rec chain_reads_only udef ?allow_global depth (op : Ir.operand) =
  depth > 0
  &&
  match op with
  | Ir.Const _ -> true
  | Ir.Reg r -> (
      match udef r with
      | None -> false (* multiply-defined or externally-defined: give up *)
      | Some i -> (
          match i.Ir.desc with
          | Ir.Binop (_, _, _, a, b) ->
              chain_reads_only udef ?allow_global (depth - 1) a
              && chain_reads_only udef ?allow_global (depth - 1) b
          | Ir.Unop (_, _, _, a) | Ir.Move (_, a) ->
              chain_reads_only udef ?allow_global (depth - 1) a
          | Ir.Load_global (_, g) -> allow_global = Some g
          | Ir.Load_index _ | Ir.Store_global _ | Ir.Store_index _ | Ir.Call _ ->
              false))

(* like [chain_reads_only] but for an RMW addend: loads are fine as long
   as they cannot alias anything the member writes *)
let rec chain_avoids_writes udef ~member_writes depth (op : Ir.operand) =
  depth > 0
  &&
  match op with
  | Ir.Const _ -> true
  | Ir.Reg r -> (
      match udef r with
      | None -> true (* defined outside the member pattern: an input value *)
      | Some i -> (
          match i.Ir.desc with
          | Ir.Binop (_, _, _, a, b) ->
              chain_avoids_writes udef ~member_writes (depth - 1) a
              && chain_avoids_writes udef ~member_writes (depth - 1) b
          | Ir.Unop (_, _, _, a) | Ir.Move (_, a) ->
              chain_avoids_writes udef ~member_writes (depth - 1) a
          | Ir.Load_global (_, g) ->
              not
                (Effects.LocSet.exists
                   (Effects.locs_conflict (Effects.Lglobal g))
                   member_writes)
          | Ir.Load_index (_, arr, _) -> (
              match array_root udef arr with
              | `Global g ->
                  not
                    (Effects.LocSet.exists
                       (Effects.locs_conflict (Effects.Lheap (Effects.Sglobal g)))
                       member_writes)
              | _ -> false)
          | Ir.Store_global _ | Ir.Store_index _ | Ir.Call _ -> false))

let chain_depth = 8

(* [a[e] op= v] recognition: the stored value is [load(a,e) op v] (or
   [v op load(a,e)] for commutative ops) where the load hits the same
   array and structurally the same index, and [v]'s chain reads nothing
   the member writes. Returns the operator symbol on success. *)
let rmw_of_store udef ~member_writes ~arr ~idx ~value =
  match value with
  | Ir.Const _ -> None
  | Ir.Reg vr -> (
      match udef vr with
      | Some { Ir.desc = Ir.Binop (op, _, _, a, b); _ }
        when op = Commset_lang.Ast.Add || op = Commset_lang.Ast.Sub
             || op = Commset_lang.Ast.Mul -> (
          let is_matching_load o =
            match o with
            | Ir.Reg lr -> (
                match udef lr with
                | Some { Ir.desc = Ir.Load_index (_, arr', idx'); _ } ->
                    array_root udef arr = array_root udef arr'
                    && chain_equal udef chain_depth idx idx'
                | _ -> false)
            | Ir.Const _ -> false
          in
          let commutes = op = Commset_lang.Ast.Add || op = Commset_lang.Ast.Mul in
          let pick =
            if is_matching_load a then Some b
            else if commutes && is_matching_load b then Some a
            else None
          in
          match pick with
          | Some addend
            when chain_avoids_writes udef ~member_writes chain_depth addend ->
              Some (Commset_lang.Ast.binop_to_string op)
          | _ -> None)
      | _ -> None)

(* Post-pass over a member's accesses: recognize read-modify-write array
   accumulation ([a[e] = a[e] + v]) and deterministic global
   self-updates ([g = f(g)], a state-machine advance) and upgrade the
   corresponding write classes. *)
let refine_structural md ~fname (instrs : Ir.instr list) (accs : access list) :
    access list =
  match Ir.find_func md.Metadata.prog fname with
  | None -> accs
  | Some f ->
      let udef = unique_defs f in
      let in_member i = List.exists (fun i' -> i'.Ir.iid = i.Ir.iid) instrs in
      let member_writes =
        List.fold_left
          (fun s (a : access) -> if a.awrite then Effects.LocSet.add a.aloc s else s)
          Effects.LocSet.empty accs
      in
      (* globals written only by qualifying self-update stores *)
      let advance_ok g =
        List.for_all
          (fun i ->
            if not (in_member i) then true
            else
              match i.Ir.desc with
              | Ir.Store_global (g', v) when g' = g ->
                  chain_reads_only udef ~allow_global:g chain_depth v
              | _ -> true)
          instrs
        && List.exists
             (fun i ->
               match i.Ir.desc with
               | Ir.Store_global (g', _) when g' = g -> in_member i
               | _ -> false)
             instrs
      in
      let advance_cache = Hashtbl.create 4 in
      let is_advance g =
        match Hashtbl.find_opt advance_cache g with
        | Some b -> b
        | None ->
            let b = advance_ok g in
            Hashtbl.add advance_cache g b;
            b
      in
      (* per-array-root RMW operator, when every member store to the root
         is a matching read-modify-write with one consistent operator *)
      let rmw_cache = Hashtbl.create 4 in
      let rmw_for root =
        match Hashtbl.find_opt rmw_cache root with
        | Some r -> r
        | None ->
            let ops =
              List.filter_map
                (fun i ->
                  match i.Ir.desc with
                  | Ir.Store_index (arr, idx, value)
                    when array_root udef arr = root ->
                      Some (rmw_of_store udef ~member_writes ~arr ~idx ~value)
                  | _ -> None)
                instrs
            in
            let r =
              match ops with
              | [] -> None
              | o :: rest ->
                  if List.for_all (fun o' -> o' = o) rest then o else None
            in
            Hashtbl.add rmw_cache root r;
            r
      in
      (* rebuild the accesses attributable to each instruction kind *)
      List.concat_map
        (fun (i : Ir.instr) ->
          let base = accesses_of_instr md ~fname ~visited:[] i in
          match i.Ir.desc with
          | Ir.Store_global (g, _) when is_advance g ->
              List.map
                (fun a ->
                  if a.awrite && a.aloc = Effects.Lglobal g then
                    {
                      a with
                      aclass = Advance (Printf.sprintf "%s@%s" g fname);
                      avalue = None;
                    }
                  else a)
                base
          | Ir.Store_index (arr, _, _) -> (
              let root = array_root udef arr in
              match rmw_for root with
              | Some op ->
                  let tag =
                    match root with
                    | `Global g -> Printf.sprintf "rmw(%s):%s" op g
                    | `Reg r -> Printf.sprintf "rmw(%s):r%d" op r
                    | `Const -> Printf.sprintf "rmw(%s)" op
                  in
                  List.map
                    (fun a ->
                      if a.awrite then { a with aclass = Accum tag } else a)
                    base
              | None -> base)
          | _ -> base)
        instrs

let of_member md (m : Metadata.member) : t =
  let effects = md.Metadata.effects in
  let fname, instrs = instrs_of_member md m in
  let raw = List.concat_map (accesses_of_instr md ~fname ~visited:[]) instrs in
  let sacc = refine_structural md ~fname instrs raw in
  let srw = Effects.instrs_rw effects ~fname instrs in
  { smember = m; sowner = fname; sacc; srw }

(** Does the member's summary mention [Lunknown] or an unprovenanced heap
    write, i.e. state the engines cannot attribute precisely? *)
let has_unanalyzable s =
  List.exists
    (fun a ->
      match a.aloc with
      | Effects.Lunknown -> true
      | Effects.Lheap (Effects.Sunknown) -> a.awrite
      | _ -> false)
    s.sacc

(** Differential tests: the prepared-program engine ({!Precompile}) must
    be observationally identical to the reference interpreter
    ({!Interp}, the oracle kept in this directory) — outputs, total
    cycles (bit-exact), diagnostics, fuel exhaustion points, final
    globals, the complete hook event stream on the hooked path, the
    block-level events on the coarse path, and the outcome of replaying
    each recorded commset instance — across every bundled workload,
    every annotation variant, and a set of handwritten corner cases. *)

module L = Commset_lang
module Ir = Commset_ir.Ir
module R = Commset_runtime
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
open Commset_support

let check = Alcotest.check

let compile src =
  let ast = L.Parser.parse_program ~file:"<diff>" src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  Commset_ir.Lower.lower_program ast

(* ---- event-stream observers ---------------------------------------- *)

let fbits (f : float) = Int64.to_int (Int64.bits_of_float f)

let rec enc_value = function
  | R.Value.Vint n -> "i" ^ string_of_int n
  | R.Value.Vfloat f -> "f" ^ string_of_int (fbits f)
  | R.Value.Vbool b -> "b" ^ string_of_bool b
  | R.Value.Vstring s -> "s" ^ String.escaped s
  | R.Value.Varray a ->
      "[" ^ String.concat ";" (List.map enc_value (Array.to_list a)) ^ "]"

let enc_actuals actuals =
  String.concat "|"
    (List.map
       (fun (set, vs) -> set ^ "=" ^ String.concat "," (List.map enc_value vs))
       actuals)

(** Record every hook event into [sink] as a canonical string. Exact but
    allocation-heavy: for the big workloads use {!hashing_hooks}. *)
let recording_hooks sink =
  let h = R.Precompile.null_hooks () in
  let add s = sink := s :: !sink in
  h.R.Precompile.on_instr <- (fun f i -> add (Printf.sprintf "I:%s:%d" f.Ir.fname i.Ir.iid));
  h.R.Precompile.on_block <- (fun f l -> add (Printf.sprintf "B:%s:%d" f.Ir.fname l));
  h.R.Precompile.on_base_cost <- (fun c -> add (Printf.sprintf "C:%d" (fbits c)));
  h.R.Precompile.on_builtin <-
    (fun bi c -> add (Printf.sprintf "X:%s:%d" bi.R.Builtins.name (fbits c)));
  h.R.Precompile.on_output <- (fun s -> add ("O:" ^ String.escaped s));
  h.R.Precompile.on_enter_func <- (fun f -> add ("E:" ^ f.Ir.fname));
  h.R.Precompile.on_exit_func <- (fun f -> add ("F:" ^ f.Ir.fname));
  h.R.Precompile.on_region_enter <-
    (fun f r actuals regs ->
      add
        (Printf.sprintf "R:%s:%d:%s:#%d" f.Ir.fname r.Ir.rid (enc_actuals actuals)
           (Array.length regs)));
  h.R.Precompile.on_call_actuals <-
    (fun i argv en ->
      add
        (Printf.sprintf "A:%d:%s:%s" i.Ir.iid
           (String.concat "," (List.map enc_value argv))
           (String.concat "|"
              (List.map (fun (blk, sets) -> blk ^ "{" ^ enc_actuals sets ^ "}") en))));
  h

(** Fold every hook event into a running hash + count, without storing
    the stream. Identical streams give identical (hash, count); a
    divergence at any event perturbs all later mixes. *)
let hashing_hooks acc count =
  let h = R.Precompile.null_hooks () in
  let mix x = acc := (!acc * 31) + x in
  let mixh v = mix (Hashtbl.hash v) in
  let ev tag =
    incr count;
    mix tag
  in
  h.R.Precompile.on_instr <-
    (fun f i ->
      ev 1;
      mixh f.Ir.fname;
      mix i.Ir.iid);
  h.R.Precompile.on_block <-
    (fun f l ->
      ev 2;
      mixh f.Ir.fname;
      mix l);
  h.R.Precompile.on_base_cost <-
    (fun c ->
      ev 3;
      mix (fbits c));
  h.R.Precompile.on_builtin <-
    (fun bi c ->
      ev 4;
      mixh bi.R.Builtins.name;
      mix (fbits c));
  h.R.Precompile.on_output <-
    (fun s ->
      ev 5;
      mixh s);
  h.R.Precompile.on_enter_func <-
    (fun f ->
      ev 6;
      mixh f.Ir.fname);
  h.R.Precompile.on_exit_func <-
    (fun f ->
      ev 7;
      mixh f.Ir.fname);
  h.R.Precompile.on_region_enter <-
    (fun f r actuals regs ->
      ev 8;
      mixh f.Ir.fname;
      mix r.Ir.rid;
      mixh (enc_actuals actuals);
      mix (Array.length regs));
  h.R.Precompile.on_call_actuals <-
    (fun i argv en ->
      ev 9;
      mix i.Ir.iid;
      mixh (List.map enc_value argv);
      List.iter
        (fun (blk, sets) ->
          mixh blk;
          mixh (enc_actuals sets))
        en);
  h

(* ---- run outcomes --------------------------------------------------- *)

type outcome = {
  o_result : (float, string) result;  (** total cycles, or trap message *)
  o_outputs : string list;
  o_globals : (string * string) list;  (** name, canonical value *)
}

let canon_globals l =
  List.sort compare (List.map (fun (n, v) -> (n, enc_value v)) l)

let run_reference ?hooks ?fuel ~setup prog =
  let machine = R.Machine.create () in
  setup machine;
  let interp = Interp.create ?hooks ?fuel ~machine prog in
  let result =
    match Interp.run_main interp with
    | total -> Ok total
    | exception Diag.Error d -> Error (Diag.to_string d)
    | exception R.Precompile.Out_of_fuel -> Error "<out of fuel>"
    | exception Not_found -> Error "<not found>"
  in
  {
    o_result = result;
    o_outputs = R.Machine.outputs machine;
    o_globals =
      canon_globals (Hashtbl.fold (fun n v l -> (n, v) :: l) interp.Interp.globals []);
  }

let run_prepared ?(run = R.Precompile.run_main) ?hooks ?fuel ~setup prepared =
  let machine = R.Machine.create () in
  setup machine;
  let ex = R.Precompile.executor ?hooks ?fuel ~machine prepared in
  let result =
    match run ex with
    | total -> Ok total
    | exception Diag.Error d -> Error (Diag.to_string d)
    | exception R.Precompile.Out_of_fuel -> Error "<out of fuel>"
    | exception Not_found -> Error "<not found>"
  in
  {
    o_result = result;
    o_outputs = R.Machine.outputs machine;
    o_globals = canon_globals (R.Precompile.globals ex);
  }

let result_t = Alcotest.(result (float 0.0) string)

let check_outcome what (expected : outcome) (got : outcome) =
  check result_t (what ^ ": total cycles") expected.o_result got.o_result;
  check Alcotest.(list string) (what ^ ": outputs") expected.o_outputs got.o_outputs;
  check
    Alcotest.(list (pair string string))
    (what ^ ": globals") expected.o_globals got.o_globals

(** Full differential on one program: fast path and instrumented path
    against the reference, plus exact hook-stream comparison. *)
let differential ?fuel ?(setup = fun _ -> ()) src =
  let prog = compile src in
  let prepared = R.Precompile.prepare prog in
  let ref_sink = ref [] in
  let reference = run_reference ~hooks:(recording_hooks ref_sink) ?fuel ~setup prog in
  let fast = run_prepared ?fuel ~setup prepared in
  check_outcome "fast path" reference fast;
  let ins_sink = ref [] in
  let instrumented =
    run_prepared ~hooks:(recording_hooks ins_sink) ?fuel ~setup prepared
  in
  check_outcome "instrumented path" reference instrumented;
  check Alcotest.(list string) "hook event stream" (List.rev !ref_sink)
    (List.rev !ins_sink)

(* ---- handwritten corner cases --------------------------------------- *)

let test_diff_basic () =
  differential
    {|
int g = 3;
float acc = 0.25;
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
void main() {
  int[] a = iarray(6);
  for (int i = 0; i < 6; i++) {
    a[i] = fib(i) * g;
  }
  float x = acc;
  for (int i = 0; i < 6; i++) {
    x = x + int_to_float(a[i]) / 3.0;
    acc = x;
  }
  g = g + alen_i(a);
  print(float_to_string(x));
  print(int_to_string(g));
}
|}

let test_diff_strings_bools () =
  differential
    {|
void main() {
  string s = "";
  bool flip = false;
  for (int i = 0; i < 10; i++) {
    flip = !flip;
    if (flip && (i % 3 != 0)) {
      s = s + int_to_string(i);
    }
    if (s > "145" || s == "1") {
      s = s + ".";
    }
  }
  print(s);
  print(md5_hex(s));
}
|}

let test_diff_float_edge () =
  (* 0.0 / 0.0 is nan: Eq must be false on both engines (IEEE), and the
     accumulated totals must agree bit-for-bit *)
  differential
    {|
void main() {
  float z = 0.0;
  float n = z / z;
  if (n == n) {
    print("nan equal");
  } else {
    print("nan not equal");
  }
  float big = 1.0;
  for (int i = 0; i < 30; i++) {
    big = big * 3.7 + 0.001;
  }
  print(float_to_string(big));
}
|}

let trap_message src =
  let prog = compile src in
  let reference = run_reference ~setup:(fun _ -> ()) prog in
  let fast = run_prepared ~setup:(fun _ -> ()) (R.Precompile.prepare prog) in
  check_outcome "trap" reference fast;
  match fast.o_result with
  | Error m -> m
  | Ok _ -> Alcotest.failf "expected %S to trap" src

let test_diff_traps () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let expect needle src =
    let m = trap_message src in
    check Alcotest.bool (Printf.sprintf "%S in %S" needle m) true (contains ~needle m)
  in
  expect "division by zero" "void main() { int x = 8; int y = x / (x - x); }";
  expect "modulo by zero" "void main() { int x = 8; int y = x % (x - x); }";
  expect "out of bounds" "void main() { int[] a = iarray(2); a[5] = 1; }";
  expect "out of bounds" "void main() { int[] a = iarray(2); int x = a[0 - 2]; }"

let test_diff_fuel () =
  (* both engines must exhaust fuel at the same point, for fuel values
     straddling block and instruction boundaries *)
  let src = "void main() { int x = 0; while (true) { x = x + 1; } }" in
  List.iter
    (fun fuel -> differential ~fuel src)
    [ 1; 2; 3; 7; 50; 51; 52; 53; 1000 ]

let test_diff_missing_arg () =
  (* lowering can't produce an arity mismatch from typechecked source, so
     drive exec directly: both engines report the same missing-argument
     diagnostic for main-with-params *)
  let src = "void main(int n) { print(int_to_string(n)); }" in
  let prog = compile src in
  let reference = run_reference ~setup:(fun _ -> ()) prog in
  let fast = run_prepared ~setup:(fun _ -> ()) (R.Precompile.prepare prog) in
  check_outcome "missing argument" reference fast;
  match fast.o_result with
  | Error m -> check Alcotest.bool "names argument 0" true (m <> "")
  | Ok _ -> Alcotest.fail "main(int) with no args must trap"

let test_fuel_diag () =
  (* the CLI and serve boundaries turn fuel exhaustion into CS017; a
     small fuel keeps the non-terminating run short *)
  let prog = compile "void main() { int x = 0; while (true) { x = x + 1; } }" in
  let ex = R.Precompile.executor ~fuel:100 (R.Precompile.prepare prog) in
  match R.Precompile.fuel_guard (fun () -> R.Precompile.run_main ex) with
  | _ -> Alcotest.fail "a non-terminating program must exhaust its fuel"
  | exception Diag.Error d ->
      check Alcotest.(option string) "code" (Some "CS017") d.Diag.code;
      check Alcotest.int "ran the whole budget" 100 (R.Precompile.steps ex)

(* ---- workload differentials ----------------------------------------- *)

let workload_differential (w : W.t) variant_name src () =
  let prog = compile src in
  let prepared = R.Precompile.prepare prog in
  let what fmt = Printf.sprintf fmt w.W.wname variant_name in
  (* fast path: outputs + bit-exact totals + final globals *)
  let reference = run_reference ~setup:w.W.setup prog in
  let fast = run_prepared ~setup:w.W.setup prepared in
  check_outcome (what "%s/%s fast") reference fast;
  (* instrumented path: full hook stream, compared as rolling hash +
     event count (the streams run to millions of events) *)
  let ref_acc = ref 0 and ref_n = ref 0 in
  let ins_acc = ref 0 and ins_n = ref 0 in
  let reference_h =
    run_reference ~hooks:(hashing_hooks ref_acc ref_n) ~setup:w.W.setup prog
  in
  let instrumented =
    run_prepared ~hooks:(hashing_hooks ins_acc ins_n) ~setup:w.W.setup prepared
  in
  check_outcome (what "%s/%s instrumented") reference_h instrumented;
  check Alcotest.int (what "%s/%s hook event count") !ref_n !ins_n;
  check Alcotest.int (what "%s/%s hook event hash") !ref_acc !ins_acc

(** Hash only the block- and function-level events: the subset the
    block-grained path fires (outputs are compared separately). *)
let coarse_hooks acc count =
  let h = R.Precompile.null_hooks () in
  let ev tag x =
    incr count;
    acc := (((!acc * 31) + tag) * 31) + Hashtbl.hash x
  in
  h.R.Precompile.on_block <- (fun f l -> ev 2 (f.Ir.fname, l));
  h.R.Precompile.on_enter_func <- (fun f -> ev 6 f.Ir.fname);
  h.R.Precompile.on_exit_func <- (fun f -> ev 7 f.Ir.fname);
  h

let workload_coarse_events (w : W.t) variant_name src () =
  let prog = compile src in
  let what fmt = Printf.sprintf fmt w.W.wname variant_name in
  let ref_acc = ref 0 and ref_n = ref 0 in
  let acc = ref 0 and n = ref 0 in
  let reference = run_reference ~hooks:(coarse_hooks ref_acc ref_n) ~setup:w.W.setup prog in
  let coarse =
    run_prepared ~run:R.Precompile.run_main_coarse ~hooks:(coarse_hooks acc n)
      ~setup:w.W.setup (R.Precompile.prepare prog)
  in
  check_outcome (what "%s/%s coarse") reference coarse;
  check Alcotest.int (what "%s/%s block event count") !ref_n !n;
  check Alcotest.int (what "%s/%s block event hash") !ref_acc !acc

(* ---- replay entries against the oracle ------------------------------ *)

module P = Commset_pipeline.Pipeline
module Dynamic = Commset_verify.Dynamic

let rec deep = function
  | R.Value.Varray a -> R.Value.Varray (Array.map deep a)
  | v -> v

type replayed = {
  r_result : (unit, string) result;
  r_machine : R.Machine.t;
  r_globals : (string * string) list;
  r_steps : int;
}

(** Run one recorded instance from its snapshot on the prepared entries
    and on the oracle, each on its own copy of the snapshot machine,
    globals and register file. *)
let replay_both ~fuel prepared (inv : Dynamic.inv) (snap_m, snap_g) =
  let outcome f =
    match f () with
    | () -> Ok ()
    | exception Diag.Error d -> Error (Diag.to_string d)
    | exception R.Precompile.Out_of_fuel -> Error "<out of fuel>"
  in
  let globals () = List.map (fun (k, v) -> (k, deep v)) snap_g in
  let m1 = R.Machine.clone snap_m in
  let ex = R.Precompile.executor ~fuel ~machine:m1 prepared in
  R.Precompile.set_globals ex (globals ());
  let r1 =
    outcome (fun () ->
        match inv.Dynamic.ibody with
        | Dynamic.Bregion { bfunc; bregion; bregs } ->
            R.Precompile.run_region ex bfunc bregion (Array.map deep bregs)
        | Dynamic.Bfun { bfunc; bargs } ->
            ignore (R.Precompile.run_func ex bfunc (List.map deep bargs)))
  in
  let m2 = R.Machine.clone snap_m in
  let t = Interp.create ~fuel ~machine:m2 (R.Precompile.program prepared) in
  Hashtbl.reset t.Interp.globals;
  List.iter (fun (k, v) -> Hashtbl.replace t.Interp.globals k v) (globals ());
  let r2 =
    outcome (fun () ->
        match inv.Dynamic.ibody with
        | Dynamic.Bregion { bfunc; bregion; bregs } ->
            Interp.exec_region t bfunc (Array.map deep bregs) bregion
        | Dynamic.Bfun { bfunc; bargs } ->
            ignore (Interp.exec_func t bfunc (List.map deep bargs)))
  in
  ( {
      r_result = r1;
      r_machine = m1;
      r_globals = canon_globals (R.Precompile.globals ex);
      r_steps = R.Precompile.steps ex;
    },
    {
      r_result = r2;
      r_machine = m2;
      r_globals = canon_globals (Hashtbl.fold (fun k v l -> (k, v) :: l) t.Interp.globals []);
      r_steps = fuel - t.Interp.fuel;
    } )

let check_replay what ((got, expected) : replayed * replayed) =
  check Alcotest.(result unit string) (what ^ ": outcome") expected.r_result got.r_result;
  check Alcotest.(list string) (what ^ ": machine diff") []
    (R.Machine.obs_diff expected.r_machine got.r_machine);
  check
    Alcotest.(list (pair string string))
    (what ^ ": globals") expected.r_globals got.r_globals;
  check Alcotest.int (what ^ ": steps") expected.r_steps got.r_steps

(** Every instance the verifier's recording run snapshots. *)
let snapshotted (w : W.t) src =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup src in
  let invs =
    Dynamic.record ~max_snapshots:2 ~prepared:c.P.prepared ~md:c.P.md ~setup:w.W.setup
  in
  (c.P.prepared, List.filter_map (fun i -> Option.map (fun s -> (i, s)) i.Dynamic.isnap) invs)

let workload_replay (w : W.t) variant_name src () =
  let prepared, snaps = snapshotted w src in
  List.iter
    (fun ((inv : Dynamic.inv), snap) ->
      check_replay
        (Printf.sprintf "%s/%s instance #%d" w.W.wname variant_name inv.Dynamic.iseq)
        (replay_both ~fuel:2_000_000 prepared inv snap))
    snaps

let test_replay_fuel () =
  (* the longest region instance under every fuel up to one past its
     step count: both engines run out at the same step, and a budget
     that covers the instance completes on both (leaving the region
     costs no fuel) *)
  let w = Option.get (Registry.find "potrace") in
  let prepared, snaps = snapshotted w w.W.source in
  let n, (inv, snap) =
    List.fold_left
      (fun ((best, _) as acc) (((i : Dynamic.inv), snap) as cand) ->
        match i.Dynamic.ibody with
        | Dynamic.Bfun _ -> acc
        | Dynamic.Bregion _ ->
            let full, _ = replay_both ~fuel:2_000_000 prepared i snap in
            if full.r_steps > best then (full.r_steps, cand) else acc)
      (0, List.hd snaps) snaps
  in
  check Alcotest.bool (Printf.sprintf "instance takes %d steps" n) true (n > 3);
  List.iter
    (fun fuel ->
      let ((got, _) as both) = replay_both ~fuel prepared inv snap in
      check_replay (Printf.sprintf "fuel %d of %d" fuel n) both;
      check Alcotest.bool
        (Printf.sprintf "fuel %d of %d runs out" fuel n)
        (fuel < n)
        (got.r_result = Error "<out of fuel>"))
    (List.init (n + 1) (fun i -> i + 1))

let workload_cases =
  List.concat_map
    (fun (w : W.t) ->
      let cases name src =
        List.map
          (fun (kind, f) ->
            Alcotest.test_case (Printf.sprintf "%s/%s %s" w.W.wname name kind) `Slow
              (f w name src))
          [
            ("differential", workload_differential);
            ("coarse events", workload_coarse_events);
            ("replay vs oracle", workload_replay);
          ]
      in
      cases "base" w.W.source
      @ List.concat_map (fun (vname, vsrc) -> cases vname vsrc) w.W.variants)
    Registry.all

let suite =
  ( "precompile",
    [
      Alcotest.test_case "basic differential" `Quick test_diff_basic;
      Alcotest.test_case "strings and bools" `Quick test_diff_strings_bools;
      Alcotest.test_case "float edge cases" `Quick test_diff_float_edge;
      Alcotest.test_case "traps" `Quick test_diff_traps;
      Alcotest.test_case "fuel parity" `Quick test_diff_fuel;
      Alcotest.test_case "missing argument" `Quick test_diff_missing_arg;
      Alcotest.test_case "fuel exhaustion is CS017" `Quick test_fuel_diag;
      Alcotest.test_case "replay fuel parity" `Quick test_replay_fuel;
    ]
    @ workload_cases )

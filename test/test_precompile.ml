(** Differential tests: the prepared-program engine ({!Precompile}) must
    be observationally identical to the reference interpreter
    ({!Interp}, the oracle kept in this directory) — outputs, total
    cycles (bit-exact), diagnostics, fuel exhaustion points, final
    globals, the events an observed run carries (block entries, region
    entries with their actuals, calls with their arguments and enables,
    returns, builtins and outputs) against the oracle's event stream
    filtered to those, the block-grained events alone, and the outcome
    of replaying each recorded commset instance — across every bundled
    workload, every annotation variant, and a set of handwritten corner
    cases. *)

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

(** One consumer of the events an observed run carries, in the order
    the reference fires them. {!hooks_of} and {!observer_of} deliver the
    same events to it from the oracle and from the fast loop. *)
type events = {
  ev_block : Ir.func -> Ir.label -> unit;
  ev_region : Ir.func -> Ir.region -> (string * R.Value.t list) list -> R.Value.t array -> unit;
  ev_enter : Ir.func -> unit;
  ev_call : string -> R.Value.t list -> (string * (string * R.Value.t list) list) list -> unit;
  ev_exit : Ir.func -> unit;
  ev_builtin : R.Builtins.t -> float -> unit;
  ev_output : string -> unit;
}

(* The oracle's hooks, filtered to [e]'s events: per-instruction and
   per-cost events are not observed. With [coarse], only block entries,
   calls and returns, what a block-grained observer hears. *)
let hooks_of ?(coarse = false) (e : events) : Interp.hooks =
  let h = Interp.null_hooks () in
  h.Interp.on_block <- e.ev_block;
  h.Interp.on_enter_func <- e.ev_enter;
  h.Interp.on_exit_func <- e.ev_exit;
  if not coarse then begin
    h.Interp.on_region_enter <- e.ev_region;
    h.Interp.on_call_actuals <-
      (fun i argv en -> e.ev_call (Option.get (Ir.callee_of i)) argv en);
    h.Interp.on_builtin <- e.ev_builtin;
    h.Interp.on_output <- e.ev_output
  end;
  h

(* The fast loop's observer of [e]'s events; outputs come through the
   machine's sink, which {!run_prepared} wraps. *)
let observer_of ?(coarse = false) (e : events) : R.Precompile.observer =
  {
    R.Precompile.on_block = e.ev_block;
    on_region = (if coarse then None else Some e.ev_region);
    on_enter = e.ev_enter;
    on_call = (if coarse then None else Some (fun f -> e.ev_call f.Ir.fname));
    on_exit = e.ev_exit;
    on_builtin = (if coarse then None else Some e.ev_builtin);
  }

(** Record every event into [sink] as a canonical string. Exact but
    allocation-heavy: for the big workloads use {!hashing_events}. *)
let recording_events sink =
  let add s = sink := s :: !sink in
  {
    ev_block = (fun f l -> add (Printf.sprintf "B:%s:%d" f.Ir.fname l));
    ev_region =
      (fun f r actuals regs ->
        add
          (Printf.sprintf "R:%s:%d:%s:#%d" f.Ir.fname r.Ir.rid (enc_actuals actuals)
             (Array.length regs)));
    ev_enter = (fun f -> add ("E:" ^ f.Ir.fname));
    ev_call =
      (fun callee argv en ->
        add
          (Printf.sprintf "A:%s:%s:%s" callee
             (String.concat "," (List.map enc_value argv))
             (String.concat "|"
                (List.map (fun (blk, sets) -> blk ^ "{" ^ enc_actuals sets ^ "}") en))));
    ev_exit = (fun f -> add ("F:" ^ f.Ir.fname));
    ev_builtin = (fun bi c -> add (Printf.sprintf "X:%s:%d" bi.R.Builtins.name (fbits c)));
    ev_output = (fun s -> add ("O:" ^ String.escaped s));
  }

(** Fold every event into a running hash + count, without storing the
    stream. Identical streams give identical (hash, count); a divergence
    at any event perturbs all later mixes. *)
let hashing_events acc count =
  let mix x = acc := (!acc * 31) + x in
  let mixh v = mix (Hashtbl.hash v) in
  let ev tag =
    incr count;
    mix tag
  in
  {
    ev_block =
      (fun f l ->
        ev 2;
        mixh f.Ir.fname;
        mix l);
    ev_region =
      (fun f r actuals regs ->
        ev 8;
        mixh f.Ir.fname;
        mix r.Ir.rid;
        mixh (enc_actuals actuals);
        mix (Array.length regs));
    ev_enter =
      (fun f ->
        ev 6;
        mixh f.Ir.fname);
    ev_call =
      (fun callee argv en ->
        ev 9;
        mixh callee;
        mixh (List.map enc_value argv);
        List.iter
          (fun (blk, sets) ->
            mixh blk;
            mixh (enc_actuals sets))
          en);
    ev_exit =
      (fun f ->
        ev 7;
        mixh f.Ir.fname);
    ev_builtin =
      (fun bi c ->
        ev 4;
        mixh bi.R.Builtins.name;
        mix (fbits c));
    ev_output =
      (fun s ->
        ev 5;
        mixh s);
  }

(* ---- run outcomes --------------------------------------------------- *)

type outcome = {
  o_result : (float, string) result;  (** total cycles, or trap message *)
  o_outputs : string list;
  o_globals : (string * string) list;  (** name, canonical value *)
}

let canon_globals l =
  List.sort compare (List.map (fun (n, v) -> (n, enc_value v)) l)

let run_reference ?events ?coarse ?fuel ~setup prog =
  let machine = R.Machine.create () in
  setup machine;
  let interp = Interp.create ?hooks:(Option.map (hooks_of ?coarse) events) ?fuel ~machine prog in
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

(* the fast loop, plain or observed; a full observer also hears the
   outputs, through the machine's sink *)
let run_prepared ?events ?(coarse = false) ?fuel ~setup prepared =
  let machine = R.Machine.create () in
  setup machine;
  let ex = R.Precompile.executor ?fuel ~machine prepared in
  let run () =
    match events with
    | None -> R.Precompile.run_main ex
    | Some e ->
        if not coarse then
          machine.R.Machine.emit <-
            (fun s ->
              R.Machine.default_emit machine s;
              e.ev_output s);
        R.Precompile.run_observed ex (observer_of ~coarse e)
  in
  let result =
    match run () with
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

(** Full differential on one program: the plain fast loop, an observed
    run and a block-grained observed run against the reference, with
    exact comparison of each observed event stream. *)
let differential_prog ?fuel ?(setup = fun _ -> ()) prog =
  let prepared = R.Precompile.prepare prog in
  let fast = run_prepared ?fuel ~setup prepared in
  List.iter
    (fun coarse ->
      let what = if coarse then "block-grained" else "observed" in
      let ref_sink = ref [] and obs_sink = ref [] in
      let reference = run_reference ~events:(recording_events ref_sink) ~coarse ?fuel ~setup prog in
      check_outcome "fast path" reference fast;
      let observed = run_prepared ~events:(recording_events obs_sink) ~coarse ?fuel ~setup prepared in
      check_outcome (what ^ " path") reference observed;
      check Alcotest.(list string) (what ^ " event stream") (List.rev !ref_sink)
        (List.rev !obs_sink))
    [ false; true ]

let differential ?fuel ?setup src = differential_prog ?fuel ?setup (compile src)

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

let test_diff_binop_shapes () =
  (* int + - * / % < <= > >= and float + - * / < <= > >= on both
     operand shapes [Precompile] reads in place, register and register
     (a op b) and register and constant (a op 3 / a op 0.5), plus the
     generic constant-and-register shape (3 op b); the values cover int
     wrap-around, nan, both zeros and both infinities *)
  differential
    {|
int gi = 0;
float gf = 0.0;
bool gb = false;
string b2s(bool b) {
  gb = b;
  if (b) {
    return "t";
  }
  return "f";
}
string ints(int a, int b) {
  int r1 = a + b;
  int r2 = a - b;
  int r3 = a * b;
  int k1 = a + 3;
  int k2 = a - 3;
  int k3 = a * 3;
  int c1 = 3 + b;
  int c2 = 3 - b;
  int c3 = 3 * b;
  int d = b + 8;
  int q1 = a / d;
  int q2 = a % d;
  int q3 = a / 3;
  int q4 = a % 3;
  int q5 = 3 / d;
  gi = r1 + r2 + r3 + k1 + k2 + k3 - c3;
  return int_to_string(q1) + " " + int_to_string(q2) + " " + int_to_string(q3) + " "
    + int_to_string(q4) + " " + int_to_string(q5) + " "
    + int_to_string(r1) + " " + int_to_string(r2) + " " + int_to_string(r3) + " "
    + int_to_string(k1) + " " + int_to_string(k2) + " " + int_to_string(k3) + " "
    + int_to_string(c1) + " " + int_to_string(c2) + " " + int_to_string(c3) + " "
    + b2s(a < b) + b2s(a <= b) + b2s(a > b) + b2s(a >= b)
    + b2s(a < 3) + b2s(a <= 3) + b2s(a > 3) + b2s(a >= 3)
    + b2s(3 < b) + b2s(3 <= b) + b2s(3 > b) + b2s(3 >= b);
}
string floats(float a, float b) {
  float r1 = a + b;
  float r2 = a - b;
  float r3 = a * b;
  float r4 = a / b;
  float k1 = a + 0.5;
  float k2 = a - 0.5;
  float k3 = a * 0.5;
  float k4 = a / 0.5;
  float z1 = a * 0.0;
  float z2 = a / 0.0;
  float c1 = 0.5 + b;
  float c4 = 0.5 / b;
  gf = r4;
  return float_to_string(r1) + " " + float_to_string(r2) + " " + float_to_string(r3) + " "
    + float_to_string(r4) + " " + float_to_string(k1) + " " + float_to_string(k2) + " "
    + float_to_string(k3) + " " + float_to_string(k4) + " " + float_to_string(z1) + " "
    + float_to_string(z2) + " " + float_to_string(c1) + " " + float_to_string(c4) + " "
    + b2s(a < b) + b2s(a <= b) + b2s(a > b) + b2s(a >= b)
    + b2s(a < 0.5) + b2s(a <= 0.5) + b2s(a > 0.5) + b2s(a >= 0.5)
    + b2s(a < 0.0) + b2s(a <= 0.0) + b2s(a > 0.0) + b2s(a >= 0.0)
    + b2s(0.5 < b) + b2s(0.5 <= b) + b2s(0.5 > b) + b2s(0.5 >= b);
}
void main() {
  int big = 4611686018427387903;
  int[] iv = iarray(7);
  iv[0] = 0;
  iv[1] = 3;
  iv[2] = 0 - 7;
  iv[3] = big;
  iv[4] = 0 - big - 1;
  iv[5] = big / 2 + 1;
  iv[6] = 2;
  for (int i = 0; i < 7; i++) {
    for (int j = 0; j < 7; j++) {
      print(ints(iv[i], iv[j]));
    }
  }
  float zero = 0.0;
  float[] fv = farray(9);
  fv[0] = zero;
  fv[1] = -zero;
  fv[2] = 1.0 / zero;
  fv[3] = -fv[2];
  fv[4] = zero / zero;
  fv[5] = 0.5;
  fv[6] = 0.0 - 2.25;
  fv[7] = 1.0;
  for (int k = 0; k < 1000; k++) {
    fv[7] = fv[7] * 2.0;
  }
  fv[8] = fv[7] * fv[7];
  for (int i = 0; i < 9; i++) {
    for (int j = 0; j < 9; j++) {
      print(floats(fv[i], fv[j]));
    }
  }
  print(b2s(big + 1 < 0) + b2s(big * 2 < big) + b2s(gf == gf));
}
|}

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A [main] of one block, built directly: lowering never produces an
   ill-typed operand. *)
let ir_main ~globals (descs : Ir.instr_desc list) : Ir.program =
  let instrs =
    List.mapi (fun iid desc -> { Ir.iid; desc; iloc = Loc.dummy; iregions = [] }) descs
  in
  let blocks = Hashtbl.create 1 in
  Hashtbl.replace blocks 0 { Ir.label = 0; instrs; term = Ir.Ret None; bregions = [] };
  let main =
    {
      Ir.fname = "main";
      fparams = [];
      param_regs = [];
      fret = L.Ast.Tvoid;
      entry = 0;
      blocks;
      block_order = [ 0 ];
      reg_names = Hashtbl.create 1;
      reg_types = Hashtbl.create 1;
      n_regs = 8;
      n_labels = 1;
      n_instrs = List.length instrs;
      fregions = [];
      loop_locals = [];
    }
  in
  let funcs = Hashtbl.create 1 in
  Hashtbl.replace funcs "main" main;
  {
    Ir.funcs;
    func_order = [ "main" ];
    prog_globals = globals;
    source = { L.Ast.global_pragmas = []; decls = [] };
  }

let test_diff_binop_ill_typed () =
  (* each int and float arithmetic and comparison binop computes on
     well-typed registers (both in-place shapes, results stored to
     globals), then meets an ill-typed register on the left or right of
     the register shape or on the left of the constant shape; the trap,
     the globals, the bit-exact total and the hook stream must match the
     oracle's *)
  let open L.Ast in
  let ops ty = List.map (fun op -> (op, ty)) in
  List.iter
    (fun (op, ty) ->
      let a, b, bad, expected =
        match ty with
        | Tint -> (Ir.Cint 7, Ir.Cint 3, Ir.Cfloat 1.5, "runtime: value is not an int")
        | _ -> (Ir.Cfloat 2.5, Ir.Cfloat 0.25, Ir.Cint 1, "runtime: value is not a float")
      in
      List.iter
        (fun (x, y) ->
          let prog =
            ir_main
              ~globals:[ ("g", ty, a); ("h", ty, a) ]
              Ir.
                [
                  Move (0, Const a);
                  Move (1, Const b);
                  Move (2, Const bad);
                  Binop (op, ty, 3, Reg 0, Reg 1);
                  Store_global ("g", Reg 3);
                  Binop (op, ty, 4, Reg 0, Const b);
                  Store_global ("h", Reg 4);
                  Binop (op, ty, 5, x, y);
                  Store_global ("g", Reg 5);
                ]
          in
          differential_prog prog;
          match run_prepared ~setup:ignore (R.Precompile.prepare prog) with
          | { o_result = Error m; _ } ->
              check Alcotest.bool (Printf.sprintf "%S in %S" expected m) true
                (contains ~needle:expected m)
          | { o_result = Ok _; _ } -> Alcotest.fail "an ill-typed operand must trap")
        [ (Ir.Reg 2, Ir.Reg 1); (Ir.Reg 0, Ir.Reg 2); (Ir.Reg 2, Ir.Const b) ])
    (ops Tint [ Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge ]
    @ ops Tfloat [ Add; Sub; Mul; Div; Lt; Le; Gt; Ge ])

let trap_message src =
  let prog = compile src in
  let reference = run_reference ~setup:(fun _ -> ()) prog in
  let fast = run_prepared ~setup:(fun _ -> ()) (R.Precompile.prepare prog) in
  check_outcome "trap" reference fast;
  match fast.o_result with
  | Error m -> m
  | Ok _ -> Alcotest.failf "expected %S to trap" src

let test_diff_traps () =
  let expect needle src =
    let m = trap_message src in
    check Alcotest.bool (Printf.sprintf "%S in %S" needle m) true (contains ~needle m)
  in
  (* each trap carries CS018, the runtime-trap code *)
  let expect needle src =
    expect needle src;
    expect "error[CS018]" src
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

(* ---- allocation ------------------------------------------------------ *)

(* Counts, not timings: [Gc.minor_words] counts the words this domain
   allocated, and the numbers below are fixed by the code generated for
   the loops. *)

let test_alloc_per_step () =
  (* per iteration: 7 steps, one boxed [Vint] (2 words) and one boxed
     [Vfloat] (4 words); the comparison, the charges and the branch
     allocate nothing *)
  let prog =
    compile
      "void main() { int i = 0; float x = 0.0; while (i < 100000) { x = x + 0.5; i = i + 1; } }"
  in
  let ex = R.Precompile.executor (R.Precompile.prepare prog) in
  let w0 = Gc.minor_words () in
  ignore (R.Precompile.run_main ex : float);
  let words = Gc.minor_words () -. w0 in
  let steps = R.Precompile.steps ex in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words over %d steps is at most 1 per step" words steps)
    true
    (words <= float_of_int steps)

let test_alloc_charge () =
  let ex = R.Precompile.executor (R.Precompile.prepare (compile "void main() { }")) in
  let st = R.Precompile.worker_state ex ~fuel:max_int in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    R.Precompile.wstate_charge st ~steps:1 ~cost:1.5
  done;
  let words = Gc.minor_words () -. w0 in
  check (Alcotest.float 0.) "minor words over 1000 charges" 0. words;
  check (Alcotest.float 0.) "total" 1500. (R.Precompile.wstate_total st)

(* ---- workload differentials ----------------------------------------- *)

(** The observed events of one run against the oracle's, as rolling
    hash + event count (the streams run to millions of events). *)
let observed_events ~coarse what ~setup prog prepared =
  let ref_acc = ref 0 and ref_n = ref 0 in
  let acc = ref 0 and n = ref 0 in
  let reference = run_reference ~events:(hashing_events ref_acc ref_n) ~coarse ~setup prog in
  let observed = run_prepared ~events:(hashing_events acc n) ~coarse ~setup prepared in
  check_outcome what reference observed;
  check Alcotest.int (what ^ ": event count") !ref_n !n;
  check Alcotest.int (what ^ ": event hash") !ref_acc !acc

let workload_differential (w : W.t) variant_name src () =
  let prog = compile src in
  let prepared = R.Precompile.prepare prog in
  let what fmt = Printf.sprintf fmt w.W.wname variant_name in
  (* fast path: outputs + bit-exact totals + final globals *)
  let reference = run_reference ~setup:w.W.setup prog in
  let fast = run_prepared ~setup:w.W.setup prepared in
  check_outcome (what "%s/%s fast") reference fast;
  (* observed path: every event an observed run carries *)
  observed_events ~coarse:false (what "%s/%s observed") ~setup:w.W.setup prog prepared

(* The block-grained observer's events (block entries, calls, returns;
   what the profiler hears): outputs are compared separately. *)
let workload_coarse_events (w : W.t) variant_name src () =
  let prog = compile src in
  observed_events ~coarse:true
    (Printf.sprintf "%s/%s block-grained" w.W.wname variant_name)
    ~setup:w.W.setup prog (R.Precompile.prepare prog)

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

(** Every instance the verifier records in the compile's one run, which
    it taps. *)
let recorded_instances setup (c : P.t) =
  let rc = Dynamic.recording ~md:c.P.md c.P.prepared in
  let machine = R.Machine.create () in
  setup machine;
  ignore (R.Profile.run ~tap:(Dynamic.tap rc) ~machine c.P.prepared);
  Dynamic.instances rc

let snapshotted (w : W.t) src =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup src in
  ( c.P.prepared,
    List.filter_map
      (fun i -> Option.map (fun s -> (i, s)) i.Dynamic.isnap)
      (recorded_instances w.W.setup c) )

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
      Alcotest.test_case "specialized binop shapes" `Quick test_diff_binop_shapes;
      Alcotest.test_case "specialized binops, ill-typed operands" `Quick
        test_diff_binop_ill_typed;
      Alcotest.test_case "traps" `Quick test_diff_traps;
      Alcotest.test_case "fuel parity" `Quick test_diff_fuel;
      Alcotest.test_case "missing argument" `Quick test_diff_missing_arg;
      Alcotest.test_case "fuel exhaustion is CS017" `Quick test_fuel_diag;
      Alcotest.test_case "replay fuel parity" `Quick test_replay_fuel;
      Alcotest.test_case "fast loop allocates at most a word per step" `Quick
        test_alloc_per_step;
      Alcotest.test_case "a worker charge allocates nothing" `Quick test_alloc_charge;
    ]
    @ workload_cases )

(** Tests for the miniC→OCaml codegen backend: the differential suite
    pins [~engine:Codegen_engine] and asserts every workload's every
    executable plan actually ran compiled (no silent fallback to the
    interpreted real engine) and matched the sequential reference at
    jobs 1, 2 and 4; codegen-vs-interpreter cross-checks compare
    outputs and retired instruction counts on the same compilation; the
    cache tests cover warm in-process hits and recovery from a
    corrupted on-disk [.cmxs]; the engine's own sequential leg (the
    compiled body driven inline, its speedup baseline) must print the
    sequential reference on every workload; and a qcheck property
    compiles random small loop bodies and checks the generated code
    agrees with {!Commset_runtime.Precompile.run_iteration} (the
    interpreted real engine) on outputs and steps. *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module R = Commset_runtime
module Exec = Commset_exec.Exec
module Pdg = Commset_pdg.Pdg
module Loops = Commset_analysis.Loops
module Codegen = Commset_codegen.Codegen
module Realexec = Commset_exec.Realexec

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- engine selection API ---- *)

let test_engine_names () =
  check Alcotest.string "codegen" "codegen"
    (Exec.engine_name Exec.Codegen_engine);
  check Alcotest.bool "engines lists codegen" true
    (List.assoc_opt "codegen" Exec.engines = Some Exec.Codegen_engine);
  check Alcotest.bool "junk is no engine" true (List.assoc_opt "jit" Exec.engines = None)

(* ---- differential suite: explicit codegen engine, no fallback ---- *)

let codegen_all_plans (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  List.iter
    (fun jobs ->
      List.iter
        (fun (plan : T.Plan.t) ->
          let x = P.run_parallel ~engine:Exec.Codegen_engine ~jobs c plan in
          (if x.P.xstats.Exec.x_engine <> "codegen" then
             let why =
               Option.value ~default:"(no reason)"
                 x.P.xstats.Exec.x_engine_reason
             in
             Alcotest.failf "%s: %s at %d job(s): fell back to %s: %s" w.W.wname
               plan.T.Plan.label jobs x.P.xstats.Exec.x_engine why);
          if x.P.xfidelity = P.Mismatch then
            Alcotest.failf "%s: %s at %d job(s): output mismatch" w.W.wname
              plan.T.Plan.label jobs;
          check Alcotest.bool
            (Printf.sprintf "%s at %d job(s): iterations executed"
               plan.T.Plan.label jobs)
            true
            (x.P.xstats.Exec.x_iterations > 0))
        (P.executable_plans c ~threads:jobs))
    [ 1; 2; 4 ]

let differential_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: codegen engine, no fallback, jobs 1/2/4" w.W.wname)
        `Quick (codegen_all_plans w))
    Registry.all

(* ---- codegen vs interpreted real engine on one compilation ---- *)

let test_codegen_vs_real () =
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  match P.executable_plans c ~threads:2 with
  | [] -> Alcotest.fail "no executable plan at 2 jobs"
  | plan :: _ ->
      let real = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 c plan in
      let cg = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
      check Alcotest.string "real engine ran" "real" real.P.xstats.Exec.x_engine;
      check Alcotest.string "codegen engine ran" "codegen"
        cg.P.xstats.Exec.x_engine;
      check Alcotest.bool "real matches reference" true
        (real.P.xfidelity <> P.Mismatch);
      check Alcotest.bool "codegen matches reference" true
        (cg.P.xfidelity <> P.Mismatch);
      (* fuel accounting is exact: compiled bodies retire precisely the
         interpreter's steps, so the all-domain totals agree *)
      check Alcotest.int "instructions retired agree"
        real.P.xstats.Exec.x_steps cg.P.xstats.Exec.x_steps;
      let sorted l = List.sort String.compare l in
      check
        Alcotest.(list string)
        "codegen and real output multisets agree"
        (sorted real.P.xstats.Exec.x_outputs)
        (sorted cg.P.xstats.Exec.x_outputs)

(* ---- cache behaviour ---- *)

(* Two runs of the same compilation in one process: the second must be
   an in-process cache hit with zero compile seconds, and agree with the
   first on outputs. (The first run may itself hit the on-disk cache
   from an earlier test binary run — only the warm run is asserted.) *)
let test_cache_warm_agrees () =
  let w = Option.get (Registry.find "geti") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  match P.executable_plans c ~threads:2 with
  | [] -> Alcotest.fail "no executable plan at 2 jobs"
  | plan :: _ ->
      let cold = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
      let warm = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
      check Alcotest.string "cold ran compiled" "codegen"
        cold.P.xstats.Exec.x_engine;
      check Alcotest.string "warm ran compiled" "codegen"
        warm.P.xstats.Exec.x_engine;
      check Alcotest.bool "warm run is a cache hit" true
        warm.P.xstats.Exec.x_codegen_cache_hit;
      check (Alcotest.float 1e-9) "warm run spends no compiler time" 0.
        warm.P.xstats.Exec.x_codegen_compile_s;
      let sorted l = List.sort String.compare l in
      check
        Alcotest.(list string)
        "cold and warm output multisets agree"
        (sorted cold.P.xstats.Exec.x_outputs)
        (sorted warm.P.xstats.Exec.x_outputs)

(* Replicate the executor's translation entry to reach the cache paths
   of one concrete program. *)
let rt_and_source (c : P.t) =
  let tgt = c.P.target in
  let pdg = tgt.P.pdg in
  let loop = pdg.Pdg.loop in
  let rt =
    match
      R.Precompile.plan_real c.P.prepared ~fname:pdg.Pdg.func.Commset_ir.Ir.fname
        ~header:loop.Loops.header ~latches:loop.Loops.latches
        ~body:loop.Loops.body
    with
    | Ok rt -> rt
    | Error why -> Alcotest.failf "plan_real refused the loop: %s" why
  in
  let nid_of_iid iid =
    match Pdg.node_of_instr pdg iid with Some nid -> nid | None -> -1
  in
  let src =
    match Codegen.source ~prepared:c.P.prepared ~rt ~nid_of_iid () with
    | Ok src -> src
    | Error why -> Alcotest.failf "uncompilable body: %s" why
  in
  (rt, nid_of_iid, src)

let remove_if_exists p = try Sys.remove p with Sys_error _ -> ()

(* A corrupted on-disk [.cmxs] must not poison the engine: the loader
   evicts the entry and recompiles from source, once. The corruption is
   seeded in a private cache directory at a path this process never
   successfully dlopened — dlopen dedupes by pathname, so corrupting a
   previously loaded path would just serve the old healthy mapping
   instead of reading the corrupted file. *)
let test_corrupted_cache_recompiles () =
  let w = Option.get (Registry.find "url") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let rt, nid_of_iid, src = rt_and_source c in
  let key = Codegen.key_of_source src in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "commset-cgtest-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let old_cache = Sys.getenv_opt "COMMSET_CODEGEN_CACHE" in
  Unix.putenv "COMMSET_CODEGEN_CACHE" dir;
  Fun.protect ~finally:(fun () ->
      Unix.putenv "COMMSET_CODEGEN_CACHE" (Option.value ~default:"" old_cache);
      Codegen.reset_memo ();
      Array.iter (fun f -> remove_if_exists (Filename.concat dir f)) (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let ml, cmxs = Codegen.cache_paths ~key in
  remove_if_exists ml;
  remove_if_exists cmxs;
  let oc = open_out_bin cmxs in
  output_string oc "not a cmxs";
  close_out oc;
  Codegen.reset_memo ();
  let prepare () =
    match Codegen.prepare ~prepared:c.P.prepared ~rt ~nid_of_iid () with
    | Ok cg -> cg
    | Error why -> Alcotest.failf "codegen prepare failed: %s" why
  in
  let healed = prepare () in
  check Alcotest.bool "corrupted entry is recompiled, not reused" false
    healed.Codegen.cg_cache_hit;
  check Alcotest.string "recompile uses the source key" key
    healed.Codegen.cg_key;
  check Alcotest.bool "recompile rewrote the cmxs" true (Sys.file_exists cmxs);
  (* the recompiled entry is valid again: a fresh disk-path load hits *)
  Codegen.reset_memo ();
  let warm = prepare () in
  check Alcotest.bool "healed entry serves a disk cache hit" true
    warm.Codegen.cg_cache_hit

(* ---- a missing toolchain is a visible fallback ---- *)

(* With no compiler on PATH, a cache with no entry for the body and an
   empty in-process memo, a codegen run cannot build its module: it must
   run on the interpreted real engine, say why, and still end Equiv —
   never in an error. Every setting is restored afterwards. *)
let test_missing_toolchain () =
  let w = Option.get (Registry.find "hmmer") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let plan =
    match P.executable_plans c ~threads:2 with
    | p :: _ -> p
    | [] -> Alcotest.fail "hmmer has no executable plan at 2 threads"
  in
  let scratch name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "commset-cgtest-%s-%d" name (Unix.getpid ()))
  in
  let empty_bin = scratch "nobin" and cache = scratch "nocache" in
  List.iter (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ()) [ empty_bin; cache ];
  let old_path = Sys.getenv_opt "PATH" in
  let old_cache = Sys.getenv_opt "COMMSET_CODEGEN_CACHE" in
  Unix.putenv "PATH" empty_bin;
  Unix.putenv "COMMSET_CODEGEN_CACHE" cache;
  Codegen.reset_memo ();
  Fun.protect ~finally:(fun () ->
      Unix.putenv "PATH" (Option.value ~default:"" old_path);
      Unix.putenv "COMMSET_CODEGEN_CACHE" (Option.value ~default:"" old_cache);
      Codegen.reset_memo ();
      Array.iter (fun f -> remove_if_exists (Filename.concat cache f)) (Sys.readdir cache);
      List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) [ empty_bin; cache ])
  @@ fun () ->
  let x = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:1 c plan in
  check Alcotest.string "ran on the real engine" "real" x.P.xstats.Exec.x_engine;
  let why = Option.value ~default:"(no reason)" x.P.xstats.Exec.x_engine_reason in
  check Alcotest.bool
    (Printf.sprintf "reason %S starts with \"toolchain unavailable\"" why)
    true
    (String.starts_with ~prefix:"toolchain unavailable" why);
  check Alcotest.bool "Equiv" true (x.P.xfidelity <> P.Mismatch)

(* ---- property: random small loop bodies compile and agree ---- *)

(* Random int expression over the induction variable and constants,
   using only total operators (no division/modulo: both engines would
   trap identically, but a trapping program fails compilation's tracing
   run before any engine comparison happens). *)
type rexpr =
  | Rvar
  | Rconst of int
  | Radd of rexpr * rexpr
  | Rsub of rexpr * rexpr
  | Rmul of rexpr * rexpr

let rec rexpr_to_minic = function
  | Rvar -> "i"
  | Rconst n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Radd (a, b) ->
      Printf.sprintf "(%s + %s)" (rexpr_to_minic a) (rexpr_to_minic b)
  | Rsub (a, b) ->
      Printf.sprintf "(%s - %s)" (rexpr_to_minic a) (rexpr_to_minic b)
  | Rmul (a, b) ->
      Printf.sprintf "(%s * %s)" (rexpr_to_minic a) (rexpr_to_minic b)

let gen_rexpr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof [ return Rvar; map (fun k -> Rconst k) (int_range (-9) 9) ]
        else
          let sub = self (n / 2) in
          frequency
            [
              (1, return Rvar);
              (1, map (fun k -> Rconst k) (int_range (-9) 9));
              (2, map2 (fun a b -> Radd (a, b)) sub sub);
              (2, map2 (fun a b -> Rsub (a, b)) sub sub);
              (2, map2 (fun a b -> Rmul (a, b)) sub sub);
            ]))

let arb_rexpr = QCheck.make ~print:rexpr_to_minic gen_rexpr

let program_of_rexpr e =
  Printf.sprintf
    {|
#pragma commset decl PSET self
#pragma commset predicate PSET (a) (b) (a != b)

void main() {
  int n = 8;
  for (int i = 0; i < n; i++) {
    int x = %s;
    #pragma commset member PSET(i)
    {
      print(int_to_string(x));
    }
  }
}
|}
    (rexpr_to_minic e)

let prop_random_bodies_agree =
  QCheck.Test.make ~name:"codegen: random loop bodies compile and agree"
    ~count:12 arb_rexpr (fun e ->
          let c = P.compile ~name:"cg-prop" (program_of_rexpr e) in
      match P.executable_plans c ~threads:2 with
      | [] -> QCheck.Test.fail_report "no executable plan"
      | plan :: _ ->
          let real = P.run_parallel ~engine:Exec.Real_engine ~jobs:2 c plan in
          let cg = P.run_parallel ~engine:Exec.Codegen_engine ~jobs:2 c plan in
          if cg.P.xstats.Exec.x_engine <> "codegen" then
            QCheck.Test.fail_reportf "fell back: %s"
              (Option.value ~default:"(no reason)"
                 cg.P.xstats.Exec.x_engine_reason);
          if cg.P.xfidelity = P.Mismatch then
            QCheck.Test.fail_report "codegen output mismatches the reference";
          let sorted l = List.sort String.compare l in
          sorted cg.P.xstats.Exec.x_outputs
          = sorted real.P.xstats.Exec.x_outputs
          && cg.P.xstats.Exec.x_steps = real.P.xstats.Exec.x_steps)

(* ---- the compiled sequential leg ---- *)

(* The codegen engine measures its speedup against the compiled body
   run inline on one domain; that leg must do the program's work, so it
   must print exactly the sequential reference. *)
let compiled_seq_leg (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let lowered = T.Emit.lower ~pdg:c.P.target.P.pdg c.P.trace in
  match P.executable_plans c ~threads:1 @ P.executable_plans c ~threads:2 with
  | [] -> Alcotest.failf "%s: no executable plan" w.W.wname
  | plan :: _ -> (
      let pdg =
        if plan.T.Plan.uses_commset then c.P.target.P.pdg else c.P.target.P.pdg_plain
      in
      let locks = (T.Emit.emit ~plan ~pdg lowered).T.Emit.locks in
      match
        Realexec.run ~codegen:true ~plan ~pdg ~trace:c.P.trace ~locks ~prepared:c.P.prepared
          ~setup:w.W.setup ~jobs:1 ()
      with
      | Error why -> Alcotest.failf "%s: plan_real refused the loop: %s" w.W.wname why
      | Ok r -> (
          check Alcotest.string "compiled body ran" "codegen" r.Realexec.r_engine;
          match r.Realexec.r_seq_codegen with
          | None -> Alcotest.failf "%s: no compiled sequential leg" w.W.wname
          | Some (outputs, wall) ->
              check Alcotest.(list string) "compiled sequential leg prints the reference"
                c.P.trace.R.Trace.seq_outputs outputs;
              check Alcotest.bool "compiled sequential leg was timed" true (wall > 0.)))

let compiled_seq_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: compiled sequential leg prints the reference" w.W.wname)
        `Quick (compiled_seq_leg w))
    Registry.all

(* ---- compiled body vs run_iteration, one worker state each ---- *)

let compiled_of (c : P.t) =
  let rt, nid_of_iid, _ = rt_and_source c in
  match Codegen.prepare ~prepared:c.P.prepared ~rt ~nid_of_iid () with
  | Ok cg -> (rt, cg)
  | Error why -> Alcotest.failf "codegen prepare failed: %s" why

(* The two bodies as [run_main_real] drives them, over one worker
   state: no node tracking, builtins straight to the machine. *)
let interp_body rt wst builtin regs =
  R.Precompile.run_iteration wst rt ~on_instr:ignore ~builtin regs

let compiled_body (cg : Codegen.compiled) wst builtin regs =
  cg.Codegen.cg_fn
    {
      Commset_codegen.Abi.cg_globals = R.Precompile.wstate_globals wst;
      cg_gdefined = R.Precompile.wstate_gdefined wst;
      cg_node = ignore;
      cg_builtin = builtin;
      cg_charge = (fun ~steps ~cost -> R.Precompile.wstate_charge wst ~steps ~cost);
      cg_fuel_left = (fun () -> R.Precompile.wstate_fuel_left wst);
    }
    regs

(* A fresh machine and worker state; [on_iter] gets every iteration's
   register file from the coordinator's backbone. *)
let drive (c : P.t) rt ~on_iter =
  let machine = R.Machine.create () in
  c.P.setup machine;
  let ex = R.Precompile.executor ~machine c.P.prepared in
  let wst = R.Precompile.worker_state ex ~fuel:max_int in
  let builtin (bi : R.Builtins.t) argv ~has_dst:_ = bi.R.Builtins.impl machine argv in
  ignore
    (R.Precompile.run_main_real ex rt
       ~on_iter:(fun _ regs -> on_iter wst builtin regs)
       ~on_loop_done:ignore
      : float);
  (machine, wst)

(* The compiled body charges the worker state once, as the iteration
   exits: over a whole run that must add up to the interpreted body's
   steps exactly and its cycles up to summation order. *)
let compiled_charges (w : W.t) () =
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let rt, cg = compiled_of c in
  let run body =
    let machine, wst =
      drive c rt ~on_iter:(fun wst builtin regs -> body wst builtin (Array.copy regs))
    in
    ( R.Machine.outputs machine,
      max_int - R.Precompile.wstate_fuel_left wst,
      R.Precompile.wstate_total wst )
  in
  let out_i, steps_i, cycles_i = run (interp_body rt) in
  let out_c, steps_c, cycles_c = run (compiled_body cg) in
  check Alcotest.(list string) "outputs" out_i out_c;
  check Alcotest.int "steps" steps_i steps_c;
  check Alcotest.bool "iterations ran" true (steps_i > 0);
  check (Alcotest.float (1e-9 *. Float.abs cycles_i)) "cycles" cycles_i cycles_c

let compiled_charges_cases =
  List.map
    (fun w ->
      Alcotest.test_case
        (Printf.sprintf "%s: compiled body charges the interpreted steps and cycles"
           w.W.wname)
        `Quick (compiled_charges w))
    Registry.all

(* Lowering never produces an ill-typed operand, so poison the first
   iteration's state instead, one register or global slot at a time:
   the compiled body's inlined int, float, array and index reads must
   fail with the interpreter's diagnostic, or succeed with its steps and
   cycles (summation order aside). *)
let poisoned_state name () =
  let w = Option.get (Registry.find name) in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let rt, cg = compiled_of c in
  let first_iteration f =
    let result = ref None in
    let exception Stop in
    (try
       ignore
         (drive c rt ~on_iter:(fun wst builtin regs ->
              result := Some (f wst builtin regs);
              raise Stop))
     with Stop -> ());
    match !result with
    | Some r -> r
    | None -> Alcotest.failf "%s: the target loop never ran" name
  in
  let outcome body ~poison wst builtin regs =
    let regs = Array.copy regs in
    poison regs (R.Precompile.wstate_globals wst);
    let fuel = R.Precompile.wstate_fuel_left wst in
    match body wst builtin regs with
    | () ->
        Printf.sprintf "ok: %d steps, %.9g cycles"
          (fuel - R.Precompile.wstate_fuel_left wst)
          (R.Precompile.wstate_total wst)
    | exception Commset_support.Diag.Error d -> "error: " ^ Commset_support.Diag.to_string d
  in
  let nregs, nglobals =
    first_iteration (fun wst _ regs ->
        (Array.length regs, Array.length (R.Precompile.wstate_globals wst)))
  in
  let traps = ref 0 in
  let compare what poison =
    let expected = first_iteration (outcome (interp_body rt) ~poison) in
    if String.starts_with ~prefix:"error:" expected then incr traps;
    check Alcotest.string what expected (first_iteration (outcome (compiled_body cg) ~poison))
  in
  List.iter
    (fun (label, v) ->
      for r = 0 to nregs - 1 do
        compare (Printf.sprintf "register %d = %s" r label) (fun regs _ -> regs.(r) <- v)
      done;
      for g = 0 to nglobals - 1 do
        compare (Printf.sprintf "global slot %d = %s" g label) (fun _ gl -> gl.(g) <- v)
      done)
    [
      ("a string", R.Value.Vstring "poison");
      ("an int", R.Value.Vint 1);
      ("a float", R.Value.Vfloat 0.5);
    ];
  check Alcotest.bool "some poisoning trapped" true (!traps > 0)

let suite =
  ( "codegen",
    [
      Alcotest.test_case "engine name and parsing" `Quick test_engine_names;
      Alcotest.test_case "codegen vs real agree on md5sum" `Quick
        test_codegen_vs_real;
      Alcotest.test_case "warm cache hit agrees with cold run" `Quick
        test_cache_warm_agrees;
      Alcotest.test_case "corrupted cache entry is recompiled" `Quick
        test_corrupted_cache_recompiles;
      qcheck prop_random_bodies_agree;
      Alcotest.test_case "hmmer: poisoned state, compiled body traps like the interpreter"
        `Quick (poisoned_state "hmmer");
      Alcotest.test_case "kmeans: poisoned state, compiled body traps like the interpreter"
        `Quick (poisoned_state "kmeans");
    ]
    @ differential_cases @ compiled_seq_cases @ compiled_charges_cases
    @ [
        Alcotest.test_case "a missing toolchain falls back to the real engine, Equiv" `Quick
          test_missing_toolchain;
      ] )

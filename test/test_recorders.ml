(** The compile-time recorders (the compile's one run, {!Profile.run},
    the trace built from its event log, {!Trace.of_log}, and the
    verifier's replay instances recorded through the run's tap) against
    the reference recorders kept in this directory ({!Ref_recorders}),
    which run on the reference interpreter: every trace and profile must
    be bit-identical on every workload and annotation variant, on random
    programs and on seeded source mutants, and the instances equal on
    every program whose static verifier pass leaves a pair to replay.
    Counts pin the rest: a compile runs the program once, the run
    allocates little per block entry beyond its boxed total reading, and
    building the trace allocates nothing per instruction. *)

module R = Commset_runtime
module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module Ir = Commset_ir.Ir
open Commset_support

let check = Alcotest.check
let bits = Int64.bits_of_float

let enc_actuals = function
  | R.Trace.Aregion_sets sets -> "R:" ^ Test_precompile.enc_actuals sets
  | R.Trace.Acall_args (callee, argv) ->
      "C:" ^ callee ^ ":" ^ String.concat "," (List.map Test_precompile.enc_value argv)

(* ---- comparisons ----------------------------------------------------- *)

let same_atom (a : R.Trace.atom) (b : R.Trace.atom) =
  match (a, b) with
  | Acompute x, Acompute y -> bits x = bits y
  | Abuiltin x, Abuiltin y -> x.bi == y.bi && bits x.cost = bits y.cost
  | Aout x, Aout y -> String.equal x y
  | _ -> false

let show_atom = function
  | R.Trace.Acompute c -> Printf.sprintf "compute %h" c
  | Abuiltin { bi; cost } -> Printf.sprintf "builtin %s %h" bi.R.Builtins.name cost
  | Aout s -> "out " ^ String.escaped s

let check_bits what (expected : float) (got : float) =
  if bits expected <> bits got then Alcotest.failf "%s: expected %h, got %h" what expected got

let check_exec what (expected : R.Trace.node_exec) (got : R.Trace.node_exec) =
  let what = Printf.sprintf "%s: node %d" what expected.nid in
  check Alcotest.int (what ^ ": nid") expected.nid got.nid;
  let ea = R.Trace.exec_atoms expected and ga = R.Trace.exec_atoms got in
  if not (List.equal same_atom ea ga) then
    check Alcotest.(list string) (what ^ ": atoms") (List.map show_atom ea)
      (List.map show_atom ga);
  check_bits (what ^ ": cost") (Ref_recorders.exec_cost expected) (R.Trace.exec_cost got);
  check
    Alcotest.(list string)
    (what ^ ": actuals")
    (List.map enc_actuals (R.Trace.exec_actuals expected))
    (List.map enc_actuals (R.Trace.exec_actuals got))

let check_trace what (expected : R.Trace.t) (got : R.Trace.t) =
  check Alcotest.int (what ^ ": iterations") (R.Trace.n_iterations expected)
    (R.Trace.n_iterations got);
  Array.iteri
    (fun k (eit : R.Trace.iteration) ->
      let git = got.iterations.(k) in
      let what = Printf.sprintf "%s: iteration %d" what k in
      let ee = R.Trace.iteration_execs eit and ge = R.Trace.iteration_execs git in
      check
        Alcotest.(list int)
        (what ^ ": exec order")
        (List.map (fun (e : R.Trace.node_exec) -> e.nid) ee)
        (List.map (fun (e : R.Trace.node_exec) -> e.nid) ge);
      List.iter2 (check_exec what) ee ge;
      check Alcotest.int (what ^ ": exec table size") (Hashtbl.length eit.exec_tbl)
        (Hashtbl.length git.exec_tbl);
      List.iter
        (fun (e : R.Trace.node_exec) ->
          check Alcotest.bool
            (Printf.sprintf "%s: exec table holds node %d" what e.nid)
            true
            (match Hashtbl.find_opt git.exec_tbl e.nid with Some e' -> e' == e | None -> false))
        ge;
      check_bits (what ^ ": cost") (Ref_recorders.iteration_cost eit) (R.Trace.iteration_cost git))
    expected.iterations;
  check_bits (what ^ ": other_cost") expected.other_cost got.other_cost;
  check_bits (what ^ ": seq_total") expected.seq_total got.seq_total;
  check_bits (what ^ ": loop cost") (Ref_recorders.loop_cost expected) (R.Trace.loop_cost got);
  check Alcotest.(list string) (what ^ ": outputs before") expected.outputs_before
    got.outputs_before;
  check Alcotest.(list string) (what ^ ": outputs after") expected.outputs_after
    got.outputs_after;
  check Alcotest.(list string) (what ^ ": sequential outputs") expected.seq_outputs
    got.seq_outputs

let check_profile what (expected : R.Profile.t) (got : R.Profile.t) =
  check_bits (what ^ ": total") expected.total got.total;
  let show (r : R.Profile.loop_report) =
    Printf.sprintf "%s L%d depth %d cost %h share %h" r.lr_func r.lr_header r.lr_depth r.lr_cost
      r.lr_fraction
  in
  check
    Alcotest.(list string)
    (what ^ ": loop reports") (List.map show expected.reports) (List.map show got.reports)

(** The pipeline's trace and profile of one compiled program against
    the reference recorders, each run on a fresh machine. *)
let differential what ~setup (c : P.t) =
  let machine () =
    let m = R.Machine.create () in
    setup m;
    m
  in
  check_trace what
    (Ref_recorders.trace ~machine:(machine ()) c.P.prepared c.P.target.P.pdg)
    c.P.trace;
  check_profile what (Ref_recorders.profile ~machine:(machine ()) c.P.prepared) c.P.profile

let workload_differential (w : W.t) name src () =
  differential
    (Printf.sprintf "%s/%s" w.W.wname name)
    ~setup:w.W.setup
    (P.compile ~name:w.W.wname ~setup:w.W.setup src)

(* ---- random programs -------------------------------------------------- *)

let prop_random_differential =
  QCheck.Test.make ~name:"random programs: recorders match the reference recorders"
    ~count:40
    (QCheck.make ~print:Test_fuzz.render_program Test_fuzz.gen_program)
    (fun spec ->
      differential "random" ~setup:ignore (P.compile (Test_fuzz.render_program spec));
      true)

(* ---- a label with no block ------------------------------------------- *)

let test_missing_label () =
  (* a jump to a label with no block ends in [Not_found] on both
     profilers, never in an index error *)
  let prog = Test_precompile.ir_main ~globals:[] [] in
  (Ir.block (Hashtbl.find prog.Ir.funcs "main") 0).Ir.term <- Ir.Jump 7;
  let prepared = R.Precompile.prepare prog in
  let outcome f = match f () with _ -> "ran" | exception Not_found -> "Not_found" in
  check Alcotest.string "reference" "Not_found"
    (outcome (fun () -> Ref_recorders.profile prepared));
  check Alcotest.string "profile" "Not_found" (outcome (fun () -> R.Profile.run prepared))

(* ---- allocation ------------------------------------------------------ *)

(* Counts, not timings. [f]'s inner loop runs 20 times per call and
   [main] calls it from a 10,000-iteration loop: one run retires
   2,140,008 steps, 450,003 of them block entries. The one run is
   measured against a plain run of the same program, the trace's
   building on its own. *)
let alloc_src =
  "int f(int n) { int s = 0; int j = 0; while (j < 20) { s = (s + j * n + 1) % 9973; j = j + 1; } \
   return s; }\n\
   void main() { int t = 0; int i = 0; while (i < 10000) { t = t + f(i); i = i + 1; } \
   print(int_to_string(t)); }"

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* the program compiled once, with its block entries counted *)
let alloc_prog =
  lazy
    (let c = P.compile alloc_src in
     let blocks = ref 0 in
     let ex = R.Precompile.executor c.P.prepared in
     ignore
       (R.Precompile.run_observed ex
          {
            R.Precompile.on_block = (fun _ _ -> incr blocks);
            on_region = None;
            on_enter = ignore;
            on_call = None;
            on_exit = ignore;
            on_builtin = None;
          }
         : float);
     check Alcotest.int "steps" 2_140_008 (R.Precompile.steps ex);
     check Alcotest.int "block entries" 450_003 !blocks;
     (c, !blocks))

let test_alloc_trace () =
  let c, _ = Lazy.force alloc_prog in
  let _, log = R.Profile.run c.P.prepared in
  let trace, built = words (fun () -> R.Trace.of_log c.P.prepared c.P.target.P.pdg log) in
  let iters = R.Trace.n_iterations trace in
  check Alcotest.int "target iterations" 10_000 iters;
  let per_iter = built /. float_of_int iters in
  check Alcotest.bool
    (Printf.sprintf "%.0f words per iteration to build the trace (at most 200)" per_iter)
    true (per_iter <= 200.);
  (* the replay handed the log's chunks back for reuse *)
  check Alcotest.bool "a second replay raises" true
    (match R.Trace.of_log c.P.prepared c.P.target.P.pdg log with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_alloc_profile () =
  let c, blocks = Lazy.force alloc_prog in
  let _, plain = words (fun () -> R.Precompile.run_main (R.Precompile.executor c.P.prepared)) in
  let _, profiled = words (fun () -> R.Profile.run c.P.prepared) in
  let per_block = (profiled -. plain) /. float_of_int blocks in
  check Alcotest.bool
    (Printf.sprintf "%.2f words per block entry beyond a plain run (at most 3)" per_block)
    true (per_block <= 3.)

(* ---- one run per compile ------------------------------------------- *)

module Metrics = Commset_obs.Metrics

let m_runs = Metrics.counter "interp.runs"
let m_steps = Metrics.counter "interp.steps"

(* A compile runs the program once, with or without the verifier: the
   trace comes from the run's log, and the verifier's replays
   ([run_region], [run_func]) are no runs. Its steps are one plain
   run's. md5sum's static report leaves pairs to replay. *)
let test_one_run () =
  List.iter
    (fun name ->
      let w = Option.get (Registry.find name) in
      let c = P.compile ~name ~setup:w.W.setup w.W.source in
      let m = R.Machine.create () in
      w.W.setup m;
      let ex = R.Precompile.executor ~machine:m c.P.prepared in
      ignore (R.Precompile.run_main ex : float);
      let plain = R.Precompile.steps ex in
      List.iter
        (fun verify ->
          let what = Printf.sprintf "%s, verify %b" name verify in
          let runs0 = Metrics.value m_runs and steps0 = Metrics.value m_steps in
          let c = P.compile ~name ~setup:w.W.setup ~verify w.W.source in
          check Alcotest.int (what ^ ": runs") 1 (Metrics.value m_runs - runs0);
          check Alcotest.int (what ^ ": steps") plain (Metrics.value m_steps - steps0);
          if verify && name = "md5sum" then
            check Alcotest.bool (what ^ ": the report wants replay") true
              (Commset_verify.Dynamic.wanted c.P.md
                 (Commset_verify.Static.run ~md:c.P.md ~target_fname:c.P.target.P.func.Ir.fname
                    ~loop:c.P.target.P.loop ~induction:c.P.target.P.induction ())))
        [ false; true ])
    [ "kmeans"; "md5sum" ]

(* ---- replay instances ---------------------------------------------- *)

module Dynamic = Commset_verify.Dynamic
module Metadata = Commset_core.Metadata

let enc_body = function
  | Dynamic.Bregion { bfunc; bregion; bregs } ->
      Printf.sprintf "region %s/%d [%s]" bfunc.Ir.fname bregion.Ir.rid
        (String.concat ";" (Array.to_list (Array.map Test_precompile.enc_value bregs)))
  | Dynamic.Bfun { bfunc; bargs } ->
      Printf.sprintf "call %s(%s)" bfunc.Ir.fname
        (String.concat "," (List.map Test_precompile.enc_value bargs))

let show_inv (i : Dynamic.inv) =
  Printf.sprintf "#%d %s %s %s" i.Dynamic.iseq
    (Metadata.member_to_string i.Dynamic.imember)
    (Test_precompile.enc_actuals i.Dynamic.iactuals)
    (enc_body i.Dynamic.ibody)

(* The instances the compile's run records through the verifier's tap, for
   a program whose static pass leaves a pair to replay, against the
   reference recording on the oracle: member, actuals, body with its
   register file or arguments and sequence number, and every snapshot's
   machine and globals. [None] when the static pass leaves none. *)
let instances_differential what ~setup (c : P.t) =
  let report =
    Commset_verify.Static.run ~md:c.P.md ~target_fname:c.P.target.P.func.Ir.fname
      ~loop:c.P.target.P.loop ~induction:c.P.target.P.induction ()
  in
  if not (Dynamic.wanted c.P.md report) then None
  else begin
    let expected = Ref_recorders.dynamic ~max_snapshots:2 c.P.prepared ~md:c.P.md ~setup in
    let got = Test_precompile.recorded_instances setup c in
    check Alcotest.(list string) (what ^ ": instances") (List.map show_inv expected)
      (List.map show_inv got);
    List.iter2
      (fun (e : Dynamic.inv) (g : Dynamic.inv) ->
        let what = Printf.sprintf "%s: instance #%d" what e.Dynamic.iseq in
        match (e.Dynamic.isnap, g.Dynamic.isnap) with
        | None, None -> ()
        | Some (em, eg), Some (gm, gg) ->
            check Alcotest.(list string) (what ^ ": machine diff") [] (R.Machine.obs_diff em gm);
            check
              Alcotest.(list (pair string string))
              (what ^ ": globals") (Test_precompile.canon_globals eg)
              (Test_precompile.canon_globals gg)
        | _ -> Alcotest.failf "%s: snapshot on one side only" what)
      expected got;
    Some (List.length got)
  end

let test_instances () =
  let covered =
    List.concat_map
      (fun (w : W.t) ->
        List.filter_map
          (fun (name, src) ->
            let what = Printf.sprintf "%s/%s" w.W.wname name in
            let c = P.compile ~name:w.W.wname ~setup:w.W.setup src in
            Option.map (fun n -> (what, n)) (instances_differential what ~setup:w.W.setup c))
          (("base", w.W.source) :: w.W.variants))
      Registry.all
  in
  (* the programs whose static pass leaves a pair to replay *)
  List.iter
    (fun w ->
      check Alcotest.bool (w ^ " records replay instances") true
        (List.exists (fun (what, n) -> String.starts_with ~prefix:(w ^ "/") what && n > 0) covered))
    [ "md5sum"; "geti"; "potrace" ]

(* ---- seeded source mutants -------------------------------------------- *)

let mutant_alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 +-*/%<>=!&|(){}[];,.\"#\n"

(* [n] single-character mutants of [src]: one position replaced by a
   character of the alphabet, both drawn from [rng] *)
let mutants rng n src =
  List.init n (fun _ ->
      let b = Bytes.of_string src in
      let pos = Random.State.int rng (Bytes.length b) in
      Bytes.set b pos mutant_alphabet.[Random.State.int rng (String.length mutant_alphabet)];
      Bytes.to_string b)

let test_mutants () =
  let rng = Random.State.make [| 2011 |] in
  let compiled = ref 0 and rejected = ref 0 in
  List.iter
    (fun (w : W.t) ->
      List.iteri
        (fun k src ->
          let what = Printf.sprintf "%s mutant %d" w.W.wname k in
          match
            R.Precompile.fuel_guard (fun () ->
                P.compile ~name:w.W.wname ~setup:w.W.setup ~verify:true src)
          with
          | c ->
              incr compiled;
              differential what ~setup:w.W.setup c
          | exception Diag.Error _ -> incr rejected
          | exception e -> Alcotest.failf "%s: %s\n%s" what (Printexc.to_string e) src)
        (mutants rng 40 w.W.source))
    Registry.all;
  check Alcotest.int "every mutant ends" 320 (!compiled + !rejected);
  check Alcotest.bool
    (Printf.sprintf "%d mutants compile through both recorders (at least 20)" !compiled)
    true (!compiled >= 20)

let workload_cases =
  List.concat_map
    (fun (w : W.t) ->
      List.map
        (fun (name, src) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s recorders vs reference" w.W.wname name)
            `Slow
            (workload_differential w name src))
        (("base", w.W.source) :: w.W.variants))
    Registry.all

let suite =
  ( "recorders",
    [
      Alcotest.test_case "a label with no block is Not_found" `Quick test_missing_label;
      Alcotest.test_case "trace recorder allocates at most 200 words per iteration" `Quick
        test_alloc_trace;
      Alcotest.test_case "profiler allocates at most 3 words per block entry" `Quick
        test_alloc_profile;
      Alcotest.test_case "seeded source mutants end in a result or a diagnostic" `Slow
        test_mutants;
      QCheck_alcotest.to_alcotest ~long:false prop_random_differential;
    ]
    @ workload_cases
    @ [
        Alcotest.test_case "replay instances recorded in the compile's run match the reference"
          `Slow test_instances;
        Alcotest.test_case "a compile runs the program once" `Quick test_one_run;
      ] )

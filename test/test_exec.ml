(** Tests for the real multicore execution backend: the SPSC queue's
    FIFO/boundedness properties (including a two-domain stress), the
    commutativity-aware output-equivalence checker, concurrent use of
    one prepared program, unsupported-plan rejection, and md5sum's DOALL
    and pipeline shapes on real domains (the engines' per-workload
    differential suites live in {!Test_realexec} and {!Test_codegen}). *)

module P = Commset_pipeline.Pipeline
module W = Commset_workloads.Workload
module Registry = Commset_workloads.Registry
module T = Commset_transforms
module Diag = Commset_support.Diag
module Spsc = Commset_exec.Spsc
module Equiv = Commset_exec.Equiv
module Exec = Commset_exec.Exec
module R = Commset_runtime

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- SPSC queue ---- *)

let test_spsc_bounded () =
  List.iter
    (fun cap ->
      let q = Spsc.create ~capacity:cap in
      for i = 1 to cap do
        check Alcotest.bool
          (Printf.sprintf "push %d/%d succeeds" i cap)
          true (Spsc.try_push q i)
      done;
      check Alcotest.bool "push beyond capacity fails" false (Spsc.try_push q 0);
      check Alcotest.int "length is capacity" cap (Spsc.length q);
      check Alcotest.(option int) "pop returns oldest" (Some 1) (Spsc.try_pop q);
      check Alcotest.bool "slot freed by pop" true (Spsc.try_push q 0))
    [ 1; 2; 7; 32 ]

let test_spsc_empty () =
  let q = Spsc.create ~capacity:4 in
  check Alcotest.(option int) "empty pop" None (Spsc.try_pop q);
  check Alcotest.int "empty length" 0 (Spsc.length q)

let test_spsc_invalid_capacity () =
  match Spsc.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception _ -> ()

(* FIFO with no lost or duplicated items under a real producer domain
   and a real consumer domain, across capacities much smaller than the
   item count (so both full-queue and empty-queue paths are exercised) *)
let prop_spsc_two_domains =
  QCheck.Test.make ~name:"spsc: two-domain transfer is the identity" ~count:30
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (capacity, items) ->
      let q = Spsc.create ~capacity in
      let producer =
        Domain.spawn (fun () -> List.iter (fun x -> Spsc.push q x) items)
      in
      let received = List.rev_map (fun _ -> Spsc.pop q) items |> List.rev in
      Domain.join producer;
      received = items && Spsc.try_pop q = None)

(* single-threaded interleaving: a model-checked ring would be overkill,
   but random interleaved push/pop against a reference Queue.t catches
   index arithmetic bugs (wrap-around, length) cheaply *)
let prop_spsc_model =
  QCheck.Test.make ~name:"spsc: interleaved ops match a reference queue" ~count:200
    QCheck.(pair (int_range 1 5) (small_list bool))
    (fun (capacity, ops) ->
      let q = Spsc.create ~capacity in
      let model = Queue.create () in
      let n = ref 0 in
      List.for_all
        (fun push ->
          if push then begin
            let accepted = Spsc.try_push q !n in
            let fits = Queue.length model < capacity in
            if fits then Queue.push !n model;
            incr n;
            accepted = fits
          end
          else
            match (Spsc.try_pop q, Queue.take_opt model) with
            | Some a, Some b -> a = b
            | None, None -> true
            | _ -> false)
        ops
      && Spsc.length q = Queue.length model)

(* ---- output equivalence ---- *)

let commutative_of_list l =
  let tbl = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace tbl s ()) l;
  Hashtbl.mem tbl

let verdict =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Equiv.verdict_to_string v))
    ( = )

let test_equiv_exact () =
  check verdict "identical streams" Equiv.Exact
    (Equiv.check
       ~commutative:(fun _ -> false)
       ~reference:[ "a"; "b"; "c" ] ~actual:[ "a"; "b"; "c" ])

let test_equiv_commutative () =
  let commutative = commutative_of_list [ "x"; "y"; "z" ] in
  check verdict "commutative outputs may permute" Equiv.Commutative_equal
    (Equiv.check ~commutative ~reference:[ "x"; "a"; "y"; "b"; "z" ]
       ~actual:[ "z"; "a"; "x"; "b"; "y" ]);
  check verdict "ordered outputs must stay put" Equiv.Mismatch
    (Equiv.check ~commutative ~reference:[ "x"; "a"; "y"; "b"; "z" ]
       ~actual:[ "x"; "b"; "y"; "a"; "z" ])

let test_equiv_loss () =
  let commutative = commutative_of_list [ "x"; "y" ] in
  check verdict "lost commutative output" Equiv.Mismatch
    (Equiv.check ~commutative ~reference:[ "x"; "y" ] ~actual:[ "x" ]);
  check verdict "duplicated commutative output" Equiv.Mismatch
    (Equiv.check ~commutative ~reference:[ "x"; "y" ] ~actual:[ "x"; "x"; "y" ])

(* ---- prepared programs are re-entrant across domains ---- *)

let test_precompile_concurrent () =
  let w = Option.get (Registry.find "md5sum") in
  let ast = Commset_lang.Parser.parse_program ~file:w.W.wname w.W.source in
  let _ = Commset_lang.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let prepared = R.Precompile.prepare prog in
  let run_once () =
    let machine = R.Machine.create () in
    w.W.setup machine;
    ignore (R.Precompile.run_main (R.Precompile.executor ~machine prepared));
    R.Machine.outputs machine
  in
  let reference = run_once () in
  let domains = Array.init 3 (fun _ -> Domain.spawn run_once) in
  Array.iter
    (fun d ->
      check
        Alcotest.(list string)
        "concurrent executor output" reference (Domain.join d))
    domains

(* ---- unsupported plans ---- *)

let test_unsupported_rejected () =
  let w = Option.get (Registry.find "geti") in
  (* the dynamic variant's data-dependent predicates force speculative
     (runtime-checked) plans, which the real backend must refuse *)
  let src = List.assoc "dynamic" w.W.variants in
  let c = P.compile ~name:(w.W.wname ^ "/dynamic") ~setup:w.W.setup src in
  let all = P.plans c ~threads:4 in
  let unsupported =
    List.filter (fun (p : T.Plan.t) -> Result.is_error (Exec.supported p)) all
  in
  check Alcotest.bool "TM/Spec plans exist at 4 threads" true (unsupported <> []);
  List.iter
    (fun (p : T.Plan.t) ->
      check Alcotest.bool
        ("excluded from executable_plans: " ^ p.T.Plan.label)
        false
        (List.exists
           (fun (q : T.Plan.t) -> String.equal q.T.Plan.label p.T.Plan.label)
           (P.executable_plans c ~threads:4));
      match P.run_parallel c p with
      | _ -> Alcotest.fail ("run_parallel accepted " ^ p.T.Plan.label)
      | exception Diag.Error d ->
          check
            Alcotest.(option string)
            "CS014 diagnostic" (Some "CS014") d.Diag.code)
    unsupported

(* DOALL and a pipeline shape both run for the paper's flagship
   workload, so the acceptance criterion is pinned down by a test *)
let test_md5sum_both_shapes () =
  let w = Option.get (Registry.find "md5sum") in
  let c = P.compile ~name:w.W.wname ~setup:w.W.setup w.W.source in
  let plans = P.executable_plans c ~threads:2 in
  let doall = List.filter (fun (p : T.Plan.t) -> p.T.Plan.shape = T.Plan.Sdoall) plans in
  let pipe = List.filter (fun (p : T.Plan.t) -> p.T.Plan.shape <> T.Plan.Sdoall) plans in
  check Alcotest.bool "a DOALL plan is executable" true (doall <> []);
  check Alcotest.bool "a pipeline plan is executable" true (pipe <> []);
  List.iter
    (fun (p : T.Plan.t) ->
      let x = P.run_parallel c p in
      (* whether the interleaving lands exactly in program order is the
         scheduler's business; losing or reordering non-commutative
         output is not *)
      check Alcotest.bool (p.T.Plan.label ^ ": no mismatch") true
        (x.P.xfidelity <> P.Mismatch))
    [ List.hd doall; List.hd pipe ]

let suite =
  ( "exec",
    [
      Alcotest.test_case "spsc: bounded" `Quick test_spsc_bounded;
      Alcotest.test_case "spsc: empty" `Quick test_spsc_empty;
      Alcotest.test_case "spsc: capacity >= 1 enforced" `Quick test_spsc_invalid_capacity;
      qcheck prop_spsc_two_domains;
      qcheck prop_spsc_model;
      Alcotest.test_case "equiv: exact" `Quick test_equiv_exact;
      Alcotest.test_case "equiv: commutative vs ordered" `Quick test_equiv_commutative;
      Alcotest.test_case "equiv: loss and duplication" `Quick test_equiv_loss;
      Alcotest.test_case "prepared program: concurrent executors" `Quick
        test_precompile_concurrent;
      Alcotest.test_case "TM/Spec plans rejected with CS014" `Quick
        test_unsupported_rejected;
      Alcotest.test_case "md5sum: DOALL and pipeline both execute" `Quick
        test_md5sum_both_shapes;
    ] )

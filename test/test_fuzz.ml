(** End-to-end fuzzing: generate random miniC programs (a main loop over
    arithmetic, private arrays, shared-resource calls, and optionally
    annotated commutative blocks), push each through the whole pipeline,
    and check the global soundness properties:

    - compilation never crashes (other than clean diagnostics);
    - every plan's simulated output passes the one output rule
      ({!Commset_pipeline.Pipeline.judge}: never a mismatch);
    - every executable plan, run on the real engine at one and two
      workers, passes the same rule;
    - the pretty-printed program re-compiles to the same sequential
      output (frontend round trip);
    - speedups stay within the physical bound (#threads). *)

module P = Commset_pipeline.Pipeline
module T = Commset_transforms
module L = Commset_lang
module R = Commset_runtime


(* ---- random program generation ---- *)

type stmt_kind =
  | Arith  (** local integer chain *)
  | Array_work  (** private array fill/sum *)
  | Shared_push of bool  (** vec_push, annotated with SELF? *)
  | Shared_stat of bool  (** stat_add, annotated? *)
  | Print_line of bool  (** console output, annotated? *)
  | Grouped_io of bool  (** fopen/fclose pair in a predicated group *)

let gen_kind =
  QCheck.Gen.(
    frequency
      [
        (3, return Arith);
        (2, return Array_work);
        (2, map (fun b -> Shared_push b) bool);
        (2, map (fun b -> Shared_stat b) bool);
        (2, map (fun b -> Print_line b) bool);
        (1, map (fun b -> Grouped_io b) bool);
      ])

let gen_program =
  QCheck.Gen.(
    let* n_stmts = int_range 1 5 in
    let* kinds = list_size (return n_stmts) gen_kind in
    let* iters = int_range 4 20 in
    return (kinds, iters))

let needs_group kinds = List.exists (function Grouped_io true -> true | _ -> false) kinds

let render_program (kinds, iters) =
  let buf = Buffer.create 1024 in
  if needs_group kinds then begin
    Buffer.add_string buf "#pragma commset decl G group\n";
    Buffer.add_string buf "#pragma commset predicate G (a) (b) (a != b)\n"
  end;
  Buffer.add_string buf "void main() {\n";
  Buffer.add_string buf (Printf.sprintf "  for (int i = 0; i < %d; i++) {\n" iters);
  List.iteri
    (fun idx kind ->
      let annot a = if a then "    #pragma commset member SELF\n" else "" in
      match kind with
      | Arith ->
          Buffer.add_string buf
            (Printf.sprintf "    int x%d = (i * %d + %d) %% 97;\n" idx ((idx * 7) + 3) idx);
          Buffer.add_string buf
            (Printf.sprintf "    x%d = x%d * x%d %% 13;\n" idx idx idx)
      | Array_work ->
          Buffer.add_string buf
            (Printf.sprintf
               "    int[] a%d = iarray(8);\n    for (int j%d = 0; j%d < 8; j%d++) {\n      a%d[j%d] = i + j%d;\n    }\n"
               idx idx idx idx idx idx idx)
      | Shared_push a ->
          Buffer.add_string buf (annot a);
          Buffer.add_string buf
            (Printf.sprintf "    {\n      vec_push(\"s%d-\" + int_to_string(i));\n    }\n" idx)
      | Shared_stat a ->
          Buffer.add_string buf (annot a);
          Buffer.add_string buf
            (Printf.sprintf "    {\n      stat_add(int_to_float(i + %d));\n    }\n" idx)
      | Print_line a ->
          Buffer.add_string buf (annot a);
          Buffer.add_string buf
            (Printf.sprintf "    {\n      print(\"p%d \" + int_to_string(i));\n    }\n" idx)
      | Grouped_io annotated ->
          let pragma =
            if annotated then "    #pragma commset member G(i), SELF\n" else ""
          in
          Buffer.add_string buf pragma;
          Buffer.add_string buf
            (Printf.sprintf
               "    {\n      int fd%d = fopen(\"f\" + int_to_string(i));\n      fclose(fd%d);\n    }\n"
               idx idx))
    kinds;
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "  print(stat_summary());\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ---- the properties ---- *)

let run_sequential src =
  let ast = L.Parser.parse_program ~file:"<fuzz>" src in
  let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
  let prog = Commset_ir.Lower.lower_program ast in
  let machine = R.Machine.create () in
  let interp = Interp.create ~machine prog in
  let _ = Interp.run_main interp in
  R.Machine.outputs machine

let prop_pipeline_sound =
  QCheck.Test.make ~name:"random programs: all plans keep output a permutation" ~count:60
    (QCheck.make ~print:render_program gen_program)
    (fun spec ->
      let src = render_program spec in
      let c = P.compile ~name:"<fuzz>" src in
      List.for_all
        (fun threads ->
          List.for_all
            (fun (r : P.run) ->
              r.P.fidelity <> P.Mismatch
              && r.P.speedup <= float_of_int threads +. 0.2
              && r.P.speedup > 0.)
            (P.evaluate c ~threads))
        [ 2; 5; 8 ])

let prop_engine_equiv =
  QCheck.Test.make
    ~name:"random programs: executable plans run Equiv on the real engine" ~count:60
    (QCheck.make ~print:render_program gen_program)
    (fun spec ->
      let c = P.compile ~name:"<fuzz>" (render_program spec) in
      List.for_all
        (fun jobs ->
          List.for_all
            (fun plan ->
              let x =
                P.run_parallel ~engine:Commset_exec.Exec.Real_engine ~jobs c plan
              in
              x.P.xfidelity <> P.Mismatch)
            (P.executable_plans c ~threads:jobs))
        [ 1; 2 ])

let prop_pretty_roundtrip_behaviour =
  QCheck.Test.make ~name:"random programs: pretty-printing preserves behaviour" ~count:60
    (QCheck.make ~print:render_program gen_program)
    (fun spec ->
      let src = render_program spec in
      let out1 = run_sequential src in
      let ast = L.Parser.parse_program ~file:"<fuzz>" src in
      let printed = L.Pretty.program_to_string ast in
      let out2 = run_sequential printed in
      out1 = out2)

(* the prepared-program engine (plain, observed and block-grained runs)
   must be observationally identical to the reference tree-walking
   interpreter: same outputs and bit-identical cycle totals on every
   random program *)
let prop_prepared_differential =
  QCheck.Test.make
    ~name:"random programs: prepared engine matches the reference interpreter"
    ~count:60
    (QCheck.make ~print:render_program gen_program)
    (fun spec ->
      let src = render_program spec in
      let ast = L.Parser.parse_program ~file:"<fuzz>" src in
      let _ = L.Typecheck.check ~externs:R.Builtins.extern_sigs ast in
      let prog = Commset_ir.Lower.lower_program ast in
      let m_ref = R.Machine.create () in
      let t_ref = Interp.run_main (Interp.create ~machine:m_ref prog) in
      let prepared = R.Precompile.prepare prog in
      let observed =
        {
          R.Precompile.on_block = (fun _ _ -> ());
          on_region = Some (fun _ _ _ _ -> ());
          on_enter = ignore;
          on_call = Some (fun _ _ _ -> ());
          on_exit = ignore;
          on_builtin = Some (fun _ _ -> ());
        }
      in
      let run path =
        let machine = R.Machine.create () in
        let ex = R.Precompile.executor ~machine prepared in
        let t =
          match path with
          | `Fast -> R.Precompile.run_main ex
          | `Observed -> R.Precompile.run_observed ex observed
          | `Block_grained ->
              R.Precompile.run_observed ex
                { observed with on_region = None; on_call = None; on_builtin = None }
        in
        (t, R.Machine.outputs machine)
      in
      let ref_out = R.Machine.outputs m_ref in
      List.for_all
        (fun path ->
          let t, out = run path in
          Int64.bits_of_float t = Int64.bits_of_float t_ref && out = ref_out)
        [ `Fast; `Observed; `Block_grained ])

let prop_elision =
  QCheck.Test.make ~name:"random programs: pragma elision preserves sequential output"
    ~count:60
    (QCheck.make ~print:render_program gen_program)
    (fun spec ->
      let src = render_program spec in
      let stripped = Commset_workloads.Workload.strip_pragmas src in
      run_sequential src = run_sequential stripped)


let suite =
  ( "fuzz",
    [
      QCheck_alcotest.to_alcotest ~long:false prop_pipeline_sound;
      QCheck_alcotest.to_alcotest ~long:false prop_engine_equiv;
      QCheck_alcotest.to_alcotest ~long:false prop_pretty_roundtrip_behaviour;
      QCheck_alcotest.to_alcotest ~long:false prop_prepared_differential;
      QCheck_alcotest.to_alcotest ~long:false prop_elision;
    ] )

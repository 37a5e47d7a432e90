(** Test runner aggregating every suite. *)

let () =
  Alcotest.run "commset"
    [
      Test_support.suite;
      Test_pool.suite;
      Test_obs.suite;
      Test_lang.suite;
      Test_ir.suite;
      Test_analysis.suite;
      Test_runtime.suite;
      Test_sim.suite;
      Test_pdg_core.suite;
      Test_transforms.suite;
      Test_workloads.suite;
      Test_report.suite;
      Test_verify.suite;
      Test_spec.suite;
      Test_invariants.suite;
      Test_fuzz.suite;
      Test_precompile.suite;
      Test_recorders.suite;
      Test_builtins.suite;
      Test_analysis_props.suite;
      Test_exec.suite;
      Test_realexec.suite;
      Test_attrib.suite;
      Test_codegen.suite;
      Test_synth.suite;
      Test_serve.suite;
    ]

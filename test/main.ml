(* Aggregate test runner: `dune runtest` executes every suite. *)
let () =
  Alcotest.run "synthlc-repro"
    [
      Test_bitvec.suite;
      Test_sat.suite;
      Test_hdl.suite;
      Test_equiv.suite;
      Test_sim.suite;
      Test_isa.suite;
      Test_uhb.suite;
      Test_mc.suite;
      Test_blast.suite;
      Test_harness.suite;
      Test_formats.suite;
      Test_ift.suite;
      Test_core.suite;
      Test_cache.suite;
      Test_ibex.suite;
      Test_mupath.suite;
      Test_synthlc.suite;
      Test_pool.suite;
      Test_parallel.suite;
      Test_obs.suite;
      Test_vcache.suite;
      Test_analysis.suite;
      Test_absint.suite;
      Test_taint.suite;
      Test_lint.suite;
      Test_fuzz.suite;
      Test_frontend.suite;
      Test_sweep.suite;
      Test_prune.suite;
    ]

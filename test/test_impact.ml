let () =
  Alcotest.run "impact"
    [
      ("insn", Test_insn.suite);
      ("lower", Test_lower.suite);
      ("libc", Test_libc.suite);
      ("simplify", Test_simplify.suite);
      ("interp", Test_interp.suite);
      ("profile", Test_profile.suite);
      ("trace_select", Test_trace_select.suite);
      ("layout", Test_layout.suite);
      ("strategy", Test_strategy.suite);
      ("inline", Test_inline.suite);
      ("cache", Test_cache.suite);
      ("workloads", Test_workloads.suite);
      ("sim", Test_sim.suite);
      ("paging", Test_paging.suite);
      ("pipeline", Test_pipeline.suite);
      ("experiments", Test_experiments.suite);
      ("validate", Test_validate.suite);
      ("differential", Test_differential.suite);
      ("fast_sim", Test_fast_sim.suite);
      ("stream", Test_stream.suite);
      ("shapes", Test_shapes.suite);
      ("obs", Test_obs.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("bounded", Test_bounded.suite);
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
    ]

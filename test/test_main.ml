(* Test runner: all suites. *)

let () =
  Alcotest.run "dpopt"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("ast_util", Test_ast_util.suite);
      ("typecheck", Test_typecheck.suite);
      ("pattern", Test_pattern.suite);
      ("memory+values+events", Test_memory.suite);
      ("lanes", Test_lanes.suite);
      ("event-queue", Test_event_queue.suite);
      ("interp", Test_interp.suite);
      ("interp-edge", Test_interp_edge.suite);
      ("sched", Test_sched.suite);
      ("trace", Test_trace.suite);
      ("eligibility", Test_eligibility.suite);
      ("thresholding", Test_thresholding.suite);
      ("coarsening", Test_coarsening.suite);
      ("aggregation", Test_aggregation.suite);
      ("pipeline", Test_pipeline.suite);
      ("promotion", Test_promotion.suite);
      ("difftest", Test_difftest.suite);
      ("random-programs", Test_random_programs.suite);
      ("multi-site", Test_multisite.suite);
      ("workloads", Test_workloads.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("harness", Test_harness.suite);
      ("pool", Test_pool.suite);
      ("analysis", Test_analysis.suite);
      ("corpus", Test_corpus.suite);
      ("bytecode", Test_bytecode.suite);
      ("failures", Test_failures.suite);
      ("references", Test_references.suite);
      ("autotune+csv+ablation", Test_autotune.suite);
      ("costmodel", Test_costmodel.suite);
      ("serve", Test_serve.suite);
      ("native", Test_native.suite);
      ("env", Test_env.suite);
      ("scale", Test_scale.suite);
      ("tenancy", Test_tenancy.suite);
    ]

(* The report pads suite names to the longest one and truncates long
   test names to what is left of the line, so a suite name longer than
   "integration" (11 characters) shortens every truncated test name in
   the report.  Keep new suite names within that length. *)
let () =
  Alcotest.run "parascope"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("ast", Test_ast.suite);
      ("symbol", Test_symbol.suite);
      ("cfg", Test_cfg.suite);
      ("dataflow", Test_dataflow.suite);
      ("varclass", Test_varclass.suite);
      ("symbolic", Test_symbolic.suite);
      ("loopnest", Test_loopnest.suite);
      ("dtest", Test_dtest.suite);
      ("ddg", Test_ddg.suite);
      ("interproc", Test_interproc.suite);
      ("sections", Test_sections.suite);
      ("transform", Test_transform.suite);
      ("perf", Test_perf.suite);
      ("value", Test_value.suite);
      ("sim", Test_sim.suite);
      ("marking", Test_marking.suite);
      ("filter", Test_filter.suite);
      ("panes", Test_panes.suite);
      ("ped", Test_ped.suite);
      ("command", Test_command.suite);
      ("workloads", Test_workloads.suite);
      ("runtime", Test_runtime.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("property", Test_property.suite);
      ("engine", Test_engine.suite);
      ("telemetry", Test_telemetry.suite);
      ("oracle", Test_oracle.suite);
      ("explain", Test_explain.suite);
      ("server", Test_server.suite);
      ("parscale", Test_parscale.suite);
      ("stress", Test_stress.suite);
      ("codegen", Test_codegen.suite);
      ("perfdebug", Test_perfdebug.suite);
      ("evaluator", Test_characterize.suite);
    ]

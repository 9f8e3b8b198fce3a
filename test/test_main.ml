let () =
  Alcotest.run "ccsim"
    [
      ("util", Test_util.suite);
      ("engine", Test_engine.suite);
      ("net", Test_net.suite);
      ("cca", Test_cca.suite);
      ("tcp", Test_tcp.suite);
      ("app", Test_app.suite);
      ("measure", Test_measure.suite);
      ("scenarios", Test_scenarios.suite);
      ("extensions", Test_extensions.suite);
      ("models", Test_models.suite);
      ("runner", Test_runner.suite);
      ("faults", Test_faults.suite);
      ("cli", Test_cli.suite);
      ("fluid", Test_fluid.suite);
      ("obs", Test_obs.suite);
      ("timeline", Test_timeline.suite);
      ("lint", Test_lint.suite);
      ("determinism", Test_determinism.suite);
    ]

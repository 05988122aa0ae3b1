let () =
  Alcotest.run "xquec"
    (Test_xmlkit.suites @ Test_compress.suites @ Test_storage.suites @ Test_succinct.suites
    @ Test_xquery.suites @ Test_executor.suites @ Test_core.suites
    @ Test_baselines.suites @ Test_xmark.suites @ Test_fuzz.suites @ Test_more.suites
    @ Test_obs.suites @ Test_workload.suites @ Test_serve.suites @ Test_watch.suites
    @ Test_compact.suites @ Test_differential.suites @ Test_xmark_pins.suites)

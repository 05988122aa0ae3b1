(* Drift watchdog and alert engine tests: streaming-vs-offline
   fingerprint parity (the watchdog and `xquec profile` must agree on
   the same query stream), window expiry, empty-window drift semantics,
   alert sustain-K hysteresis / flapping suppression / missing-signal
   behavior, the JSONL alert log, and the /watch /alerts /healthz
   routes. *)

open Xquec_core
module Obs = Xquec_obs

(* A recorded request: the query log and the watchdog see it. *)
let logged eng text = Engine.request eng { text; plan = None; admission = None; record = true }

let with_fresh_telemetry f =
  Obs.reset ();
  Obs.Watch.set_enabled false;
  Obs.Watch.configure ~window_seconds:10.0 ~windows:6 ~alpha:0.3 ();
  Obs.Watch.set_baseline None;
  Obs.Watch.reset ();
  Obs.Alert.set_rules [];
  Obs.Alert.set_log None;
  Fun.protect
    ~finally:(fun () ->
      Obs.Watch.set_enabled false;
      Obs.Watch.set_baseline None;
      Obs.Watch.reset ();
      Obs.Alert.set_rules [];
      Obs.Alert.set_log None;
      Obs.Query_log.set_path None;
      Obs.reset ())
    (fun () -> Obs.with_enabled f)

let xmark_xml = lazy (Xmark.Xmlgen.generate ~scale:0.05 ())
let shared_engine = lazy (Engine.load ~name:"auction.xml" (Lazy.force xmark_xml))

let tmp_file suffix =
  let path = Filename.temp_file "xquec_watch" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go k = k + lb <= ls && (String.sub s k lb = sub || go (k + 1)) in
  go 0

(* The standard point/scan/wild mix the serving tests use. *)
let mix_a =
  [
    "document(\"auction.xml\")/site/people/person[@id = \"person1\"]/name";
    "for $p in document(\"auction.xml\")/site/people/person where $p/name = \"Aloys Rommel\" \
     return $p/emailaddress";
    "for $i in document(\"auction.xml\")/site/regions/europe/item return $i/name";
  ]

(* A deliberately shifted mix: different containers, different kinds. *)
let mix_b =
  [
    "for $p in document(\"auction.xml\")/site/people/person where contains($p/profile/education, \
     \"Grad\") return $p/name";
    "for $a in document(\"auction.xml\")/site/closed_auctions/closed_auction where $a/price > \
     100.0 return $a/price";
  ]

(* ------------------------------------------------------------------ *)
(* Streaming vs offline parity                                         *)
(* ------------------------------------------------------------------ *)

let test_parity_with_offline_profile () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  let log = tmp_file ".jsonl" in
  Obs.Query_log.set_path (Some log);
  Obs.Watch.set_enabled true;
  (* the engine's fan-in stamps observations with the wall clock; keep
     the whole stream well inside the rolling window *)
  Obs.Watch.configure ~window_seconds:3600.0 ~windows:6 ();
  List.iter (fun q -> ignore (logged engine q)) (mix_a @ mix_b @ mix_a);
  Obs.Query_log.set_path None;
  let offline = Obs.Profile.of_records (Obs.Profile.load_jsonl log) in
  let streaming = Obs.Watch.fingerprint ~now:(Unix.gettimeofday ()) () in
  Alcotest.(check int) "same record count" offline.Obs.Profile.records
    streaming.Obs.Profile.records;
  Alcotest.(check bool) "fingerprint not empty" true (offline.Obs.Profile.weights <> []);
  let d = Obs.Profile.drift offline streaming in
  Alcotest.(check bool)
    (Printf.sprintf "drift %.12f within 1e-9" d)
    true (d <= 1e-9);
  (* identical advice from identical fingerprints *)
  let recs fp =
    List.map
      (fun (r : Obs.Profile.recommendation) ->
        (r.Obs.Profile.r_container, r.Obs.Profile.r_action, r.Obs.Profile.r_factor))
      (Obs.Profile.recommend fp)
  in
  Alcotest.(check bool) "identical recommendations" true (recs offline = recs streaming);
  (* and the weight distributions agree key-for-key *)
  Alcotest.(check int) "same weight keys"
    (List.length offline.Obs.Profile.weights)
    (List.length streaming.Obs.Profile.weights)

(* ------------------------------------------------------------------ *)
(* Watch window mechanics                                              *)
(* ------------------------------------------------------------------ *)

let obs container kind =
  { Obs.Ledger.ob_container = container; ob_kind = kind; ob_candidates = 10; ob_matches = 2 }

(* The fingerprint of one query that observed these predicates. *)
let fp_of predicates =
  let g = Obs.Profile.agg_create () in
  Obs.Profile.agg_add g ~predicates ~containers:[];
  Obs.Profile.agg_fingerprint g

let test_window_expiry () =
  with_fresh_telemetry @@ fun () ->
  Obs.Watch.set_enabled true;
  Obs.Watch.configure ~window_seconds:10.0 ~windows:3 ();
  let t0 = 1000.0 in
  Obs.Watch.observe ~now:t0 ~predicates:[ obs "/a" "eq" ] ~containers:[ ("/a", 100) ] ();
  let fp = Obs.Watch.fingerprint ~now:t0 () in
  Alcotest.(check int) "observation lands in the window" 1 fp.Obs.Profile.records;
  (* same ring slot two full rotations later: the bucket is recycled *)
  let fp' = Obs.Watch.fingerprint ~now:(t0 +. 100.0) () in
  Alcotest.(check int) "expired window drops the observation" 0 fp'.Obs.Profile.records;
  (* a new observation after expiry starts a fresh bucket *)
  Obs.Watch.observe ~now:(t0 +. 100.0) ~predicates:[ obs "/b" "range" ]
    ~containers:[ ("/b", 50) ] ();
  let fp'' = Obs.Watch.fingerprint ~now:(t0 +. 100.0) () in
  Alcotest.(check int) "fresh bucket after recycling" 1 fp''.Obs.Profile.records

let test_drift_semantics_and_ewma () =
  with_fresh_telemetry @@ fun () ->
  Obs.Watch.set_enabled true;
  Obs.Watch.configure ~window_seconds:10.0 ~windows:3 ~alpha:0.5 ();
  let t0 = 2000.0 in
  (* no repository: recommendations join an empty heat reading *)
  (* no baseline: a tick computes no drift *)
  Obs.Watch.observe ~now:t0 ~predicates:[ obs "/a" "eq" ] ~containers:[ ("/a", 10) ] ();
  let st = Obs.Watch.tick ~now:t0 ~heat:[] () in
  Alcotest.(check bool) "no baseline -> no drift" true (st.Obs.Watch.w_drift = None);
  (* identical baseline: drift 0 *)
  Obs.Watch.set_baseline (Some (fp_of [ obs "/a" "eq" ]));
  let st = Obs.Watch.tick ~now:t0 ~heat:[] () in
  (match st.Obs.Watch.w_drift with
  | Some d -> Alcotest.(check (float 1e-9)) "identical mix drifts 0" 0.0 d
  | None -> Alcotest.fail "drift expected with baseline + observations");
  (* disjoint baseline: drift 1; EWMA moves halfway (alpha 0.5) *)
  Obs.Watch.set_baseline (Some (fp_of [ obs "/z" "wild" ]));
  let st = Obs.Watch.tick ~now:t0 ~heat:[] () in
  (match (st.Obs.Watch.w_drift, st.Obs.Watch.w_drift_ewma) with
  | Some d, Some e ->
    Alcotest.(check (float 1e-9)) "disjoint mix drifts 1" 1.0 d;
    Alcotest.(check (float 1e-9)) "ewma smooths the step" 0.5 e
  | _ -> Alcotest.fail "drift and ewma expected");
  (* empty window: drift None, EWMA untouched *)
  let st = Obs.Watch.tick ~now:(t0 +. 100.0) ~heat:[] () in
  Alcotest.(check bool) "empty window -> no drift" true (st.Obs.Watch.w_drift = None);
  (match st.Obs.Watch.w_drift_ewma with
  | Some e -> Alcotest.(check (float 1e-9)) "empty window leaves ewma" 0.5 e
  | None -> Alcotest.fail "ewma survives the empty window")

(* ------------------------------------------------------------------ *)
(* Alert engine                                                        *)
(* ------------------------------------------------------------------ *)

let rule ?(name = "r") ?(signal = "s") ?(op = Obs.Alert.Gt) ?(threshold = 1.0) ?(sustain = 3)
    ?(resolve = 2) () =
  { Obs.Alert.a_name = name; a_signal = signal; a_op = op; a_threshold = threshold;
    a_sustain = sustain; a_resolve = resolve }

let events ts = List.map (fun t -> (t.Obs.Alert.t_rule, t.Obs.Alert.t_event)) ts

let test_alert_sustain_hysteresis () =
  with_fresh_telemetry @@ fun () ->
  Obs.Alert.set_rules [ rule ~sustain:3 ~resolve:2 () ];
  let eval v = Obs.Alert.evaluate ~now:0.0 [ ("s", v) ] in
  Alcotest.(check (list (pair string string))) "breach 1: silent" [] (events (eval 2.0));
  Alcotest.(check (list (pair string string))) "breach 2: silent" [] (events (eval 2.0));
  Alcotest.(check (list (pair string string)))
    "breach 3: fires" [ ("r", "fired") ] (events (eval 2.0));
  Alcotest.(check (list (pair string string))) "already active: no re-fire" []
    (events (eval 2.0));
  Alcotest.(check (list (pair string string))) "clear 1: still active" [] (events (eval 0.5));
  Alcotest.(check (list (pair string string)))
    "clear 2: resolves" [ ("r", "resolved") ] (events (eval 0.5));
  Alcotest.(check (list (pair string string))) "inactive clear: silent" [] (events (eval 0.5));
  Alcotest.(check bool) "nothing active at the end" true (Obs.Alert.active () = [])

let test_alert_flapping_suppression () =
  with_fresh_telemetry @@ fun () ->
  Obs.Alert.set_rules [ rule ~sustain:3 ~resolve:2 () ];
  (* breach/clear alternation never accumulates 3 consecutive breaches *)
  for _ = 1 to 10 do
    Alcotest.(check (list (pair string string)))
      "flapping: breach silent" []
      (events (Obs.Alert.evaluate ~now:0.0 [ ("s", 2.0) ]));
    Alcotest.(check (list (pair string string)))
      "flapping: clear silent" []
      (events (Obs.Alert.evaluate ~now:0.0 [ ("s", 0.5) ]))
  done;
  Alcotest.(check bool) "never fired" true (Obs.Alert.active () = [] && Obs.Alert.recent () = [])

let test_alert_missing_signal () =
  with_fresh_telemetry @@ fun () ->
  Obs.Alert.set_rules [ rule ~sustain:3 ~resolve:2 () ];
  let eval signals = events (Obs.Alert.evaluate ~now:0.0 signals) in
  Alcotest.(check (list (pair string string))) "breach 1" [] (eval [ ("s", 2.0) ]);
  Alcotest.(check (list (pair string string))) "breach 2" [] (eval [ ("s", 2.0) ]);
  (* empty-window tick: no signal at all — streak must survive *)
  Alcotest.(check (list (pair string string))) "missing signal: silent" [] (eval []);
  Alcotest.(check (list (pair string string)))
    "breach 3 after the gap still fires" [ ("r", "fired") ] (eval [ ("s", 2.0) ]);
  (* while active, missing signals must not resolve *)
  Alcotest.(check (list (pair string string))) "missing signal keeps it active" [] (eval []);
  Alcotest.(check bool) "still active" true (List.mem_assoc "r" (Obs.Alert.active ()));
  (* Lt-direction rule, and unrelated signals are ignored *)
  Obs.Alert.set_rules [ rule ~name:"low" ~op:Obs.Alert.Lt ~threshold:0.5 ~sustain:2 () ];
  Alcotest.(check (list (pair string string)))
    "lt breach 1" []
    (eval [ ("s", 0.1); ("other", 99.0) ]);
  Alcotest.(check (list (pair string string)))
    "lt breach 2 fires" [ ("low", "fired") ] (eval [ ("s", 0.1) ])

let test_alert_log_and_metrics () =
  with_fresh_telemetry @@ fun () ->
  let log = tmp_file ".jsonl" in
  Obs.Alert.set_rules [ rule ~sustain:1 ~resolve:1 () ];
  Obs.Alert.set_log (Some log);
  Alcotest.(check (float 1e-9)) "gauge pre-registered at 0" 0.0
    (Option.value ~default:(-1.0) (Obs.Metrics.gauge_value "alert.r.active"));
  ignore (Obs.Alert.evaluate ~now:1234.5 [ ("s", 2.0) ]);
  Alcotest.(check (float 1e-9)) "gauge flips to 1" 1.0
    (Option.value ~default:(-1.0) (Obs.Metrics.gauge_value "alert.r.active"));
  ignore (Obs.Alert.evaluate ~now:1240.0 [ ("s", 0.0) ]);
  Alcotest.(check (float 1e-9)) "gauge flips back" 0.0
    (Option.value ~default:(-1.0) (Obs.Metrics.gauge_value "alert.r.active"));
  Alcotest.(check int) "two transitions counted" 2 (Obs.Metrics.counter_value "alert.transitions");
  let lines =
    let ic = open_in log in
    let rec go acc = match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []
  in
  Alcotest.(check int) "two log lines" 2 (List.length lines);
  Alcotest.(check bool) "fired line" true (contains (List.nth lines 0) "\"event\":\"fired\"");
  Alcotest.(check bool) "resolved line" true
    (contains (List.nth lines 1) "\"event\":\"resolved\"");
  Alcotest.(check bool) "iso timestamp" true (contains (List.nth lines 0) "\"ts\":\"1970-01-01T00:20:34Z\"");
  (* recent ring is newest-first *)
  (match Obs.Alert.recent () with
  | newest :: _ -> Alcotest.(check string) "ring newest first" "resolved" newest.Obs.Alert.t_event
  | [] -> Alcotest.fail "ring empty");
  (* prometheus exposition uses the rule label form *)
  let prom = Obs.Metrics.to_prometheus () in
  Alcotest.(check bool) "labelled alert gauge" true
    (contains prom "xquec_alert_active{rule=\"r\"}")

(* ------------------------------------------------------------------ *)
(* Serve integration: watch_tick signals and the HTTP surfaces         *)
(* ------------------------------------------------------------------ *)

let test_watch_tick_drift_alert () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  Obs.Watch.set_enabled true;
  Obs.Watch.configure ~window_seconds:3600.0 ~windows:6 ();
  Obs.Alert.set_rules (Serve.default_rules ~drift_threshold:0.3 ());
  Serve.watch_tick_reset ();
  (* baseline = the declared mix, stream = the same mix: drift ~ 0 *)
  Obs.Watch.set_baseline (Some (Engine.declared_fingerprint engine mix_a));
  List.iter (fun q -> ignore (logged engine q)) mix_a;
  let now = Unix.gettimeofday () in
  let st, trs = Serve.watch_tick ~now engine in
  (match st.Obs.Watch.w_drift with
  | Some d -> Alcotest.(check bool) (Printf.sprintf "declared mix drift %.3f low" d) true (d < 0.3)
  | None -> Alcotest.fail "drift expected");
  Alcotest.(check (list (pair string string))) "no transitions on the declared mix" []
    (events trs);
  (* shift the mix hard and tick through the sustain count *)
  Obs.Watch.reset ();
  Serve.watch_tick_reset ();
  List.iter (fun q -> ignore (logged engine q)) mix_b;
  let fired = ref [] in
  for i = 1 to 3 do
    let _, trs = Serve.watch_tick ~now:(now +. float_of_int i) engine in
    fired := !fired @ events trs
  done;
  Alcotest.(check (list (pair string string)))
    "drift_sustained fires after 3 sustained windows"
    [ ("drift_sustained", "fired") ]
    (List.filter (fun (r, _) -> r = "drift_sustained") !fired)

(* Serving exactly the declared workload scores no drift: the baseline
   is observed through the same aggregation the watchdog folds served
   queries into, so identical traffic cannot look drifted. *)
let test_declared_mix_scores_no_drift () =
  with_fresh_telemetry @@ fun () ->
  let queries = Test_xmark_pins.workload_queries "../examples/xmark_workload.xq" in
  let xml = Xmark.Xmlgen.generate ~seed:42 ~scale:0.1 () in
  let engine = Engine.load ~name:"auction.xml" ~workload:queries xml in
  Obs.Watch.set_enabled true;
  Obs.Watch.configure ~window_seconds:3600.0 ~windows:6 ();
  Obs.Alert.set_rules (Serve.default_rules ());
  Serve.watch_tick_reset ();
  Obs.Watch.set_baseline (Some (Engine.declared_fingerprint engine queries));
  List.iter (fun q -> ignore (logged engine q)) queries;
  let now = Unix.gettimeofday () in
  let fired = ref [] in
  for i = 1 to 3 do
    let st, trs = Serve.watch_tick ~now:(now +. float_of_int i) engine in
    (match st.Obs.Watch.w_drift with
    | Some d -> Alcotest.(check bool) (Printf.sprintf "tick %d drift %g is 0" i d) true (d <= 1e-12)
    | None -> Alcotest.fail "drift expected");
    fired := !fired @ events trs
  done;
  Alcotest.(check (list (pair string string))) "drift_sustained stays silent" []
    (List.filter (fun (r, _) -> r = "drift_sustained") !fired)

let test_http_surfaces () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  Obs.Watch.set_enabled true;
  Obs.Alert.set_rules (Serve.default_rules ());
  Serve.set_server_info ~format:"v4" ();
  let get path =
    match
      Serve.handler engine { Obs.Expo.meth = "GET"; path; query = []; body = "" }
    with
    | Some r -> r
    | None -> Alcotest.failf "no response for %s" path
  in
  ignore (Serve.run_query engine "1+2");
  ignore (Serve.watch_tick engine);
  let r = get "/watch" in
  Alcotest.(check int) "/watch status" 200 r.Obs.Expo.status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/watch has " ^ needle) true (contains r.Obs.Expo.body needle))
    [ "\"enabled\":true"; "\"weights\""; "\"recommendations\""; "\"ticks\":1" ];
  let r = get "/alerts" in
  Alcotest.(check int) "/alerts status" 200 r.Obs.Expo.status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/alerts has " ^ needle) true (contains r.Obs.Expo.body needle))
    [ "\"rules\""; "drift_sustained"; "\"active\":["; "\"recent\":[" ];
  let r = get "/healthz" in
  Alcotest.(check int) "/healthz status" 200 r.Obs.Expo.status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/healthz has " ^ needle) true (contains r.Obs.Expo.body needle))
    [ "\"status\":\"ok\""; "\"format\":\"v4\""; "\"uptime_s\""; "\"watchdog\"";
      "\"enabled\":true" ]

(* /watch and `xquec profile --json` encode weights, containers and
   recommendations with one encoder: for one fingerprint and one heat
   reading the three fields are equal. *)
let test_watch_matches_report () =
  with_fresh_telemetry @@ fun () ->
  Obs.Watch.set_enabled true;
  Obs.Watch.configure ~window_seconds:10.0 ~windows:3 ();
  let now = 3000.0 in
  let pred container kind candidates matches =
    { Obs.Ledger.ob_container = container; ob_kind = kind; ob_candidates = candidates;
      ob_matches = matches }
  in
  Obs.Watch.observe ~now
    ~predicates:[ pred "/point" "eq" 1000 2; pred "/scan" "range" 100 50 ]
    ~containers:[ ("/point", 64); ("/scan", 640) ] ();
  let stat label ~seq ~runs =
    { Obs.Heat.uid = 0; label; blocks = 4; touches = seq + runs; decodes = 10; hits = 0;
      header_skips = 0; bytes_decoded = 0; bytes_skipped = 0; seq_touches = seq; runs }
  in
  let heat = [ stat "/point" ~seq:1 ~runs:9; stat "/scan" ~seq:95 ~runs:5 ] in
  let watch = Obs.Watch.snapshot_json ~now ~heat () in
  let report = Obs.Profile.report_json ~heat (Obs.Watch.fingerprint ~now ()) in
  let field name j =
    Option.fold ~none:"(missing)" ~some:Obs.Json.to_string (Obs.Json.member name j)
  in
  Alcotest.(check bool) "the heat reading grows the scanned container" true
    (contains (field "recommendations" watch) "\"grow\"");
  List.iter
    (fun name ->
      Alcotest.(check string) ("/watch " ^ name ^ " = report " ^ name) (field name report)
        (field name watch))
    [ "weights"; "containers"; "recommendations" ]

let suites =
  [
    ( "watch",
      [
        Alcotest.test_case "streaming = offline profile (parity)" `Quick
          test_parity_with_offline_profile;
        Alcotest.test_case "window expiry recycles buckets" `Quick test_window_expiry;
        Alcotest.test_case "drift semantics + EWMA" `Quick test_drift_semantics_and_ewma;
        Alcotest.test_case "watch_tick drives drift_sustained" `Quick
          test_watch_tick_drift_alert;
        Alcotest.test_case "declared workload scores no drift" `Quick
          test_declared_mix_scores_no_drift;
        Alcotest.test_case "/watch /alerts /healthz payloads" `Quick test_http_surfaces;
        Alcotest.test_case "/watch and profile --json share one encoder" `Quick
          test_watch_matches_report;
      ] );
    ( "alert",
      [
        Alcotest.test_case "sustain-K hysteresis" `Quick test_alert_sustain_hysteresis;
        Alcotest.test_case "flapping suppression" `Quick test_alert_flapping_suppression;
        Alcotest.test_case "missing signals leave streaks" `Quick test_alert_missing_signal;
        Alcotest.test_case "JSONL log + gauges + prometheus" `Quick test_alert_log_and_metrics;
      ] );
  ]

(* Drift watchdog and alert engine tests: streaming-vs-offline
   fingerprint parity (the watchdog and `xquec profile` must agree on
   the same query stream, a budget-tripped query included), window
   expiry, empty-window drift semantics, alert sustain-K hysteresis /
   flapping suppression / missing-signal behavior, the JSONL alert log,
   the /watch /alerts /healthz routes, and two servers in one process
   keeping their own watchdogs, alerts, compaction logs, budgets and
   tickers. *)

open Xquec_core
module Obs = Xquec_obs

(* A recorded request the watchdog [w] observes, as a served query is. *)
let watched eng w text = Engine.request eng { (Engine.plain text) with record = true; watch = Some w }

let with_fresh_telemetry f =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Query_log.set_path None;
      Obs.reset ())
    (fun () -> Obs.with_enabled f)

(* A server with a watchdog whose window outlasts the test, so only the
   test's own [Serve.watch_tick] calls tick it. *)
let watch_config ?baseline () =
  { Test_serve.config with watch_window = 3600.0; baseline }

let get_json server path =
  let r = Obs.Hammer.request ~port:(Serve.port server) path in
  Alcotest.(check int) (path ^ " status") 200 r.Obs.Hammer.r_status;
  Obs.Json.parse r.Obs.Hammer.r_body

let field name j = Option.fold ~none:"(missing)" ~some:Obs.Json.to_string (Obs.Json.member name j)

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
  (* the engine's fan-in stamps observations with the wall clock; keep
     the whole stream well inside the rolling window *)
  let w = Obs.Watch.create ~window_seconds:3600.0 ~baseline:None in
  List.iter (fun q -> ignore (watched engine w q)) (mix_a @ mix_b @ mix_a);
  Obs.Query_log.set_path None;
  let offline = Obs.Profile.of_records (Obs.Profile.load_jsonl log) in
  let streaming = Obs.Watch.fingerprint w ~now:(Unix.gettimeofday ()) () in
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

(* Six windows of 10 s: an observation stays live for five more
   windows and expires with the sixth; its slot, reused two full
   rotations later, starts a fresh bucket. *)
let test_window_expiry () =
  with_fresh_telemetry @@ fun () ->
  let w = Obs.Watch.create ~window_seconds:10.0 ~baseline:None in
  let records now = (Obs.Watch.fingerprint w ~now ()).Obs.Profile.records in
  let t0 = 1000.0 in
  Obs.Watch.observe w ~now:t0 ~predicates:[ obs "/a" "eq" ] ~containers:[ ("/a", 100) ] ();
  Alcotest.(check int) "observation lands in the window" 1 (records t0);
  Alcotest.(check int) "still live five windows later" 1 (records (t0 +. 50.0));
  Alcotest.(check int) "expired after six windows" 0 (records (t0 +. 60.0));
  (* same ring slot two full rotations later: the bucket is recycled *)
  let t1 = t0 +. 120.0 in
  Obs.Watch.observe w ~now:t1 ~predicates:[ obs "/b" "range" ] ~containers:[ ("/b", 50) ] ();
  Alcotest.(check int) "fresh bucket after recycling" 1 (records t1)

let test_drift_semantics_and_ewma () =
  with_fresh_telemetry @@ fun () ->
  let t0 = 2000.0 in
  (* no repository: recommendations join an empty heat reading *)
  (* no baseline: a tick computes no drift *)
  let w = Obs.Watch.create ~window_seconds:10.0 ~baseline:None in
  Obs.Watch.observe w ~now:t0 ~predicates:[ obs "/a" "eq" ] ~containers:[ ("/a", 10) ] ();
  let st = Obs.Watch.tick w ~now:t0 ~heat:[] () in
  Alcotest.(check bool) "no baseline -> no drift" true (st.Obs.Watch.w_drift = None);
  (* identical baseline: drift 0 *)
  let w = Obs.Watch.create ~window_seconds:10.0 ~baseline:(Some (fp_of [ obs "/a" "eq" ])) in
  Obs.Watch.observe w ~now:t0 ~predicates:[ obs "/a" "eq" ] ~containers:[ ("/a", 10) ] ();
  let st = Obs.Watch.tick w ~now:t0 ~heat:[] () in
  (match st.Obs.Watch.w_drift with
  | Some d -> Alcotest.(check (float 1e-9)) "identical mix drifts 0" 0.0 d
  | None -> Alcotest.fail "drift expected with baseline + observations");
  (* once /a has expired, a window of /z alone drifts 1; the EWMA
     moves from 0 by alpha of the step *)
  let t1 = t0 +. 100.0 in
  Obs.Watch.observe w ~now:t1 ~predicates:[ obs "/z" "wild" ] ~containers:[ ("/z", 10) ] ();
  let st = Obs.Watch.tick w ~now:t1 ~heat:[] () in
  (match (st.Obs.Watch.w_drift, st.Obs.Watch.w_drift_ewma) with
  | Some d, Some e ->
    Alcotest.(check (float 1e-9)) "disjoint mix drifts 1" 1.0 d;
    Alcotest.(check (float 1e-9)) "ewma smooths the step by 0.3" 0.3 e
  | _ -> Alcotest.fail "drift and ewma expected");
  (* empty window: drift None, EWMA untouched *)
  let st = Obs.Watch.tick w ~now:(t1 +. 100.0) ~heat:[] () in
  Alcotest.(check bool) "empty window -> no drift" true (st.Obs.Watch.w_drift = None);
  (match st.Obs.Watch.w_drift_ewma with
  | Some e -> Alcotest.(check (float 1e-9)) "empty window leaves ewma" 0.3 e
  | None -> Alcotest.fail "ewma survives the empty window")

(* ------------------------------------------------------------------ *)
(* Alert engine                                                        *)
(* ------------------------------------------------------------------ *)

let rule ?(name = "r") ?(signal = "s") ?(op = Obs.Alert.Gt) ?(threshold = 1.0) ?(sustain = 3)
    ?(resolve = 2) () =
  { Obs.Alert.a_name = name; a_signal = signal; a_op = op; a_threshold = threshold;
    a_sustain = sustain; a_resolve = resolve }

let events ts = List.map (fun t -> (t.Obs.Alert.t_rule, t.Obs.Alert.t_event)) ts

(* The rule names /alerts lists as active, and its recent transitions
   as (rule, event), newest first. *)
let listed key pick a =
  match Obs.Json.member key (Obs.Alert.snapshot_json a) with
  | Some (Obs.Json.List l) -> List.map pick l
  | _ -> Alcotest.failf "/alerts lacks %s" key

let str_at name j = Option.value ~default:"" (Option.bind (Obs.Json.member name j) Obs.Json.to_str)
let active a = listed "active" (str_at "rule") a
let recent a = listed "recent" (fun j -> (str_at "rule" j, str_at "event" j)) a

let test_alert_sustain_hysteresis () =
  with_fresh_telemetry @@ fun () ->
  let a = Obs.Alert.create [ rule ~sustain:3 ~resolve:2 () ] in
  let eval v = Obs.Alert.evaluate a ~now:0.0 [ ("s", v) ] in
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
  Alcotest.(check (list string)) "nothing active at the end" [] (active a)

let test_alert_flapping_suppression () =
  with_fresh_telemetry @@ fun () ->
  let a = Obs.Alert.create [ rule ~sustain:3 ~resolve:2 () ] in
  (* breach/clear alternation never accumulates 3 consecutive breaches *)
  for _ = 1 to 10 do
    Alcotest.(check (list (pair string string)))
      "flapping: breach silent" []
      (events (Obs.Alert.evaluate a ~now:0.0 [ ("s", 2.0) ]));
    Alcotest.(check (list (pair string string)))
      "flapping: clear silent" []
      (events (Obs.Alert.evaluate a ~now:0.0 [ ("s", 0.5) ]))
  done;
  Alcotest.(check bool) "never fired" true (active a = [] && recent a = [])

let test_alert_missing_signal () =
  with_fresh_telemetry @@ fun () ->
  let a = Obs.Alert.create [ rule ~sustain:3 ~resolve:2 () ] in
  let eval ?(a = a) signals = events (Obs.Alert.evaluate a ~now:0.0 signals) in
  Alcotest.(check (list (pair string string))) "breach 1" [] (eval [ ("s", 2.0) ]);
  Alcotest.(check (list (pair string string))) "breach 2" [] (eval [ ("s", 2.0) ]);
  (* empty-window tick: no signal at all — streak must survive *)
  Alcotest.(check (list (pair string string))) "missing signal: silent" [] (eval []);
  Alcotest.(check (list (pair string string)))
    "breach 3 after the gap still fires" [ ("r", "fired") ] (eval [ ("s", 2.0) ]);
  (* while active, missing signals must not resolve *)
  Alcotest.(check (list (pair string string))) "missing signal keeps it active" [] (eval []);
  Alcotest.(check (list string)) "still active" [ "r" ] (active a);
  (* Lt-direction rule, and unrelated signals are ignored *)
  let a = Obs.Alert.create [ rule ~name:"low" ~op:Obs.Alert.Lt ~threshold:0.5 ~sustain:2 () ] in
  Alcotest.(check (list (pair string string)))
    "lt breach 1" []
    (eval ~a [ ("s", 0.1); ("other", 99.0) ]);
  Alcotest.(check (list (pair string string)))
    "lt breach 2 fires" [ ("low", "fired") ] (eval ~a [ ("s", 0.1) ])

let test_alert_log_and_metrics () =
  with_fresh_telemetry @@ fun () ->
  let log = tmp_file ".jsonl" in
  let a = Obs.Alert.create ~log [ rule ~sustain:1 ~resolve:1 () ] in
  Alcotest.(check (float 1e-9)) "gauge pre-registered at 0" 0.0
    (Option.value ~default:(-1.0) (Obs.Metrics.gauge_value "alert.r.active"));
  ignore (Obs.Alert.evaluate a ~now:1234.5 [ ("s", 2.0) ]);
  Alcotest.(check (float 1e-9)) "gauge flips to 1" 1.0
    (Option.value ~default:(-1.0) (Obs.Metrics.gauge_value "alert.r.active"));
  ignore (Obs.Alert.evaluate a ~now:1240.0 [ ("s", 0.0) ]);
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
  Alcotest.(check (list (pair string string))) "ring newest first"
    [ ("r", "resolved"); ("r", "fired") ] (recent a);
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
  (* baseline = the declared mix, stream = the same mix: drift ~ 0 *)
  let baseline = Engine.declared_fingerprint engine mix_a in
  let now = Unix.gettimeofday () in
  (Test_serve.with_server engine ~config:(watch_config ~baseline ()) @@ fun server ->
   List.iter (fun q -> ignore (Serve.run_query server q)) mix_a;
   let st, trs = Serve.watch_tick ~now server in
   (match st.Obs.Watch.w_drift with
   | Some d -> Alcotest.(check bool) (Printf.sprintf "declared mix drift %.3f low" d) true (d < 0.3)
   | None -> Alcotest.fail "drift expected");
   Alcotest.(check (list (pair string string))) "no transitions on the declared mix" []
     (events trs));
  (* a fresh server streams a hard-shifted mix and ticks through the
     sustain count *)
  Test_serve.with_server engine ~config:(watch_config ~baseline ()) @@ fun server ->
  List.iter (fun q -> ignore (Serve.run_query server q)) mix_b;
  let fired = ref [] in
  for i = 1 to 3 do
    let _, trs = Serve.watch_tick ~now:(now +. float_of_int i) server in
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
  let baseline = Engine.declared_fingerprint engine queries in
  Test_serve.with_server engine ~config:(watch_config ~baseline ()) @@ fun server ->
  List.iter (fun q -> ignore (Serve.run_query server q)) queries;
  let now = Unix.gettimeofday () in
  let fired = ref [] in
  for i = 1 to 3 do
    let st, trs = Serve.watch_tick ~now:(now +. float_of_int i) server in
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
  Test_serve.with_server engine ~config:(watch_config ()) @@ fun server ->
  let get path =
    let r = Obs.Hammer.request ~port:(Serve.port server) path in
    Alcotest.(check int) (path ^ " status") 200 r.Obs.Hammer.r_status;
    r.Obs.Hammer.r_body
  in
  ignore (Serve.run_query server "1+2");
  ignore (Serve.watch_tick server);
  let body = get "/watch" in
  List.iter
    (fun needle -> Alcotest.(check bool) ("/watch has " ^ needle) true (contains body needle))
    [ "\"enabled\":true"; "\"weights\""; "\"recommendations\""; "\"ticks\":1" ];
  let body = get "/alerts" in
  List.iter
    (fun needle -> Alcotest.(check bool) ("/alerts has " ^ needle) true (contains body needle))
    [ "\"rules\""; "drift_sustained"; "\"active\":["; "\"recent\":[" ];
  let body = get "/healthz" in
  List.iter
    (fun needle -> Alcotest.(check bool) ("/healthz has " ^ needle) true (contains body needle))
    [ "\"status\":\"ok\""; "\"format\":\"v4\""; "\"uptime_s\""; "\"watchdog\"";
      "\"enabled\":true" ]

(* /watch and `xquec profile --json` encode weights, containers and
   recommendations with one encoder: for one fingerprint and one heat
   reading the three fields are equal. *)
let test_watch_matches_report () =
  with_fresh_telemetry @@ fun () ->
  let w = Obs.Watch.create ~window_seconds:10.0 ~baseline:None in
  let now = 3000.0 in
  let pred container kind candidates matches =
    { Obs.Ledger.ob_container = container; ob_kind = kind; ob_candidates = candidates;
      ob_matches = matches }
  in
  Obs.Watch.observe w ~now
    ~predicates:[ pred "/point" "eq" 1000 2; pred "/scan" "range" 100 50 ]
    ~containers:[ ("/point", 64); ("/scan", 640) ] ();
  let stat label ~seq ~runs =
    { Obs.Heat.uid = 0; label; blocks = 4; touches = seq + runs; decodes = 10; hits = 0;
      header_skips = 0; bytes_decoded = 0; bytes_skipped = 0; seq_touches = seq; runs }
  in
  let heat = [ stat "/point" ~seq:1 ~runs:9; stat "/scan" ~seq:95 ~runs:5 ] in
  let watch = Obs.Watch.snapshot_json ~now ~heat (Some w) in
  let report = Obs.Profile.report_json ~heat (Obs.Watch.fingerprint w ~now ()) in
  Alcotest.(check bool) "the heat reading grows the scanned container" true
    (contains (field "recommendations" watch) "\"grow\"");
  List.iter
    (fun name ->
      Alcotest.(check string) ("/watch " ^ name ^ " = report " ^ name) (field name report)
        (field name watch))
    [ "weights"; "containers"; "recommendations" ]

(* A query its server's budget stops (408) is observed by that server's
   watchdog exactly as its query-log record reports it: the same
   predicate observations and container touches. *)
let test_budget_trip_observed_as_logged () =
  with_fresh_telemetry @@ fun () ->
  (* fresh load: nothing resident, so the query's first block decode
     already crosses the 1-byte budget *)
  let engine = Engine.load ~name:"auction.xml" (Lazy.force xmark_xml) in
  let log = tmp_file ".jsonl" in
  Obs.Query_log.set_path (Some log);
  let config =
    { (watch_config ()) with limits = { Obs.Ledger.wall_ms = 0.0; decode_bytes = 1 } }
  in
  Test_serve.with_server engine ~config @@ fun server ->
  let q =
    "for $p in document(\"auction.xml\")/site/people/person where $p/@id = \"person0\" \
     return $p/name"
  in
  Alcotest.(check int) "tripped" 408 (Serve.run_query server q).Obs.Expo.status;
  Obs.Query_log.set_path None;
  let records = Obs.Profile.load_jsonl log in
  Alcotest.(check (list string)) "one record naming the trip" [ "budget_exceeded" ]
    (List.map (str_at "error") records);
  let logged = Obs.Profile.of_records records in
  Alcotest.(check bool) "the record has predicates" true (logged.Obs.Profile.weights <> []);
  Alcotest.(check bool) "the record has container touches" true
    (logged.Obs.Profile.containers <> []);
  let report = Obs.Profile.report_json logged and watch = get_json server "/watch" in
  List.iter
    (fun name ->
      Alcotest.(check string) ("/watch " ^ name ^ " = the log's " ^ name) (field name report)
        (field name watch))
    [ "records"; "weights"; "containers" ]

(* ------------------------------------------------------------------ *)
(* Two servers in one process                                          *)
(* ------------------------------------------------------------------ *)

let int_at path j =
  match
    Option.bind (List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some j) path)
      Obs.Json.to_float
  with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "missing %s" (String.concat "." path)

(* Each server keeps its own watchdog, alert history, compaction log
   (its repository's), worker count, budgets and ticker. *)
let test_two_servers_keep_separate_state () =
  with_fresh_telemetry @@ fun () ->
  let xml = Lazy.force xmark_xml in
  let e1 = Engine.load ~name:"auction.xml" xml and e2 = Engine.load ~name:"auction.xml" xml in
  let s1 =
    Serve.start
      { (watch_config ~baseline:(Engine.declared_fingerprint e1 mix_a) ()) with workers = 2 }
      e1
  in
  let s2 =
    Serve.start
      { (watch_config ()) with limits = { Obs.Ledger.wall_ms = 0.0; decode_bytes = 1 } }
      e2
  in
  Fun.protect ~finally:(fun () -> Serve.stop s1; Serve.stop s2) (fun () ->
      (* budgets: the same query answers on one server and trips the other *)
      let q = "document(\"auction.xml\")/site/people/person/name" in
      Alcotest.(check int) "no budget: 200" 200 (Serve.run_query s1 q).Obs.Expo.status;
      Alcotest.(check int) "1-byte budget: 408" 408 (Serve.run_query s2 q).Obs.Expo.status;
      (* drift and alerts: only s1 streams the shifted mix *)
      List.iter (fun q -> ignore (Serve.run_query s1 q)) mix_b;
      let now = Unix.gettimeofday () in
      for i = 1 to 3 do
        ignore (Serve.watch_tick ~now:(now +. float_of_int i) s1);
        ignore (Serve.watch_tick ~now:(now +. float_of_int i) s2)
      done;
      let w1 = get_json s1 "/watch" and w2 = get_json s2 "/watch" in
      Alcotest.(check int) "s1 watched its own queries" (1 + List.length mix_b) (int_at [ "records" ] w1);
      Alcotest.(check int) "s2 watched its own query" 1 (int_at [ "records" ] w2);
      Alcotest.(check bool) "s1 drifted" true
        (match Option.bind (Obs.Json.member "drift" w1) Obs.Json.to_float with
        | Some d -> d > 0.3
        | None -> false);
      Alcotest.(check string) "s2 has no baseline, so no drift" "null" (field "drift" w2);
      let fired a =
        match Obs.Json.member "recent" a with
        | Some (Obs.Json.List l) ->
          List.filter_map
            (fun j -> if str_at "event" j = "fired" then Some (str_at "rule" j) else None)
            l
        | _ -> Alcotest.fail "/alerts lacks recent"
      in
      Alcotest.(check (list string)) "s1 fired drift_sustained" [ "drift_sustained" ]
        (fired (get_json s1 "/alerts"));
      Alcotest.(check (list string)) "s2 fired nothing" [] (fired (get_json s2 "/alerts"));
      (* compaction: /compact reports the served repository's log *)
      let repo = Engine.repo e1 in
      let id = (Option.get (Storage.Repository.find_container_by_path repo "/site/people/person/@id")).Storage.Container.id in
      ignore (Storage.Compactor.compact_container repo ~id ~block_size:2048);
      Alcotest.(check int) "s1's repository compacted once" 1
        (int_at [ "compactions" ] (get_json s1 "/compact"));
      Alcotest.(check int) "s2's repository never" 0
        (int_at [ "compactions" ] (get_json s2 "/compact"));
      (* /healthz reports each server's own pool *)
      Alcotest.(check int) "s1 workers" 2 (int_at [ "workers" ] (get_json s1 "/healthz"));
      Alcotest.(check int) "s2 workers" 1 (int_at [ "workers" ] (get_json s2 "/healthz")));
  (* tickers: stopping one server leaves the other's ticking *)
  let ticking e = Serve.start { Test_serve.config with watch_window = 0.05 } e in
  let t1 = ticking e1 and t2 = ticking e2 in
  Fun.protect ~finally:(fun () -> Serve.stop t1; Serve.stop t2) @@ fun () ->
  let ticks s = int_at [ "watchdog"; "ticks" ] (get_json s "/healthz") in
  let await what cond =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    Alcotest.(check bool) what true (cond ())
  in
  await "both tickers tick" (fun () -> ticks t1 > 0 && ticks t2 > 0);
  Serve.stop t1;
  let before = ticks t2 in
  await "the other ticker keeps ticking" (fun () -> ticks t2 > before)

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
        Alcotest.test_case "408 query observed as logged" `Quick
          test_budget_trip_observed_as_logged;
        Alcotest.test_case "two servers keep separate state" `Quick
          test_two_servers_keep_separate_state;
      ] );
    ( "alert",
      [
        Alcotest.test_case "sustain-K hysteresis" `Quick test_alert_sustain_hysteresis;
        Alcotest.test_case "flapping suppression" `Quick test_alert_flapping_suppression;
        Alcotest.test_case "missing signals leave streaks" `Quick test_alert_missing_signal;
        Alcotest.test_case "JSONL log + gauges + prometheus" `Quick test_alert_log_and_metrics;
      ] );
  ]

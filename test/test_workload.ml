(* Workload-observatory tests: heat accounting semantics, profile
   fingerprints and drift, block-size recommendations, the serve
   rolling window, HTTP hardening of the exposition server, and the
   query-log <-> heat reconciliation. *)

module Obs = Xquec_obs
open Xquec_core

(* A recorded request: the query log and the watchdog see it. *)
let logged eng text = Engine.request eng { (Engine.plain text) with record = true }

let j_num n = Obs.Json.Num (float_of_int n)
let j_str s = Obs.Json.Str s

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Heat accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* A heat row of its own, as a container owns one; a real pool uid
   keeps a query's share of it apart from every container's. *)
let fresh_row ~label ~blocks =
  Obs.Ledger.row ~uid:(Storage.Buffer_pool.fresh_uid ()) ~label ~blocks

let stat_of row = List.hd (Obs.Heat.snapshot [ row ])

let heat_rows eng = Storage.Repository.heat_rows (Engine.repo eng)

(* The reading of [eng]'s repository for [uid], if it lists one. *)
let repo_stat eng uid =
  List.find_opt
    (fun (s : Obs.Heat.stat) -> s.Obs.Heat.uid = uid)
    (Obs.Heat.snapshot (heat_rows eng))

let xmark_doc =
  "<site><people>\
   <person id=\"person0\"><name>Kasidit Treweek</name><age>32</age></person>\
   <person id=\"person1\"><name>Aloys Rommel</name><age>40</age></person>\
   <person id=\"person2\"><name>Obadiah Shore</name><age>25</age></person>\
   </people></site>"

(* One query's charges: a ledger around [f], closed (and so added into
   the process totals) when [f] returns. *)
let in_query f = Obs.Ledger.with_ledger (fun _ -> f ())

let test_heat_touch_semantics () =
  let row = fresh_row ~label:"heat:/site/a/#text" ~blocks:4 in
  (* run 1: block 0 touched twice (collapses), then 1, 2 sequentially;
     run 2: back to block 0, re-touch collapses again *)
  in_query (fun () ->
      List.iter (fun blk -> Obs.Ledger.note_fetch row ~blk) [ 0; 0; 1; 2; 0; 0 ];
      Obs.Ledger.note_decode row ~bytes:100;
      Obs.Ledger.note_skip row ~blocks:2 ~bytes:555;
      Alcotest.(check int) "nothing shows before the ledger closes" 0
        (stat_of row).Obs.Heat.touches);
  let s = stat_of row in
  Alcotest.(check string) "label" "heat:/site/a/#text" s.Obs.Heat.label;
  Alcotest.(check int) "blocks" 4 s.Obs.Heat.blocks;
  Alcotest.(check int) "touches collapse same-block repeats" 4 s.Obs.Heat.touches;
  Alcotest.(check int) "two run starts" 2 s.Obs.Heat.runs;
  Alcotest.(check int) "two sequential continuations" 2 s.Obs.Heat.seq_touches;
  Alcotest.(check int) "decodes" 1 s.Obs.Heat.decodes;
  Alcotest.(check int) "hits = touches - decodes" 3 s.Obs.Heat.hits;
  Alcotest.(check int) "header skips" 2 s.Obs.Heat.header_skips;
  Alcotest.(check int) "bytes decoded" 100 s.Obs.Heat.bytes_decoded;
  Alcotest.(check int) "bytes skipped" 555 s.Obs.Heat.bytes_skipped;
  Alcotest.(check (list (pair int int)))
    "hot blocks order by touches then index"
    [ (0, 2); (1, 1) ]
    (Obs.Heat.hot_blocks row ~top:2);
  (* runs are per query: the next query's first touch starts a run even
     where it continues the previous query's last block *)
  in_query (fun () -> List.iter (fun blk -> Obs.Ledger.note_fetch row ~blk) [ 1; 2 ]);
  let s = stat_of row in
  Alcotest.(check int) "touches add up over queries" 6 s.Obs.Heat.touches;
  Alcotest.(check int) "a query's first touch starts a run" 3 s.Obs.Heat.runs;
  Alcotest.(check int) "sequential continuations add up" 3 s.Obs.Heat.seq_touches;
  Alcotest.(check (list (pair int int)))
    "hot blocks add up over queries"
    [ (0, 2); (1, 2); (2, 2) ]
    (Obs.Heat.hot_blocks row ~top:4);
  (* resetting another row leaves this one's counters *)
  Obs.Heat.reset [ fresh_row ~label:"heat:/site/b/#text" ~blocks:1 ];
  Alcotest.(check int) "touches preserved" 6 (stat_of row).Obs.Heat.touches

let test_heat_reset_and_switch () =
  let row = fresh_row ~label:"heat:/reset" ~blocks:2 in
  in_query (fun () ->
      List.iter (fun blk -> Obs.Ledger.note_fetch row ~blk) [ 0; 1 ];
      Obs.Ledger.note_decode row ~bytes:10);
  Obs.Heat.reset [ row ];
  let s = stat_of row in
  Alcotest.(check string) "the row keeps its label" "heat:/reset" s.Obs.Heat.label;
  Alcotest.(check int) "touches zeroed" 0 s.Obs.Heat.touches;
  Alcotest.(check int) "decodes zeroed" 0 s.Obs.Heat.decodes;
  Alcotest.(check int) "runs zeroed" 0 s.Obs.Heat.runs;
  Alcotest.(check (list (pair int int))) "hot blocks zeroed" [] (Obs.Heat.hot_blocks row ~top:4);
  (* the switch gates every per-container charge; the pool's own
     fields still count *)
  Obs.Ledger.set_containers_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Ledger.set_containers_enabled true) @@ fun () ->
  let ghost = fresh_row ~label:"heat:/ghost" ~blocks:1 in
  let rows, payload =
    Obs.Ledger.with_ledger (fun l ->
        Obs.Ledger.note_fetch ghost ~blk:0;
        Obs.Ledger.note_decode ghost ~bytes:1;
        (Obs.Ledger.containers l, l.Obs.Ledger.payload_decoded))
  in
  Alcotest.(check int) "disabled ledger has no container rows" 0 (List.length rows);
  Alcotest.(check int) "disabled ledger still counts payload" 1 payload;
  let s = stat_of ghost in
  Alcotest.(check int) "disabled records no touch" 0 s.Obs.Heat.touches;
  Alcotest.(check int) "disabled records no decode" 0 s.Obs.Heat.decodes

(* A read made outside any query (no ledger open) is counted directly:
   in the pool's process totals and in the container's heat row. *)
let test_unledgered_read_lands_in_totals () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let repo = Engine.repo eng in
  let c = repo.Storage.Repository.containers.(0) in
  Alcotest.(check bool) "no ledger is open" true (Obs.Ledger.current () = None);
  Storage.Buffer_pool.clear ();
  let p0 = Storage.Buffer_pool.snapshot () in
  let h0 = stat_of c.Storage.Container.heat in
  ignore (Storage.Container.get c 0);
  let p1 = Storage.Buffer_pool.snapshot () in
  let h1 = stat_of c.Storage.Container.heat in
  let open Storage.Buffer_pool in
  Alcotest.(check int) "one pool miss" 1 (p1.s_misses - p0.s_misses);
  Alcotest.(check int) "no pool hit" 0 (p1.s_hits - p0.s_hits);
  Alcotest.(check bool) "payload decoded" true (p1.s_payload_bytes > p0.s_payload_bytes);
  Alcotest.(check int) "one heat touch" 1 (h1.Obs.Heat.touches - h0.Obs.Heat.touches);
  Alcotest.(check int) "one heat decode" 1 (h1.Obs.Heat.decodes - h0.Obs.Heat.decodes);
  Alcotest.(check int) "heat bytes = pool payload bytes"
    (p1.s_payload_bytes - p0.s_payload_bytes)
    (h1.Obs.Heat.bytes_decoded - h0.Obs.Heat.bytes_decoded)

(* The separate evaluate and serialize calls (Engine.query_ast, then
   Executor.serialize) open no ledger: they charge the process totals
   directly, and count exactly what the one-call path (a request,
   through its ledger) counts. *)
let test_split_calls_count_as_one () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let q = "for $p in document(\"xmark.xml\")/site/people/person where $p/age > \"30\" return $p/name" in
  let delta f =
    Storage.Buffer_pool.clear ();
    let s0 = Storage.Buffer_pool.snapshot () in
    let out = f () in
    let s1 = Storage.Buffer_pool.snapshot () in
    let open Storage.Buffer_pool in
    ( out,
      [
        s1.s_hits - s0.s_hits;
        s1.s_misses - s0.s_misses;
        s1.s_latch_waits - s0.s_latch_waits;
        s1.s_evictions - s0.s_evictions;
        s1.s_decoded_bytes - s0.s_decoded_bytes;
        s1.s_blocks_skipped - s0.s_blocks_skipped;
        s1.s_scan_inserts - s0.s_scan_inserts;
        s1.s_payload_bytes - s0.s_payload_bytes;
        s1.s_skipped_bytes - s0.s_skipped_bytes;
      ] )
  in
  let out_split, split =
    delta (fun () ->
        Executor.serialize (Engine.repo eng) (Engine.query_ast eng (Engine.parse_query q)))
  in
  let out_one, one = delta (fun () -> Engine.query_serialized eng q) in
  Alcotest.(check string) "same answer" out_one out_split;
  Alcotest.(check bool) "the query reads blocks" true (List.nth one 1 > 0);
  Alcotest.(check (list int)) "same pool deltas" one split

(* Replacing a container drops the old uid's row from the repository's
   heat reading, also after the old container was read, and the new uid
   gets a row of its own. *)
let test_replace_container_drops_heat_row () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let repo = Engine.repo eng in
  let old = repo.Storage.Repository.containers.(0) in
  let uid = old.Storage.Container.uid in
  ignore (Storage.Container.scan old);
  Alcotest.(check bool) "old uid has a row" true (repo_stat eng uid <> None);
  let fresh = Storage.Container.reblocked old ~block_size:(2 * old.Storage.Container.block_size) in
  ignore (Storage.Repository.replace_container repo fresh);
  Alcotest.(check bool) "old uid's row dropped" true (repo_stat eng uid = None);
  ignore (Storage.Container.scan old);
  Alcotest.(check bool) "a straggler read does not bring it back" true (repo_stat eng uid = None);
  Alcotest.(check bool) "new uid has a row" true
    (repo_stat eng fresh.Storage.Container.uid <> None)

(* Each restored repository's heat reading lists its own containers and
   nothing else: restoring one image three times in one process reads
   one row per container every time, not the rows of every repository
   restored before it. *)
let test_restored_repositories_read_own_rows () =
  let image =
    Engine.save (Engine.load ~name:"auction.xml" (Xmark.Xmlgen.generate ~seed:42 ~scale:0.1 ()))
  in
  List.iter
    (fun i ->
      let eng = Engine.restore image in
      let containers = Array.length (Engine.repo eng).Storage.Repository.containers in
      Alcotest.(check int) "an XMark 0.1 image holds 149 containers" 149 containers;
      Alcotest.(check int)
        (Printf.sprintf "restore %d reads one row per container" i)
        containers
        (List.length (Obs.Heat.snapshot (heat_rows eng))))
    [ 1; 2; 3 ]

(* Two repositories in one process keep their heat apart: a query on the
   first leaves the second's reading as it was, and each reading lists
   only its own containers' uids. *)
let test_two_repositories_keep_heat_apart () =
  let a = Engine.load ~name:"xmark.xml" xmark_doc and b = Engine.load ~name:"xmark.xml" xmark_doc in
  let reading eng = Obs.Heat.snapshot (heat_rows eng) in
  let own_uids eng =
    Array.to_list (Array.map (fun c -> c.Storage.Container.uid) (Engine.repo eng).containers)
    |> List.sort compare
  in
  let read_uids eng = List.sort compare (List.map (fun (s : Obs.Heat.stat) -> s.uid) (reading eng)) in
  let b0 = reading b in
  ignore (logged a "document(\"xmark.xml\")/site/people/person[@id = \"person1\"]/name");
  Alcotest.(check bool) "the query touched the first" true
    (List.exists (fun (s : Obs.Heat.stat) -> s.touches > 0) (reading a));
  Alcotest.(check bool) "the second's reading is unchanged" true (reading b = b0);
  Alcotest.(check (list int)) "the first lists its own uids" (own_uids a) (read_uids a);
  Alcotest.(check (list int)) "the second lists its own uids" (own_uids b) (read_uids b)

let test_heat_snapshot_json () =
  let row = fresh_row ~label:"heat:/json" ~blocks:1 in
  in_query (fun () -> Obs.Ledger.note_fetch row ~blk:0);
  let j = Obs.Heat.snapshot_json [ row ] in
  Alcotest.(check (option bool)) "enabled flag" (Some true)
    (match Obs.Json.member "enabled" j with Some (Obs.Json.Bool b) -> Some b | _ -> None);
  let containers = Option.get (Option.bind (Obs.Json.member "containers" j) Obs.Json.to_list) in
  let mine =
    List.find
      (fun c -> Obs.Json.member "container" c = Some (Obs.Json.Str "heat:/json"))
      containers
  in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true (Obs.Json.member field mine <> None))
    [ "uid"; "blocks"; "touches"; "decodes"; "hits"; "header_skips"; "bytes_decoded";
      "bytes_skipped"; "seq_touches"; "runs"; "hot_blocks" ];
  (* top_blocks:0 drops the per-block lists *)
  let j0 = Obs.Heat.snapshot_json ~top_blocks:0 [ row ] in
  let containers0 = Option.get (Option.bind (Obs.Json.member "containers" j0) Obs.Json.to_list) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "no hot_blocks at top 0" true (Obs.Json.member "hot_blocks" c = None))
    containers0

(* [Heat.of_json], the one reader of heat JSON ([xquec profile --heat]),
   inverts [Heat.snapshot_json] on every field of a reading, among them
   the four [Profile.recommend] joins on. *)
let test_heat_json_round_trip () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  ignore (logged eng "document(\"xmark.xml\")/site/people/person[@id = \"person1\"]/name");
  let row = fresh_row ~label:"heat:/round-trip" ~blocks:4 in
  in_query (fun () ->
      List.iter (fun blk -> Obs.Ledger.note_fetch row ~blk) [ 0; 1; 3; 0 ];
      Obs.Ledger.note_decode row ~bytes:40;
      Obs.Ledger.note_skip row ~blocks:1 ~bytes:9);
  let rows = row :: heat_rows eng in
  let reading = Obs.Heat.snapshot rows in
  Alcotest.(check bool) "the reading has touches to carry" true
    (List.exists (fun (s : Obs.Heat.stat) -> s.touches > 0 && s.runs > 0) reading);
  List.iter
    (fun top_blocks ->
      Alcotest.(check bool)
        (Printf.sprintf "of_json (snapshot_json ~top_blocks:%d) = snapshot" top_blocks)
        true
        (Obs.Heat.of_json (Obs.Heat.snapshot_json ~top_blocks rows) = reading))
    [ 0; 8 ];
  Alcotest.(check bool) "no containers key reads empty" true
    (Obs.Heat.of_json (Obs.Json.parse "{}") = [])

(* ------------------------------------------------------------------ *)
(* Profile: fingerprints, drift, recommendations                       *)
(* ------------------------------------------------------------------ *)

(* The fingerprint of one query observing each (container, kind) the
   given number of times. *)
let fp_of events =
  let g = Obs.Profile.agg_create () in
  let predicates =
    List.concat_map
      (fun ((container, kind), n) ->
        List.init n (fun _ ->
            { Obs.Ledger.ob_container = container; ob_kind = kind; ob_candidates = 1;
              ob_matches = 1 }))
      events
  in
  Obs.Profile.agg_add g ~predicates ~containers:[];
  Obs.Profile.agg_fingerprint g

let test_drift_identical_and_shifted () =
  let mix_a = [ (("/a", "eq"), 2); (("/b", "range"), 1) ] in
  let fa = fp_of mix_a in
  let fa' = fp_of mix_a in
  let fb = fp_of [ (("/c", "join"), 3) ] in
  let fc = fp_of [ (("/a", "eq"), 2) ] in
  Alcotest.(check (float 1e-12)) "identical mixes drift exactly 0" 0.0 (Obs.Profile.drift fa fa');
  Alcotest.(check (float 1e-12)) "disjoint mixes drift 1" 1.0 (Obs.Profile.drift fa fb);
  let partial = Obs.Profile.drift fa fc in
  Alcotest.(check bool) "shifted mix drifts strictly above identical" true
    (partial > Obs.Profile.drift fa fa');
  Alcotest.(check bool) "partial overlap drifts below disjoint" true (partial < 1.0);
  Alcotest.(check (float 1e-12)) "drift is symmetric" (Obs.Profile.drift fb fa)
    (Obs.Profile.drift fa fb)

let pred_json ~container ~kind ~candidates ~matches =
  Obs.Json.Obj
    [
      ("container", j_str container); ("kind", j_str kind);
      ("candidates", j_num candidates); ("matches", j_num matches);
    ]

let cont_json ~container ~decoded =
  Obs.Json.Obj [ ("container", j_str container); ("touches", j_num 1); ("decoded_bytes", j_num decoded) ]

let test_of_records_aggregates () =
  let r1 =
    Obs.Json.Obj
      [
        ("predicates", Obs.Json.List
           [
             pred_json ~container:"/a" ~kind:"eq" ~candidates:10 ~matches:2;
             pred_json ~container:"/a" ~kind:"eq" ~candidates:6 ~matches:1;
             pred_json ~container:"/b" ~kind:"range" ~candidates:4 ~matches:4;
           ]);
        ("containers", Obs.Json.List [ cont_json ~container:"/a" ~decoded:128 ]);
      ]
  in
  let r2 = Obs.Json.Obj [ ("containers", Obs.Json.List [ cont_json ~container:"/a" ~decoded:64 ]) ] in
  let fp = Obs.Profile.of_records [ r1; r2 ] in
  Alcotest.(check int) "records" 2 fp.Obs.Profile.records;
  let weight k = List.assoc_opt k fp.Obs.Profile.weights in
  Alcotest.(check (option (float 1e-9))) "eq weight 2/3" (Some (2.0 /. 3.0)) (weight ("/a", "eq"));
  Alcotest.(check (option (float 1e-9))) "range weight 1/3" (Some (1.0 /. 3.0))
    (weight ("/b", "range"));
  let a = List.find (fun c -> c.Obs.Profile.c_container = "/a") fp.Obs.Profile.containers in
  Alcotest.(check int) "eq predicates on /a" 2 a.Obs.Profile.c_eq;
  Alcotest.(check int) "candidates summed" 16 a.Obs.Profile.c_candidates;
  Alcotest.(check int) "matches summed" 3 a.Obs.Profile.c_matches;
  Alcotest.(check int) "decoded bytes summed across records" 192 a.Obs.Profile.c_decoded_bytes;
  Alcotest.(check int) "queries touching /a" 2 a.Obs.Profile.c_queries;
  Alcotest.(check (option (float 1e-9))) "selectivity = matches/candidates" (Some (3.0 /. 16.0))
    (Obs.Profile.selectivity a);
  (* a log with no pushed predicates anywhere falls back to touch events *)
  let fp2 = Obs.Profile.of_records [ r2 ] in
  Alcotest.(check (option (float 1e-9))) "navigation-only log fingerprints as touches" (Some 1.0)
    (List.assoc_opt ("/a", "touch") fp2.Obs.Profile.weights)

(* A heat reading of one container, as [Heat.snapshot] gives it. *)
let heat_stat (label, seq_touches, runs, header_skips, decodes) =
  { Obs.Heat.uid = 0; label; blocks = 1; touches = seq_touches + runs; decodes;
    hits = max 0 (seq_touches + runs - decodes); header_skips; bytes_decoded = 0;
    bytes_skipped = 0; seq_touches; runs }

let test_recommendations () =
  let records =
    [
      Obs.Json.Obj
        [
          ("predicates", Obs.Json.List
             [
               pred_json ~container:"/point" ~kind:"eq" ~candidates:1000 ~matches:2;
               pred_json ~container:"/scan" ~kind:"range" ~candidates:100 ~matches:50;
             ]);
        ];
    ]
  in
  let fp = Obs.Profile.of_records records in
  let heat = List.map heat_stat [ ("/point", 1, 9, 0, 10); ("/scan", 95, 5, 0, 10) ] in
  let recs = Obs.Profile.recommend ~heat fp in
  let rec_of path = List.find (fun r -> r.Obs.Profile.r_container = path) recs in
  let point = rec_of "/point" and scan = rec_of "/scan" in
  Alcotest.(check string) "selective random access shrinks" "shrink" point.Obs.Profile.r_action;
  Alcotest.(check (float 1e-9)) "shrink factor" 0.25 point.Obs.Profile.r_factor;
  Alcotest.(check string) "sequential unpruned scans grow" "grow" scan.Obs.Profile.r_action;
  Alcotest.(check (float 1e-9)) "grow factor" 4.0 scan.Obs.Profile.r_factor;
  (* without heat evidence the scan container has nothing to grow on *)
  let recs = Obs.Profile.recommend fp in
  Alcotest.(check string) "no heat: scan keeps its size" "keep"
    (List.find (fun r -> r.Obs.Profile.r_container = "/scan") recs).Obs.Profile.r_action

(* ------------------------------------------------------------------ *)
(* Serve rolling window                                                *)
(* ------------------------------------------------------------------ *)

let test_serve_window () =
  (* gauge publication goes through the telemetry-gated registry; an
     earlier suite may have left the gate off *)
  Obs.set_enabled true;
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  Test_serve.with_server eng @@ fun server ->
  let gauge = Test_serve.window_gauge server in
  Alcotest.(check (float 0.0)) "empty window has no requests" 0.0 (gauge "requests");
  Alcotest.(check (float 0.0)) "empty window error rate" 0.0 (gauge "error_rate");
  Alcotest.(check (float 0.0)) "empty window p99" 0.0 (gauge "p99_ms");
  (* the slowest request, timed around the whole call, bounds every
     latency the window saw *)
  let slowest = ref 0.0 in
  let run q =
    let t0 = Unix.gettimeofday () in
    ignore (Serve.run_query server q);
    slowest := Float.max !slowest ((Unix.gettimeofday () -. t0) *. 1000.0)
  in
  for i = 1 to 90 do
    run (Printf.sprintf "%d+1" i)
  done;
  for _ = 1 to 10 do
    run "$x"
  done;
  Alcotest.(check (float 0.0)) "requests counted" 100.0 (gauge "requests");
  Alcotest.(check (float 0.0)) "errors counted" 10.0 (gauge "errors");
  Alcotest.(check (float 1e-9)) "error rate" 0.1 (gauge "error_rate");
  let p50 = gauge "p50_ms" and p95 = gauge "p95_ms" and p99 = gauge "p99_ms" in
  Alcotest.(check bool) "p50 within observed range" true (p50 > 0.0 && p50 <= !slowest);
  Alcotest.(check bool) "percentiles ordered" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "p99 bounded by max" true (p99 <= !slowest);
  let dump = Obs.Metrics.dump_json () in
  Alcotest.(check bool) "window gauges published" true
    (contains ~needle:"serve.window.requests" dump);
  (* another server's window is its own *)
  Test_serve.with_server eng @@ fun other ->
  Alcotest.(check (float 0.0)) "a second server's window is empty" 0.0
    (Test_serve.window_gauge other "requests")

let test_histogram_percentile_sentinels () =
  Obs.set_enabled true;
  Alcotest.(check (option (float 0.0))) "missing histogram" None
    (Obs.Metrics.histogram_percentile "workload.absent" 0.5);
  let name = "workload.p.single" in
  Obs.Metrics.observe name 7.0;
  List.iter
    (fun p ->
      Alcotest.(check (option (float 1e-9))) "single observation pins every percentile"
        (Some 7.0)
        (Obs.Metrics.histogram_percentile name p))
    [ -1.0; 0.0; 0.5; 1.0; 2.0 ];
  let name = "workload.p.bucket" in
  Obs.Metrics.observe name 3.0;
  Obs.Metrics.observe name 3.5;
  Alcotest.(check (option (float 1e-9))) "p0 is the recorded min" (Some 3.0)
    (Obs.Metrics.histogram_percentile name 0.0);
  Alcotest.(check (option (float 1e-9))) "p100 is the recorded max" (Some 3.5)
    (Obs.Metrics.histogram_percentile name 1.0);
  let p50 = Option.get (Obs.Metrics.histogram_percentile name 0.5) in
  Alcotest.(check bool) "one-bucket interpolation stays inside min..max" true
    (p50 >= 3.0 && p50 <= 3.5)

(* ------------------------------------------------------------------ *)
(* Expo HTTP hardening                                                 *)
(* ------------------------------------------------------------------ *)

(* Ship raw (possibly malformed) bytes and return the status line's
   code, or None when the server just closed the connection. *)
let raw_request ~port ?(close_write = true) payload =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  ignore (Unix.write_substring sock payload 0 (String.length payload));
  if close_write then Unix.shutdown sock Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  let raw = Buffer.contents buf in
  match String.index_opt raw ' ' with
  | Some i when String.length raw >= i + 4 -> Some (int_of_string (String.sub raw (i + 1) 3))
  | _ -> None

let test_expo_rejects_malformed_requests () =
  let server = Obs.Expo.start ~port:0 () in
  Fun.protect ~finally:(fun () -> Obs.Expo.stop server) @@ fun () ->
  let port = Obs.Expo.port server in
  let alive label =
    Alcotest.(check (option int)) (label ^ ": server still answers") (Some 200)
      (raw_request ~port "GET /healthz HTTP/1.1\r\n\r\n")
  in
  Alcotest.(check (option int)) "garbage request line" (Some 400)
    (raw_request ~port "BLARG\r\n\r\n");
  alive "garbage request line";
  Alcotest.(check (option int)) "oversized header line" (Some 400)
    (raw_request ~port ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n"));
  alive "oversized header line";
  Alcotest.(check (option int)) "POST without Content-Length" (Some 400)
    (raw_request ~port "POST /query HTTP/1.1\r\n\r\n");
  alive "POST without Content-Length";
  Alcotest.(check (option int)) "malformed Content-Length" (Some 400)
    (raw_request ~port "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  alive "malformed Content-Length";
  Alcotest.(check (option int)) "negative Content-Length" (Some 400)
    (raw_request ~port "POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n");
  alive "negative Content-Length";
  Alcotest.(check (option int)) "oversized body declaration" (Some 400)
    (raw_request ~port "POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
  alive "oversized body declaration";
  Alcotest.(check (option int)) "truncated body" (Some 400)
    (raw_request ~port "POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  alive "truncated body";
  Alcotest.(check (option int)) "premature end of headers" (Some 400)
    (raw_request ~port "GET /healthz HTTP/1.1\r\nHost: x");
  alive "premature end of headers"

(* ------------------------------------------------------------------ *)
(* Query-log <-> heat reconciliation                                   *)
(* ------------------------------------------------------------------ *)

let with_query_log f =
  let file = Filename.temp_file "xquec_wl_" ".jsonl" in
  Obs.Query_log.set_path (Some file);
  Fun.protect
    ~finally:(fun () ->
      Obs.Query_log.set_path None;
      try Sys.remove file with Sys_error _ -> ())
    (fun () -> f file)

let read_records file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (Obs.Json.parse line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* sum an int field per container label across all "containers" tags *)
let sum_by_container records field =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Option.bind (Obs.Json.member "containers" r) Obs.Json.to_list with
      | None -> ()
      | Some tags ->
        List.iter
          (fun tag ->
            match (Obs.Json.member "container" tag, Obs.Json.member field tag) with
            | Some (Obs.Json.Str label), Some (Obs.Json.Num v) ->
              Hashtbl.replace tbl label
                (int_of_float v + Option.value ~default:0 (Hashtbl.find_opt tbl label))
            | _ -> ())
          tags)
    records;
  tbl

let test_query_log_heat_reconcile () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  Obs.Heat.reset (heat_rows eng);
  let records =
    with_query_log @@ fun file ->
    List.iter
      (fun q -> ignore (logged eng q))
      [
        "for $p in document(\"xmark.xml\")/site/people/person where $p/age > \"30\" return $p/name";
        "document(\"xmark.xml\")/site/people/person[@id = \"person1\"]/name";
        "for $p in document(\"xmark.xml\")/site/people/person return $p/age";
      ];
    read_records file
  in
  Alcotest.(check int) "one record per query" 3 (List.length records);
  (* the per-query heat deltas must sum back to the repository's heat *)
  let logged = sum_by_container records "decoded_bytes" in
  let live = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Heat.stat) ->
      if s.Obs.Heat.bytes_decoded > 0 then
        Hashtbl.replace live s.Obs.Heat.label
          (s.Obs.Heat.bytes_decoded
          + Option.value ~default:0 (Hashtbl.find_opt live s.Obs.Heat.label)))
    (Obs.Heat.snapshot (heat_rows eng));
  Alcotest.(check bool) "queries decoded at least one container" true (Hashtbl.length live > 0);
  Hashtbl.iter
    (fun label bytes ->
      Alcotest.(check int)
        (Printf.sprintf "log sums to heat for %s" label)
        bytes
        (Option.value ~default:0 (Hashtbl.find_opt logged label)))
    live;
  Hashtbl.iter
    (fun label bytes ->
      if bytes > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "log container %s is known to heat" label)
          true (Hashtbl.mem live label))
    logged;
  (* the where-query tagged container-resolved predicates *)
  let kinds =
    List.concat_map
      (fun r ->
        match Option.bind (Obs.Json.member "predicates" r) Obs.Json.to_list with
        | None -> []
        | Some ps ->
          List.filter_map
            (fun p ->
              match Obs.Json.member "kind" p with Some (Obs.Json.Str k) -> Some k | _ -> None)
            ps)
      records
  in
  Alcotest.(check bool) "a range predicate was observed" true (List.mem "range" kinds);
  (* and the log profiles into a non-empty fingerprint whose drift
     against itself is zero — the `xquec profile` path end to end *)
  let fp = Obs.Profile.of_records records in
  Alcotest.(check bool) "fingerprint is non-empty" true (fp.Obs.Profile.weights <> []);
  Alcotest.(check (float 1e-12)) "self-drift is zero" 0.0 (Obs.Profile.drift fp fp)

let test_declared_workload_fingerprint () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let queries =
    [
      "for $p in document(\"xmark.xml\")/site/people/person where $p/age = \"32\" return $p/name";
      "for $p in document(\"xmark.xml\")/site/people/person where $p/age > \"30\" return $p/name";
    ]
  in
  let fp = Engine.declared_fingerprint eng queries in
  Alcotest.(check bool) "declared workload fingerprints" true (fp.Obs.Profile.weights <> []);
  Alcotest.(check int) "one record per declared query" 2 fp.Obs.Profile.records;
  List.iter
    (fun ((_, kind), _) ->
      Alcotest.(check bool) ("declared kind " ^ kind) true (List.mem kind [ "eq"; "range" ]))
    fp.Obs.Profile.weights;
  Alcotest.(check (float 1e-12)) "declared self-drift is zero" 0.0 (Obs.Profile.drift fp fp);
  let d = Obs.Profile.drift fp (fp_of [ (("/elsewhere", "join"), 1) ]) in
  Alcotest.(check (float 1e-12)) "declared vs disjoint observed drift is 1" 1.0 d

(* A decorrelated join keyed on codes (Q8 on a repository tuned for it)
   is observed like any other code-keyed join: its query-log record
   names the join on the shared container. *)
let test_decorrelated_join_observed () =
  let workload = Test_xmark_pins.workload_queries "../examples/xmark_workload.xq" in
  let xml = Xmark.Xmlgen.generate ~seed:42 ~scale:0.05 () in
  let eng = Engine.load ~name:"auction.xml" ~workload xml in
  let q8 = (Xmark.Queries.by_id "Q8").Xmark.Queries.text in
  let records, strategy =
    with_query_log @@ fun file ->
    let r = logged eng q8 in
    (read_records file, Obs.Explain.strategy r.explain)
  in
  Alcotest.(check bool) "Q8 decorrelates on codes" true
    (List.exists (fun l -> contains ~needle:"decorrelate $a" l && contains ~needle:"keys=codes" l)
       strategy);
  let joins =
    List.concat_map
      (fun r ->
        Option.value ~default:[] (Option.bind (Obs.Json.member "predicates" r) Obs.Json.to_list)
        |> List.filter_map (fun p ->
               match (Obs.Json.member "kind" p, Obs.Json.member "container" p) with
               | Some (Obs.Json.Str "join"), Some (Obs.Json.Str c) -> Some c
               | _ -> None))
      records
  in
  Alcotest.(check bool) "the record names the join on a key container" true
    (joins <> []
    && List.for_all
         (fun c ->
           List.mem c
             [ "/site/people/person/@id"; "/site/closed_auctions/closed_auction/buyer/@person" ])
         joins)

let suites =
  [
    ( "workload-heat",
      [
        Alcotest.test_case "touch semantics" `Quick test_heat_touch_semantics;
        Alcotest.test_case "reset and switch" `Quick test_heat_reset_and_switch;
        Alcotest.test_case "snapshot json" `Quick test_heat_snapshot_json;
        Alcotest.test_case "json round trip" `Quick test_heat_json_round_trip;
        Alcotest.test_case "unledgered read lands in totals" `Quick
          test_unledgered_read_lands_in_totals;
        Alcotest.test_case "split calls count as one" `Quick test_split_calls_count_as_one;
        Alcotest.test_case "replace_container drops heat row" `Quick
          test_replace_container_drops_heat_row;
        Alcotest.test_case "restored repositories read their own rows" `Quick
          test_restored_repositories_read_own_rows;
        Alcotest.test_case "two repositories keep heat apart" `Quick
          test_two_repositories_keep_heat_apart;
      ] );
    ( "workload-profile",
      [
        Alcotest.test_case "drift identical and shifted" `Quick test_drift_identical_and_shifted;
        Alcotest.test_case "of_records aggregates" `Quick test_of_records_aggregates;
        Alcotest.test_case "recommendations" `Quick test_recommendations;
      ] );
    ( "workload-serve",
      [
        Alcotest.test_case "rolling window" `Quick test_serve_window;
        Alcotest.test_case "histogram percentile sentinels" `Quick
          test_histogram_percentile_sentinels;
      ] );
    ( "workload-expo",
      [
        Alcotest.test_case "rejects malformed requests" `Quick
          test_expo_rejects_malformed_requests;
      ] );
    ( "workload-reconcile",
      [
        Alcotest.test_case "query log matches heat" `Quick test_query_log_heat_reconcile;
        Alcotest.test_case "declared workload fingerprint" `Quick
          test_declared_workload_fingerprint;
        Alcotest.test_case "decorrelated join observed" `Quick test_decorrelated_join_observed;
      ] );
  ]

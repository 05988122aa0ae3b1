(* Telemetry layer tests: span nesting and the trace ring buffer,
   log-scale histogram bucketing, metrics JSON round-trips through the
   hand-rolled parser, and an EXPLAIN golden test asserting operator
   names and row counts on a small XMark-style document. *)

open Xquec_core
module Obs = Xquec_obs

let with_fresh_telemetry f =
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.reset ()) (fun () -> Obs.with_enabled f)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_fresh_telemetry @@ fun () ->
  let result =
    Obs.Trace.with_span ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
        Obs.Trace.with_span ~name:"inner" (fun () -> 6 * 7))
  in
  Alcotest.(check int) "value threads through" 42 result;
  match Obs.Trace.spans () with
  | [ inner; outer ] ->
    (* spans complete innermost-first *)
    Alcotest.(check string) "inner name" "inner" inner.Obs.Trace.name;
    Alcotest.(check string) "outer name" "outer" outer.Obs.Trace.name;
    Alcotest.(check int) "outer depth" 0 outer.Obs.Trace.depth;
    Alcotest.(check int) "inner depth" 1 inner.Obs.Trace.depth;
    Alcotest.(check bool) "inner within outer (start)" true
      (inner.Obs.Trace.start_us >= outer.Obs.Trace.start_us);
    Alcotest.(check bool) "inner within outer (duration)" true
      (inner.Obs.Trace.dur_us <= outer.Obs.Trace.dur_us);
    Alcotest.(check (list (pair string string))) "attrs kept" [ ("k", "v") ]
      outer.Obs.Trace.attrs
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_disabled_records_nothing () =
  Obs.reset ();
  Alcotest.(check bool) "telemetry off" false (Obs.is_enabled ());
  let r = Obs.Trace.with_span ~name:"ghost" (fun () -> 1) in
  Alcotest.(check int) "still runs" 1 r;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.Trace.spans ()))

let test_ring_buffer_overwrites () =
  with_fresh_telemetry @@ fun () ->
  Obs.Trace.set_capacity 4;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_capacity Obs.Trace.default_capacity)
  @@ fun () ->
  for i = 1 to 10 do
    Obs.Trace.with_span ~name:(Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans ()) in
  Alcotest.(check (list string)) "newest 4 survive, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ] names;
  Alcotest.(check int) "dropped count" 6 (Obs.Trace.dropped ())

let test_chrome_trace_json () =
  with_fresh_telemetry @@ fun () ->
  Obs.Trace.with_span ~name:"load" (fun () ->
      Obs.Trace.with_span ~name:"parse" (fun () -> ()));
  let json = Obs.Json.parse (Obs.Trace.to_chrome_json ()) in
  let all_events =
    match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phase ev = Option.bind (Obs.Json.member "ph" ev) Obs.Json.to_str in
  (* "M" events are per-domain thread_name metadata *)
  let meta, events = List.partition (fun ev -> phase ev = Some "M") all_events in
  Alcotest.(check bool) "has thread_name metadata" true (List.length meta >= 1);
  Alcotest.(check int) "two span events" 2 (List.length events);
  List.iter
    (fun ev ->
      Alcotest.(check (option string)) "phase" (Some "X") (phase ev);
      Alcotest.(check bool) "has ts" true
        (Option.bind (Obs.Json.member "ts" ev) Obs.Json.to_float <> None);
      Alcotest.(check bool) "has tid" true
        (Option.bind (Obs.Json.member "tid" ev) Obs.Json.to_float <> None))
    events

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucketing () =
  (* bucket 0 holds v <= lowest_bound; bucket i covers
     (lb * 2^(i-1), lb * 2^i] *)
  Alcotest.(check int) "at lowest bound" 0 (Obs.Metrics.bucket_index 0.001);
  Alcotest.(check int) "below lowest bound" 0 (Obs.Metrics.bucket_index 0.0001);
  Alcotest.(check int) "just above" 1 (Obs.Metrics.bucket_index 0.0015);
  Alcotest.(check int) "upper edge inclusive" 1 (Obs.Metrics.bucket_index 0.002);
  Alcotest.(check int) "next bucket" 2 (Obs.Metrics.bucket_index 0.003);
  Alcotest.(check int) "huge values clamp to last" (Obs.Metrics.bucket_count - 1)
    (Obs.Metrics.bucket_index 1e30);
  Alcotest.(check (float 1e-9)) "bucket 1 upper bound" 0.002
    (Obs.Metrics.bucket_upper_bound 1);
  with_fresh_telemetry @@ fun () ->
  List.iter (Obs.Metrics.observe "h") [ 0.0005; 0.0015; 0.0016; 100.0 ];
  (match Obs.Metrics.histogram_stats "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    Alcotest.(check int) "count" 4 s.Obs.Metrics.count;
    Alcotest.(check (float 1e-9)) "min" 0.0005 s.Obs.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 100.0 s.Obs.Metrics.max);
  match Obs.Metrics.histogram_buckets "h" with
  | None -> Alcotest.fail "buckets missing"
  | Some buckets ->
    Alcotest.(check int) "three occupied buckets" 3 (List.length buckets);
    Alcotest.(check (list int)) "bucket counts" [ 1; 2; 1 ] (List.map snd buckets)

let test_metrics_json_roundtrip () =
  with_fresh_telemetry @@ fun () ->
  Obs.Metrics.incr ~by:3 "loader.documents";
  Obs.Metrics.incr "loader.documents";
  Obs.Metrics.set_gauge "partitioner.final_cost" 123.5;
  Obs.Metrics.observe "loader.parse_ms" 2.25;
  Obs.Metrics.observe "loader.parse_ms" 4.75;
  let json = Obs.Json.parse (Obs.Metrics.dump_json ()) in
  let path keys =
    List.fold_left (fun v k -> Option.bind v (Obs.Json.member k)) (Some json) keys
  in
  Alcotest.(check (option (float 1e-9))) "counter" (Some 4.0)
    (Option.bind (path [ "counters"; "loader.documents" ]) Obs.Json.to_float);
  Alcotest.(check (option (float 1e-9))) "gauge" (Some 123.5)
    (Option.bind (path [ "gauges"; "partitioner.final_cost" ]) Obs.Json.to_float);
  Alcotest.(check (option (float 1e-9))) "histogram count" (Some 2.0)
    (Option.bind (path [ "histograms"; "loader.parse_ms"; "count" ]) Obs.Json.to_float);
  Alcotest.(check (option (float 1e-9))) "histogram sum" (Some 7.0)
    (Option.bind (path [ "histograms"; "loader.parse_ms"; "sum" ]) Obs.Json.to_float);
  (* disabled registry refuses writes but still dumps *)
  Obs.set_enabled false;
  Obs.Metrics.incr "ignored.counter";
  Alcotest.(check int) "write gated off" 0 (Obs.Metrics.counter_value "ignored.counter")

let test_json_parser_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "parser accepted %S" s)
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nulll"; "\"unterminated" ]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_json_escaping () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "escape %S" input) expected
        (Obs.Json.escape input))
    [
      ("plain", "plain");
      ("a\"b", "a\\\"b");
      ("back\\slash", "back\\\\slash");
      ("line1\nline2", "line1\\nline2");
      ("\r\t", "\\r\\t");
      ("\x00\x01\x1f", "\\u0000\\u0001\\u001f");
      ("caf\xc3\xa9", "caf\xc3\xa9") (* UTF-8 bytes pass through *);
    ];
  (* printer + parser round-trip the tricky string exactly *)
  let tricky = "he said \"hi\"\n\tC:\\path\x01end" in
  match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Obj [ ("k", Obs.Json.Str tricky) ])) with
  | Obs.Json.Obj [ ("k", Obs.Json.Str s) ] ->
    Alcotest.(check string) "round-trips through printer and parser" tricky s
  | _ -> Alcotest.fail "unexpected round-trip shape"

let test_histogram_percentiles () =
  with_fresh_telemetry @@ fun () ->
  Alcotest.(check bool) "missing histogram" true
    (Obs.Metrics.histogram_percentile "nope" 0.5 = None);
  for i = 1 to 100 do
    Obs.Metrics.observe "lat" (float_of_int i)
  done;
  let pct p =
    match Obs.Metrics.histogram_percentile "lat" p with
    | Some v -> v
    | None -> Alcotest.fail "histogram disappeared"
  in
  let p50 = pct 0.50 and p95 = pct 0.95 and p99 = pct 0.99 in
  (* estimates interpolate inside log2 buckets: the true p50 of 1..100
     is 50, inside bucket (32, 64]; p95/p99 land in the last occupied
     bucket, whose upper edge is clamped to the observed max *)
  Alcotest.(check bool) "p50 within its bucket" true (p50 >= 32.0 && p50 <= 64.0);
  Alcotest.(check bool) "p95 within its bucket" true (p95 >= 64.0 && p95 <= 100.0);
  Alcotest.(check bool) "p99 within its bucket" true (p99 >= 64.0 && p99 <= 100.0);
  Alcotest.(check bool) "monotonic p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check (float 1e-9)) "p100 is the max" 100.0 (pct 1.0);
  Alcotest.(check bool) "p0 at least the min" true (pct 0.0 >= 1.0 -. 1e-9)

let test_prometheus_exposition () =
  with_fresh_telemetry @@ fun () ->
  Obs.Metrics.incr ~by:3 "serve.queries";
  Obs.Metrics.set_gauge "bufferpool.resident_blocks" 4.0;
  Obs.Metrics.observe "serve.query_ms" 0.5;
  Obs.Metrics.observe "serve.query_ms" 3.0;
  Obs.Metrics.incr ~by:7 "container./site/a/#text.blocks_decoded";
  let text = Obs.Metrics.to_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true (contains ~needle text))
    [
      "# TYPE xquec_serve_queries counter";
      "xquec_serve_queries 3";
      "# TYPE xquec_bufferpool_resident_blocks gauge";
      "xquec_bufferpool_resident_blocks 4";
      "# TYPE xquec_serve_query_ms histogram";
      "xquec_serve_query_ms_bucket{le=\"+Inf\"} 2";
      "xquec_serve_query_ms_sum 3.5";
      "xquec_serve_query_ms_count 2";
      (* per-container counters become one series with a path label *)
      "xquec_container_blocks_decoded{path=\"/site/a/#text\"} 7";
    ];
  (* _bucket counts are cumulative and end at the total *)
  let bucket_counts =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           if contains ~needle:"xquec_serve_query_ms_bucket" l then
             String.rindex_opt l ' '
             |> Option.map (fun i ->
                    float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
           else None)
  in
  Alcotest.(check bool) "cumulative buckets" true
    (List.sort compare bucket_counts = bucket_counts);
  Alcotest.(check (float 1e-9)) "last bucket = count" 2.0
    (List.nth bucket_counts (List.length bucket_counts - 1))

(* Spans recorded on other domains (serve's workers) land in per-domain
   ring buffers, and the merged chrome trace shows them on distinct
   tids. Two spawned domains rendezvous inside their spans, so both are
   open at once on different domains. *)
let test_spans_from_worker_domains () =
  with_fresh_telemetry @@ fun () ->
  let m = Mutex.create () in
  let c = Condition.create () in
  let started = ref 0 in
  let task () =
    Obs.Trace.with_span ~name:"decode.task" (fun () ->
        Mutex.lock m;
        incr started;
        Condition.broadcast c;
        while !started < 2 do
          Condition.wait c m
        done;
        Mutex.unlock m)
  in
  List.iter Domain.join [ Domain.spawn task; Domain.spawn task ];
  let tids =
    Obs.Trace.spans ()
    |> List.filter (fun (s : Obs.Trace.span) -> s.Obs.Trace.name = "decode.task")
    |> List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.tid)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "spans on >= 2 distinct tids" true (List.length tids >= 2);
  (* the chrome export carries both executors: per-tid thread_name
     metadata plus the spans themselves *)
  let json = Obs.Json.parse (Obs.Trace.to_chrome_json ()) in
  let events =
    match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents"
  in
  let tid_of ev = Option.bind (Obs.Json.member "tid" ev) Obs.Json.to_float in
  let name_of ev = Option.bind (Obs.Json.member "name" ev) Obs.Json.to_str in
  let task_tids =
    List.filter (fun ev -> name_of ev = Some "decode.task") events
    |> List.filter_map tid_of |> List.sort_uniq compare
  in
  Alcotest.(check bool) "chrome trace has tasks on >= 2 tids" true
    (List.length task_tids >= 2);
  let meta_tids =
    List.filter
      (fun ev -> Option.bind (Obs.Json.member "ph" ev) Obs.Json.to_str = Some "M")
      events
    |> List.filter_map tid_of |> List.sort_uniq compare
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "every task tid has thread_name metadata" true
        (List.mem t meta_tids))
    task_tids

(* ------------------------------------------------------------------ *)
(* Explain golden test                                                 *)
(* ------------------------------------------------------------------ *)

let xmark_doc =
  "<site><people>\
   <person id=\"person0\"><name>Kasidit Treweek</name><emailaddress>mailto:k@t</emailaddress></person>\
   <person id=\"person1\"><name>Aloys Rommel</name></person>\
   <person id=\"person2\"><name>Obadiah Shore</name></person>\
   </people></site>"

let find_op (root : Obs.Explain.node) (op : string) : Obs.Explain.node =
  match
    Obs.Explain.fold
      (fun acc n -> if acc = None && n.Obs.Explain.op = op then Some n else acc)
      None root
  with
  | Some n -> n
  | None -> Alcotest.failf "operator %S not in plan:\n%s" op (Obs.Explain.render root)

let test_explain_path_query () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let (items, plan) = Engine.query_profiled eng "document(\"xmark.xml\")/site/people/person/name" in
  Alcotest.(check int) "result cardinality" 3 (List.length items);
  Alcotest.(check int) "root rows" 3 plan.Obs.Explain.rows;
  List.iter
    (fun (op, rows) ->
      let n = find_op plan op in
      Alcotest.(check string) "kind" "step" n.Obs.Explain.kind;
      Alcotest.(check int) (op ^ " rows") rows n.Obs.Explain.rows;
      Alcotest.(check bool) (op ^ " timed") true (n.Obs.Explain.wall_us >= 0.0))
    [ ("child::site", 1); ("child::people", 1); ("child::person", 3); ("child::name", 3) ];
  (* the rendered tree shows every operator with wall time and rows *)
  let rendered = Obs.Explain.render plan in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render mentions " ^ needle) true
        (contains ~needle rendered))
    [ "child::person"; "ms, 3 rows" ]

let test_explain_pushdown_rows () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let (items, plan) =
    Engine.query_profiled eng
      "document(\"xmark.xml\")/site/people/person[@id = \"person1\"]/name"
  in
  Alcotest.(check int) "one person matches" 1 (List.length items);
  let pushdown = find_op plan "pushdown [./@id = \"person1\"]" in
  Alcotest.(check string) "pushdown kind" "pushdown" pushdown.Obs.Explain.kind;
  Alcotest.(check int) "pushdown rows" 1 pushdown.Obs.Explain.rows;
  Alcotest.(check bool) "decided on compressed codes" true
    (pushdown.Obs.Explain.cmp_compressed > 0);
  let totals = Obs.Explain.totals plan in
  Alcotest.(check bool) "totals see it" true (totals.Obs.Explain.compressed > 0)

let test_explain_flwor_operators () =
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let (items, plan) =
    Engine.query_profiled eng
      "for $p in document(\"xmark.xml\")/site/people/person where $p/@id = \"person0\" \
       return $p/name/text()"
  in
  Alcotest.(check int) "one result" 1 (List.length items);
  let flwor = find_op plan "flwor" in
  Alcotest.(check string) "flwor kind" "flwor" flwor.Obs.Explain.kind;
  let for_node = find_op plan "for $p" in
  Alcotest.(check string) "for kind" "for" for_node.Obs.Explain.kind;
  Alcotest.(check int) "tuples after binding" 3 for_node.Obs.Explain.rows;
  let where = find_op plan "where [$p/@id = \"person0\"]" in
  Alcotest.(check int) "tuples after where" 1 where.Obs.Explain.rows;
  let ret = find_op plan "return" in
  Alcotest.(check int) "returned items" 1 ret.Obs.Explain.rows

(* ------------------------------------------------------------------ *)
(* Query log                                                           *)
(* ------------------------------------------------------------------ *)

let with_query_log f =
  let file = Filename.temp_file "xquec_qlog" ".jsonl" in
  Fun.protect ~finally:(fun () ->
      Obs.Query_log.set_path None;
      if Sys.file_exists file then Sys.remove file)
  @@ fun () ->
  Obs.Query_log.set_path (Some file);
  f file

let read_lines file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let num_field record keys =
  let v =
    List.fold_left (fun v k -> Option.bind v (Obs.Json.member k)) (Some record) keys
  in
  match Option.bind v Obs.Json.to_float with
  | Some f -> f
  | None -> Alcotest.failf "query-log record missing %s" (String.concat "." keys)

let test_query_log_one_record_per_query () =
  with_query_log @@ fun file ->
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let q1 = "document(\"xmark.xml\")/site/people/person/name" in
  let q2 = "document(\"xmark.xml\")/site/people/person[@id = \"person1\"]/name" in
  let out1, _ = Engine.query_serialized_logged eng q1 in
  let out2, _ = Engine.query_serialized_logged eng q2 in
  let records = List.map Obs.Json.parse (read_lines file) in
  Alcotest.(check int) "exactly one record per query" 2 (List.length records);
  let r1 = List.nth records 0 and r2 = List.nth records 1 in
  Alcotest.(check (option string)) "query text" (Some q1)
    (Option.bind (Obs.Json.member "query" r1) Obs.Json.to_str);
  Alcotest.(check (option string)) "query hash" (Some (Digest.to_hex (Digest.string q1)))
    (Option.bind (Obs.Json.member "query_hash" r1) Obs.Json.to_str);
  Alcotest.(check (float 1e-9)) "rows" 3.0 (num_field r1 [ "rows" ]);
  Alcotest.(check (float 1e-9)) "result bytes" (float_of_int (String.length out1))
    (num_field r1 [ "result_bytes" ]);
  Alcotest.(check bool) "wall time recorded" true (num_field r1 [ "wall_ms" ] >= 0.0);
  Alcotest.(check bool) "plan shape recorded" true
    (match Option.bind (Obs.Json.member "plan_shape" r1) Obs.Json.to_str with
    | Some s -> contains ~needle:"step" s
    | None -> false);
  Alcotest.(check (float 1e-9)) "second record rows" 1.0 (num_field r2 [ "rows" ]);
  Alcotest.(check bool) "second result bytes" true
    (num_field r2 [ "result_bytes" ] = float_of_int (String.length out2))

let test_query_log_reconciles_with_pool_counters () =
  with_query_log @@ fun file ->
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  Storage.Buffer_pool.clear ();
  let s0 = Storage.Buffer_pool.snapshot () in
  ignore (Engine.query_serialized_logged eng "document(\"xmark.xml\")/site/people/person/name");
  let s1 = Storage.Buffer_pool.snapshot () in
  match List.map Obs.Json.parse (read_lines file) with
  | [ r ] ->
    (* the record's byte and pool counters equal the pool deltas around
       the call — the reconciliation contract with `--stats` *)
    List.iter
      (fun (keys, delta) ->
        Alcotest.(check (float 1e-9))
          (String.concat "." keys)
          (float_of_int delta) (num_field r keys))
      [
        ( [ "bytes"; "decoded" ],
          s1.Storage.Buffer_pool.s_decoded_bytes - s0.Storage.Buffer_pool.s_decoded_bytes );
        ( [ "bytes"; "payload_decoded" ],
          s1.Storage.Buffer_pool.s_payload_bytes - s0.Storage.Buffer_pool.s_payload_bytes );
        ( [ "bytes"; "payload_skipped" ],
          s1.Storage.Buffer_pool.s_skipped_bytes - s0.Storage.Buffer_pool.s_skipped_bytes );
        ( [ "pool"; "misses" ],
          s1.Storage.Buffer_pool.s_misses - s0.Storage.Buffer_pool.s_misses );
        ( [ "pool"; "scan_inserts" ],
          s1.Storage.Buffer_pool.s_scan_inserts - s0.Storage.Buffer_pool.s_scan_inserts );
      ]
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

(* Block-join counters must tell one story everywhere: the query-log
   record's "join" object equals the Executor.join_stats delta around
   the query, and publish_pool_metrics mirrors the cumulative stats
   into the executor.join.* series that /metrics and /stats expose. *)
let test_query_log_join_counters_reconcile () =
  with_query_log @@ fun file ->
  let xml =
    "<db><items>"
    ^ String.concat ""
        (List.init 300 (fun i -> Printf.sprintf "<item><key>k%04d</key></item>" i))
    ^ "</items><lookups><lookup><ref>k0007</ref></lookup></lookups></db>"
  in
  let q =
    "for $l in doc('j.xml')/db/lookups/lookup for $i in doc('j.xml')/db/items/item \
     where $i/key = $l/ref return $i/key"
  in
  let saved_bs = Storage.Container.default_block_size () in
  Storage.Container.set_default_block_size 512;
  Fun.protect ~finally:(fun () -> Storage.Container.set_default_block_size saved_bs)
  @@ fun () ->
  let eng = Engine.load ~name:"j.xml" ~workload:[ q ] xml in
  let j0 = Executor.join_stats () in
  ignore (Engine.query_serialized_logged eng q);
  let j1 = Executor.join_stats () in
  Alcotest.(check bool) "the query took the block-join path" true
    (j1.Executor.j_block_joins > j0.Executor.j_block_joins);
  Alcotest.(check bool) "headers pruned at least one block" true
    (j1.Executor.j_blocks_skipped > j0.Executor.j_blocks_skipped);
  (match List.map Obs.Json.parse (read_lines file) with
  | [ r ] ->
    List.iter
      (fun (keys, delta) ->
        Alcotest.(check (float 1e-9))
          (String.concat "." keys)
          (float_of_int delta) (num_field r keys))
      [
        ([ "join"; "block_joins" ], j1.Executor.j_block_joins - j0.Executor.j_block_joins);
        ([ "join"; "blocks_probed" ], j1.Executor.j_blocks_probed - j0.Executor.j_blocks_probed);
        ( [ "join"; "blocks_skipped" ],
          j1.Executor.j_blocks_skipped - j0.Executor.j_blocks_skipped );
        ([ "join"; "skipped_bytes" ], j1.Executor.j_skipped_bytes - j0.Executor.j_skipped_bytes)
      ]
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
  (* the /metrics collector syncs the same cumulative counters (the
     registry only accepts writes while telemetry is on, as in serve) *)
  Obs.with_enabled @@ fun () ->
  Serve.publish_pool_metrics ();
  Alcotest.(check int) "metrics block_joins" j1.Executor.j_block_joins
    (Obs.Metrics.counter_value "executor.join.block_joins");
  Alcotest.(check int) "metrics blocks_probed" j1.Executor.j_blocks_probed
    (Obs.Metrics.counter_value "executor.join.blocks_probed");
  Alcotest.(check int) "metrics blocks_skipped" j1.Executor.j_blocks_skipped
    (Obs.Metrics.counter_value "executor.join.blocks_skipped");
  Alcotest.(check int) "metrics skipped_bytes" j1.Executor.j_skipped_bytes
    (Obs.Metrics.counter_value "executor.join.skipped_bytes")

let test_query_log_disabled_writes_nothing () =
  Obs.Query_log.set_path None;
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let out, _ = Engine.query_serialized_logged eng "document(\"xmark.xml\")/site/people/person/name" in
  Alcotest.(check bool) "query still answers" true (String.length out > 0);
  Alcotest.(check bool) "no log configured" true (Obs.Query_log.path () = None)

(* ------------------------------------------------------------------ *)
(* HTTP exposition server                                              *)
(* ------------------------------------------------------------------ *)

let http_request ~port ?(meth = "GET") ?(body = "") target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      meth target (String.length body) body
  in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  let raw = Buffer.contents buf in
  let status =
    match String.index_opt raw ' ' with
    | Some i -> int_of_string (String.sub raw (i + 1) 3)
    | None -> Alcotest.failf "malformed response: %S" raw
  in
  let body =
    let rec find i =
      if i + 3 >= String.length raw then ""
      else if String.sub raw i 4 = "\r\n\r\n" then
        String.sub raw (i + 4) (String.length raw - i - 4)
      else find (i + 1)
    in
    find 0
  in
  (status, body)

let test_expo_http_roundtrip () =
  with_fresh_telemetry @@ fun () ->
  let eng = Engine.load ~name:"xmark.xml" xmark_doc in
  let server =
    Obs.Expo.start ~port:0 ~extra:(Serve.handler eng)
      ~collect:Serve.publish_pool_metrics ()
  in
  Fun.protect ~finally:(fun () -> Obs.Expo.stop server) @@ fun () ->
  let port = Obs.Expo.port server in
  Alcotest.(check bool) "bound an ephemeral port" true (port > 0);
  let status, body = http_request ~port "/healthz" in
  Alcotest.(check int) "healthz status" 200 status;
  Alcotest.(check bool) "healthz readiness json" true (contains ~needle:"\"status\":\"ok\"" body);
  Alcotest.(check bool) "healthz reports watchdog" true (contains ~needle:"\"watchdog\"" body);
  let status, body = http_request ~port "/metrics" in
  Alcotest.(check int) "metrics status" 200 status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics contains " ^ needle) true (contains ~needle body))
    [ "# TYPE"; "xquec_bufferpool_hits"; "xquec_compactor_busy" ];
  (* query over POST and percent-encoded GET *)
  let q = "document(\"xmark.xml\")/site/people/person[@id = \"person1\"]/name" in
  let status, body = http_request ~port ~meth:"POST" ~body:q "/query" in
  Alcotest.(check int) "post query status" 200 status;
  Alcotest.(check bool) "post query result" true (contains ~needle:"Aloys Rommel" body);
  let status, body = http_request ~port "/query?q=1%2B2" in
  Alcotest.(check int) "get query status" 200 status;
  Alcotest.(check string) "get query result" "3\n" body;
  let status, _ = http_request ~port "/query" in
  Alcotest.(check int) "get query without q" 400 status;
  let status, body = http_request ~port ~meth:"POST" ~body:"for $x in" "/query" in
  Alcotest.(check int) "malformed query is a client error" 400 status;
  Alcotest.(check bool) "error text returned" true (String.length body > 0);
  let status, _ = http_request ~port "/nope" in
  Alcotest.(check int) "unknown path" 404 status;
  let status, _ = http_request ~port ~meth:"DELETE" "/metrics" in
  Alcotest.(check int) "method not allowed" 405 status;
  let status, body = http_request ~port "/stats" in
  Alcotest.(check int) "stats status" 200 status;
  Alcotest.(check bool) "stats is json" true
    (match Obs.Json.parse body with Obs.Json.Obj _ -> true | _ -> false | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Bench regression gate                                               *)
(* ------------------------------------------------------------------ *)

let gate_results counts_v digest_v ms_v =
  Obs.Json.Obj
    [
      ( "experiments",
        Obs.Json.Obj
          [
            ( "exp1",
              Obs.Json.Obj
                [
                  ("wall_s", Obs.Json.Num 1.5);
                  ("cold_ms", Obs.Json.Num ms_v);
                  ("total_bytes", Obs.Json.Num counts_v);
                  ("scan_digest", Obs.Json.Str digest_v);
                  ( "rows",
                    Obs.Json.List
                      [
                        Obs.Json.Obj
                          [ ("name", Obs.Json.Str "a"); ("ratio", Obs.Json.Num 0.5) ];
                      ] );
                ] );
          ] );
    ]

let test_gate_pass_and_perturb () =
  let baseline = gate_results 1000.0 "abc" 10.0 in
  (* identical run passes, and harness wall time is never compared *)
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline ~candidate:baseline in
  Alcotest.(check bool) "identical passes" true r.Obs.Gate.r_passed;
  Alcotest.(check int) "nothing failed" 0 r.Obs.Gate.r_failed;
  (* a count drifting 10% fails; 2% passes (5% tolerance) *)
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline
      ~candidate:(gate_results 1100.0 "abc" 10.0) in
  Alcotest.(check bool) "10% count drift fails" false r.Obs.Gate.r_passed;
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline
      ~candidate:(gate_results 1020.0 "abc" 10.0) in
  Alcotest.(check bool) "2% count drift passes" true r.Obs.Gate.r_passed;
  (* digests are exact *)
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline
      ~candidate:(gate_results 1000.0 "beef" 10.0) in
  Alcotest.(check bool) "digest mismatch fails" false r.Obs.Gate.r_passed;
  (* timings have generous slack in full mode and are skipped in quick *)
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline
      ~candidate:(gate_results 1000.0 "abc" 100.0) in
  Alcotest.(check bool) "10x timing fails in full mode" false r.Obs.Gate.r_passed;
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Quick ~baseline
      ~candidate:(gate_results 1000.0 "abc" 100.0) in
  Alcotest.(check bool) "timing skipped in quick mode" true r.Obs.Gate.r_passed

let test_gate_missing_and_skipped () =
  let baseline = gate_results 1000.0 "abc" 10.0 in
  (* a metric that disappears fails the gate *)
  let without_metric =
    Obs.Json.Obj
      [
        ( "experiments",
          Obs.Json.Obj [ ("exp1", Obs.Json.Obj [ ("wall_s", Obs.Json.Num 1.0) ]) ] );
      ]
  in
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline ~candidate:without_metric in
  Alcotest.(check bool) "missing metric fails" false r.Obs.Gate.r_passed;
  Alcotest.(check bool) "counted as missing" true (r.Obs.Gate.r_missing > 0);
  (* a whole absent experiment is skipped (how --quick runs a subset) *)
  let empty = Obs.Json.Obj [ ("experiments", Obs.Json.Obj []) ] in
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline ~candidate:empty in
  Alcotest.(check int) "no failures" 0 r.Obs.Gate.r_failed;
  Alcotest.(check bool) "but an all-skipped run cannot pass" false r.Obs.Gate.r_passed;
  Alcotest.(check bool) "skipped counted" true (r.Obs.Gate.r_skipped > 0);
  (* the verdict JSON round-trips with the summary counters *)
  let r = Obs.Gate.compare_results ~mode:Obs.Gate.Full ~baseline ~candidate:baseline in
  match Obs.Gate.report_to_json r with
  | Obs.Json.Obj fields ->
    Alcotest.(check (option bool)) "passed field" (Some true)
      (match List.assoc_opt "passed" fields with
      | Some (Obs.Json.Bool b) -> Some b
      | _ -> None)
  | _ -> Alcotest.fail "verdict not an object"

let suites =
  [
    ( "obs-trace",
      [
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "disabled records nothing" `Quick test_span_disabled_records_nothing;
        Alcotest.test_case "ring buffer overwrites" `Quick test_ring_buffer_overwrites;
        Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_json;
        Alcotest.test_case "spans from worker domains" `Quick test_spans_from_worker_domains;
      ] );
    ( "obs-metrics",
      [
        Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "json round-trip" `Quick test_metrics_json_roundtrip;
        Alcotest.test_case "json escaping" `Quick test_json_escaping;
        Alcotest.test_case "parser rejects garbage" `Quick test_json_parser_rejects_garbage;
        Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
      ] );
    ( "obs-query-log",
      [
        Alcotest.test_case "one record per query" `Quick test_query_log_one_record_per_query;
        Alcotest.test_case "reconciles with pool counters" `Quick
          test_query_log_reconciles_with_pool_counters;
        Alcotest.test_case "join counters reconcile" `Quick
          test_query_log_join_counters_reconcile;
        Alcotest.test_case "disabled writes nothing" `Quick test_query_log_disabled_writes_nothing;
      ] );
    ( "obs-expo",
      [ Alcotest.test_case "http round-trip" `Quick test_expo_http_roundtrip ] );
    ( "obs-gate",
      [
        Alcotest.test_case "pass and perturb" `Quick test_gate_pass_and_perturb;
        Alcotest.test_case "missing and skipped" `Quick test_gate_missing_and_skipped;
      ] );
    ( "obs-explain",
      [
        Alcotest.test_case "path query golden" `Quick test_explain_path_query;
        Alcotest.test_case "pushdown rows" `Quick test_explain_pushdown_rows;
        Alcotest.test_case "flwor operators" `Quick test_explain_flwor_operators;
      ] );
  ]

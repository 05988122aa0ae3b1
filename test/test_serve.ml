(* Concurrent serving tests: plan-cache LRU semantics and digest
   stability, accept-time admission (503 + Retry-After past
   max-inflight), per-query budget enforcement (408 with a structured
   body), mid-response client disconnects (EPIPE must not kill the
   server), result correctness under genuinely concurrent clients, and
   the SLO window under concurrent writers. *)

open Xquec_core
module Obs = Xquec_obs

let with_fresh_telemetry f =
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.reset ()) (fun () -> Obs.with_enabled f)

(* A server on an ephemeral port with one worker, no budgets and no
   watchdog; tests override the fields they exercise. *)
let config =
  { Serve.host = "127.0.0.1"; port = 0; workers = 1; max_inflight = 0;
    limits = Obs.Ledger.unlimited; watch_window = 0.0; drift_alert = 0.3; alerts_log = None;
    baseline = None; auto_compact = false; format = "v4" }

let with_server ?(config = config) engine f =
  let server = Serve.start config engine in
  Fun.protect ~finally:(fun () -> Serve.stop server) (fun () -> f server)

(* One small generated XMark document, compressed once and shared by
   the tests that only read it. Budget tests load their own copy so
   every block access is a real decode (fresh uid = nothing resident). *)
let xmark_xml = lazy (Xmark.Xmlgen.generate ~scale:0.05 ())

let shared_engine = lazy (Engine.load ~name:"auction.xml" (Lazy.force xmark_xml))

(* A raw HTTP exchange that keeps the full response text, so tests can
   assert on headers (Hammer.request only surfaces status + body). *)
let raw_request ~port (payload : string) : string =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring sock payload 0 (String.length payload));
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      recv ();
      Buffer.contents buf)

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go k = k + lb <= ls && (String.sub s k lb = sub || go (k + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_lru () =
  Plan_cache.set_capacity 2;
  Plan_cache.clear ();
  Plan_cache.reset_stats ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  let compile q = fst (Plan_cache.find_or_add ~key:q (fun () -> Engine.parse_query q)) in
  let q1 = "1+2" and q2 = "2+3" and q3 = "3+4" in
  ignore (compile q1);
  (* miss *)
  ignore (compile q2);
  (* miss; cache = [q2; q1] *)
  ignore (compile q1);
  (* hit; cache = [q1; q2] *)
  ignore (compile q3);
  (* miss; evicts q2 (LRU tail); cache = [q3; q1] *)
  ignore (compile q2);
  (* miss again: q2 was evicted; evicts q1; cache = [q2; q3] *)
  ignore (compile q1);
  (* miss: q1 was just evicted; evicts q3; cache = [q1; q2] *)
  let s = Plan_cache.snapshot () in
  Alcotest.(check int) "hits" 1 s.Plan_cache.s_hits;
  Alcotest.(check int) "misses" 5 s.Plan_cache.s_misses;
  Alcotest.(check int) "evictions" 3 s.Plan_cache.s_evictions;
  Alcotest.(check int) "entries" 2 s.Plan_cache.s_entries;
  Alcotest.(check int) "capacity" 2 s.Plan_cache.s_capacity;
  (* a parse error must propagate and cache nothing *)
  (match Plan_cache.find_or_add ~key:"broken" (fun () -> Engine.parse_query "for $x") with
  | _ -> Alcotest.fail "parse error did not propagate"
  | exception _ -> ());
  let s2 = Plan_cache.snapshot () in
  Alcotest.(check int) "failed compile not cached" 2 s2.Plan_cache.s_entries

let test_plan_cache_hit_digest_identical () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  Plan_cache.set_capacity 8;
  Plan_cache.clear ();
  Plan_cache.reset_stats ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" in
  with_server engine @@ fun server ->
  let r1 = Serve.run_query server q in
  let r2 = Serve.run_query server q in
  Alcotest.(check int) "cold status" 200 r1.Obs.Expo.status;
  Alcotest.(check int) "warm status" 200 r2.Obs.Expo.status;
  Alcotest.(check string) "hit returns identical bytes"
    (Digest.to_hex (Digest.string r1.Obs.Expo.body))
    (Digest.to_hex (Digest.string r2.Obs.Expo.body));
  let s = Plan_cache.snapshot () in
  Alcotest.(check int) "one miss (cold)" 1 s.Plan_cache.s_misses;
  Alcotest.(check int) "one hit (warm)" 1 s.Plan_cache.s_hits

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_beyond_max_inflight () =
  with_fresh_telemetry @@ fun () ->
  (* a controllable handler: /block parks until the test releases it,
     occupying a worker and an admission slot deterministically *)
  let m = Mutex.create () in
  let cv = Condition.create () in
  let released = ref false in
  let extra (req : Obs.Expo.request) =
    if req.Obs.Expo.path = "/block" then begin
      Mutex.lock m;
      while not !released do
        Condition.wait cv m
      done;
      Mutex.unlock m;
      Some (Obs.Expo.respond 200 "text/plain" "unblocked\n")
    end
    else None
  in
  let server = Obs.Expo.start ~port:0 ~workers:2 ~max_inflight:2 ~extra:(fun _ -> extra) () in
  let port = Obs.Expo.port server in
  let release () =
    Mutex.lock m;
    released := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  Fun.protect ~finally:(fun () -> release (); Obs.Expo.stop server)
  @@ fun () ->
  let blocked = List.init 2 (fun _ -> Domain.spawn (fun () -> Obs.Hammer.request ~port "/block")) in
  (* wait until both requests are admitted and parked in the handler *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Obs.Expo.stats server).Obs.Expo.e_inflight < 2 && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "both connections in flight" 2
    (Obs.Expo.stats server).Obs.Expo.e_inflight;
  (* the third connection must be shed without touching a worker *)
  let raw = raw_request ~port "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" in
  Alcotest.(check bool) "shed with 503" true (contains raw "HTTP/1.1 503");
  Alcotest.(check bool) "Retry-After header present" true (contains raw "Retry-After: 1");
  Alcotest.(check bool) "structured body" true (contains raw "\"error\":\"saturated\"");
  release ();
  let replies = List.map Domain.join blocked in
  List.iter
    (fun (r : Obs.Hammer.reply) ->
      Alcotest.(check int) "blocked requests finish with 200" 200 r.Obs.Hammer.r_status)
    replies;
  (* a client has its reply before the worker releases its slot *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Obs.Expo.stats server).Obs.Expo.e_inflight > 0 && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.005
  done;
  let s = Obs.Expo.stats server in
  Alcotest.(check bool) "rejection counted" true (s.Obs.Expo.e_rejected >= 1);
  Alcotest.(check int) "nothing left in flight" 0 s.Obs.Expo.e_inflight

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let read_records file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Obs.Json.parse

let int_at (r : Obs.Json.t) keys =
  match
    Option.bind
      (List.fold_left (fun v k -> Option.bind v (Obs.Json.member k)) (Some r) keys)
      Obs.Json.to_float
  with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "query-log record missing %s" (String.concat "." keys)

(* The query-log records [f] leaves, read from a fresh log file. *)
let logged_records f =
  let log = Filename.temp_file "xquec_serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Query_log.set_path None;
      Sys.remove log)
  @@ fun () ->
  Obs.Query_log.set_path (Some log);
  let v = f () in
  (v, read_records log)

let error_of r = Option.bind (Obs.Json.member "error" r) Obs.Json.to_str

let test_decode_budget_trips_408 () =
  with_fresh_telemetry @@ fun () ->
  (* fresh load: fresh container uids, so nothing is resident and every
     block access decodes (and charges the budget) for real *)
  let engine = Engine.load ~name:"auction.xml" (Lazy.force xmark_xml) in
  let pool0 = Storage.Buffer_pool.snapshot () in
  let r, records =
    logged_records (fun () ->
        with_server engine
          ~config:{ config with limits = { Obs.Ledger.wall_ms = 0.0; decode_bytes = 1 } }
        @@ fun server -> Serve.run_query server "document(\"auction.xml\")/site/people/person/name")
  in
  let pool1 = Storage.Buffer_pool.snapshot () in
  Alcotest.(check int) "terminated with 408" 408 r.Obs.Expo.status;
  (* the stopped query's ledger still joins the process totals *)
  Alcotest.(check bool) "its decoded bytes show in the pool counters" true
    (pool1.Storage.Buffer_pool.s_decoded_bytes - pool0.Storage.Buffer_pool.s_decoded_bytes > 1);
  Alcotest.(check bool) "its misses show in the pool counters" true
    (pool1.Storage.Buffer_pool.s_misses > pool0.Storage.Buffer_pool.s_misses);
  (* ... and in its query-log record, which names the error *)
  Alcotest.(check int) "one record" 1 (List.length records);
  let record = List.hd records in
  Alcotest.(check (option string)) "record error" (Some "budget_exceeded") (error_of record);
  Alcotest.(check int) "record misses = pool misses"
    (pool1.Storage.Buffer_pool.s_misses - pool0.Storage.Buffer_pool.s_misses)
    (int_at record [ "pool"; "misses" ]);
  Alcotest.(check int) "record payload = pool payload"
    (pool1.Storage.Buffer_pool.s_payload_bytes - pool0.Storage.Buffer_pool.s_payload_bytes)
    (int_at record [ "bytes"; "payload_decoded" ]);
  Alcotest.(check bool) "structured error body" true
    (contains r.Obs.Expo.body "\"error\":\"budget_exceeded\"");
  Alcotest.(check bool) "names the tripped budget" true
    (contains r.Obs.Expo.body "\"budget\":\"decode_bytes\"");
  (* the evaluating domain must be disarmed afterwards: the same query
     on a server without budgets succeeds *)
  with_server engine @@ fun server ->
  let ok = Serve.run_query server "document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" in
  Alcotest.(check int) "disarmed afterwards" 200 ok.Obs.Expo.status

let test_wall_budget_trips_408 () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  (* microscopic wall budget: the first block-access poll is already
     past it (parsing alone takes longer) *)
  with_server engine ~config:{ config with limits = { Obs.Ledger.wall_ms = 0.0001; decode_bytes = 0 } }
  @@ fun server ->
  let r = Serve.run_query server "document(\"auction.xml\")/site/people/person/name" in
  Alcotest.(check int) "terminated with 408" 408 r.Obs.Expo.status;
  Alcotest.(check bool) "names the tripped budget" true
    (contains r.Obs.Expo.body "\"budget\":\"wall_ms\"")

(* A malformed query answers 400 with the same positioned message the
   CLI prints, not an exception dump. *)
let test_syntax_error_400 () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  let q = "for $p in document(\"auction.xml\")/site/people/person where" in
  let r = with_server engine (fun server -> Serve.run_query server q) in
  Alcotest.(check int) "status" 400 r.Obs.Expo.status;
  Alcotest.(check string) "body" "syntax error at byte 58: unexpected end of input\n"
    r.Obs.Expo.body

(* A query that fails to evaluate answers 400 with the message the CLI
   prints, and leaves a query-log record naming the error. *)
let test_eval_error_400 () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  let r, records =
    logged_records (fun () -> with_server engine (fun server -> Serve.run_query server "$x"))
  in
  Alcotest.(check int) "status" 400 r.Obs.Expo.status;
  Alcotest.(check string) "body" "evaluation error: unbound variable $x\n" r.Obs.Expo.body;
  Alcotest.(check (list (option string))) "one record naming the error" [ Some "eval_error" ]
    (List.map error_of records)

(* ------------------------------------------------------------------ *)
(* Client disconnects                                                  *)
(* ------------------------------------------------------------------ *)

let test_epipe_mid_response_survives () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  with_server engine @@ fun server ->
  let port = Serve.port server in
  (* ask for a large result, then vanish with an RST (SO_LINGER 0) the
     moment the request is sent — the server's response write hits a
     dead connection mid-stream *)
  for _ = 1 to 3 do
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let q = "document(\"auction.xml\")/site" in
    let payload =
      Printf.sprintf
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        (String.length q) q
    in
    ignore (Unix.write_substring sock payload 0 (String.length payload));
    Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0);
    Unix.close sock
  done;
  (* the server must still be alive and serving *)
  let r = Obs.Hammer.request ~port "/healthz" in
  Alcotest.(check int) "server survives RST storms" 200 r.Obs.Hammer.r_status;
  let q = Obs.Hammer.request ~port ~meth:"POST"
      ~body:"document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" "/query"
  in
  Alcotest.(check int) "queries still served" 200 q.Obs.Hammer.r_status

(* ------------------------------------------------------------------ *)
(* Concurrent correctness                                              *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients_correct_results () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  Plan_cache.set_capacity 32;
  Plan_cache.clear ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  with_server engine ~config:{ config with workers = 3; max_inflight = 64 } @@ fun server ->
  let port = Serve.port server in
  (* every client computes a different arithmetic expression: the reply
     is predictable per (client, seq), so any cross-request mixup under
     concurrency is caught exactly *)
  let clients = 12 and per_client = 4 in
  let outcomes =
    Obs.Hammer.drive ~port ~clients ~requests_per_client:per_client
      ~target:(fun client seq ->
        ("POST", "/query", Printf.sprintf "%d+%d" (10 * client) seq))
      ()
  in
  Alcotest.(check int) "every request answered" (clients * per_client)
    (List.length outcomes);
  List.iter
    (fun (o : Obs.Hammer.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "client %d seq %d status" o.Obs.Hammer.o_client o.Obs.Hammer.o_seq)
        200 o.Obs.Hammer.o_reply.Obs.Hammer.r_status;
      Alcotest.(check string)
        (Printf.sprintf "client %d seq %d result" o.Obs.Hammer.o_client o.Obs.Hammer.o_seq)
        (Printf.sprintf "%d\n" ((10 * o.Obs.Hammer.o_client) + o.Obs.Hammer.o_seq))
        o.Obs.Hammer.o_reply.Obs.Hammer.r_body)
    outcomes

(* One of the server's SLO-window gauges, as a /metrics scrape
   publishes it. *)
let window_gauge server name =
  ignore (Obs.Hammer.request ~port:(Serve.port server) "/metrics");
  Option.value ~default:nan (Obs.Metrics.gauge_value ("serve.window." ^ name))

let test_window_concurrent_writers () =
  with_fresh_telemetry @@ fun () ->
  with_server (Lazy.force shared_engine) @@ fun server ->
  let writers = 4 and per_writer = 250 in
  let domains =
    List.init writers (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to per_writer do
              ignore (Serve.run_query server (if i = 0 then "$x" else "1+2"))
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check (float 0.0)) "no observation lost" (float_of_int (writers * per_writer))
    (window_gauge server "requests");
  Alcotest.(check (float 0.0)) "errors from exactly one writer" (float_of_int per_writer)
    (window_gauge server "errors")

(* ------------------------------------------------------------------ *)
(* Per-query ledger under concurrency                                  *)
(* ------------------------------------------------------------------ *)

let xmark_text id = (Xmark.Queries.by_id id).Xmark.Queries.text

(* Every block fetch is exactly one of hit, miss or latch wait, however
   warm the pool is, so this is a fixed count per query. *)
let root_fetches (prof : Obs.Explain.node) =
  prof.Obs.Explain.cache_hits + prof.Obs.Explain.cache_misses + prof.Obs.Explain.cache_waits

(* Two domains evaluate different queries on one engine at the same
   time: each profile's root must count exactly the fetches its own
   query makes when it runs alone, none of its neighbour's. *)
let test_ledger_two_domains () =
  let engine = Lazy.force shared_engine in
  let fetches text =
    let r = Engine.request engine (Engine.plain text) in
    root_fetches r.explain
  in
  let qa = xmark_text "Q10" and qb = xmark_text "Q14" in
  let alone_a = fetches qa and alone_b = fetches qb in
  Alcotest.(check bool) "both queries fetch blocks" true (alone_a > 0 && alone_b > 0);
  let ready = Atomic.make 0 in
  let spawn q =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        List.init 20 (fun _ -> fetches q))
  in
  let da = spawn qa and db = spawn qb in
  let runs_a = Domain.join da and runs_b = Domain.join db in
  List.iter (Alcotest.(check int) "Q10 fetches, as alone" alone_a) runs_a;
  List.iter (Alcotest.(check int) "Q14 fetches, as alone" alone_b) runs_b

(* Sixteen concurrent clients on three workers over a small pool: the
   query-log records, summed, equal the process-wide pool and join
   deltas and the served repository's heat deltas around the run
   exactly, for every field a record carries. No watchdog or compaction runs, so every block fetched in
   the run belongs to some query. *)
let test_ledger_records_sum_to_globals () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  let queries = Array.map xmark_text [| "Q1"; "Q8"; "Q10"; "Q13"; "Q14"; "Q19"; "Q20" |] in
  let log = Filename.temp_file "xquec_ledger" ".jsonl" in
  let budget = Storage.Buffer_pool.budget_bytes () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Query_log.set_path None;
      Storage.Buffer_pool.set_budget ~bytes:budget;
      Sys.remove log)
  @@ fun () ->
  Storage.Buffer_pool.set_budget ~bytes:(16 * 1024);
  Obs.Query_log.set_path (Some log);
  let clients = 16 and per_client = 4 in
  let heat () = Obs.Heat.snapshot (Storage.Repository.heat_rows (Engine.repo engine)) in
  let pool0 = Storage.Buffer_pool.snapshot () and heat0 = heat () in
  let join0 = Executor.join_stats () in
  let outcomes =
    with_server engine ~config:{ config with workers = 3; max_inflight = 64 } @@ fun server ->
    Obs.Hammer.drive ~port:(Serve.port server) ~clients ~requests_per_client:per_client
      ~target:(fun client seq -> ("POST", "/query", queries.((client + seq) mod Array.length queries)))
      ()
  in
  let pool1 = Storage.Buffer_pool.snapshot () and heat1 = heat () in
  let join1 = Executor.join_stats () in
  List.iter
    (fun (o : Obs.Hammer.outcome) ->
      Alcotest.(check int) "status" 200 o.Obs.Hammer.o_reply.Obs.Hammer.r_status)
    outcomes;
  let records = read_records log in
  Alcotest.(check int) "one record per request" (clients * per_client) (List.length records);
  let sum keys = List.fold_left (fun acc r -> acc + int_at r keys) 0 records in
  let open Storage.Buffer_pool in
  List.iter
    (fun (keys, delta) -> Alcotest.(check int) (String.concat "." keys) delta (sum keys))
    [
      ([ "bytes"; "decoded" ], pool1.s_decoded_bytes - pool0.s_decoded_bytes);
      ([ "bytes"; "payload_decoded" ], pool1.s_payload_bytes - pool0.s_payload_bytes);
      ([ "bytes"; "payload_skipped" ], pool1.s_skipped_bytes - pool0.s_skipped_bytes);
      ([ "pool"; "hits" ], pool1.s_hits - pool0.s_hits);
      ([ "pool"; "misses" ], pool1.s_misses - pool0.s_misses);
      ([ "pool"; "latch_waits" ], pool1.s_latch_waits - pool0.s_latch_waits);
      ([ "pool"; "evictions" ], pool1.s_evictions - pool0.s_evictions);
      ([ "pool"; "blocks_skipped" ], pool1.s_blocks_skipped - pool0.s_blocks_skipped);
      ([ "pool"; "scan_inserts" ], pool1.s_scan_inserts - pool0.s_scan_inserts);
      ([ "join"; "block_joins" ], join1.Executor.j_block_joins - join0.Executor.j_block_joins);
      ( [ "join"; "blocks_probed" ],
        join1.Executor.j_blocks_probed - join0.Executor.j_blocks_probed );
      ( [ "join"; "blocks_skipped" ],
        join1.Executor.j_blocks_skipped - join0.Executor.j_blocks_skipped );
      ( [ "join"; "skipped_bytes" ],
        join1.Executor.j_skipped_bytes - join0.Executor.j_skipped_bytes );
    ];
  Alcotest.(check bool) "the run evicted blocks" true (pool1.s_evictions > pool0.s_evictions);
  (* per-container fields, summed by container path *)
  let add tbl k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let per_container logged_field (heat_field : Obs.Heat.stat -> int) =
    let logged = Hashtbl.create 64 and heat = Hashtbl.create 64 in
    List.iter
      (fun r ->
        match Obs.Json.member "containers" r with
        | Some (Obs.Json.List cs) ->
          List.iter
            (fun c ->
              match Option.bind (Obs.Json.member "container" c) Obs.Json.to_str with
              | Some path -> add logged path (int_at c [ logged_field ])
              | None -> Alcotest.fail "container entry without a path")
            cs
        | _ -> ())
      records;
    let before = Hashtbl.create 1024 in
    List.iter (fun (s0 : Obs.Heat.stat) -> Hashtbl.replace before s0.uid (heat_field s0)) heat0;
    List.iter
      (fun (s1 : Obs.Heat.stat) ->
        add heat s1.label
          (heat_field s1 - Option.value ~default:0 (Hashtbl.find_opt before s1.uid)))
      heat1;
    let nonzero tbl =
      Hashtbl.fold (fun k n acc -> if n <> 0 then (k, n) :: acc else acc) tbl []
      |> List.sort compare
    in
    Alcotest.(check (list (pair string int)))
      ("per-container " ^ logged_field) (nonzero heat) (nonzero logged)
  in
  per_container "decoded_bytes" (fun s -> s.Obs.Heat.bytes_decoded);
  per_container "touches" (fun s -> s.Obs.Heat.touches);
  per_container "decodes" (fun s -> s.Obs.Heat.decodes);
  per_container "header_skips" (fun s -> s.Obs.Heat.header_skips);
  per_container "skipped_bytes" (fun s -> s.Obs.Heat.bytes_skipped)

let suites =
  [
    ( "serve-concurrent",
      [
        Alcotest.test_case "plan-cache LRU." `Quick test_plan_cache_lru;
        Alcotest.test_case "plan-cache hit digest-identical." `Quick
          test_plan_cache_hit_digest_identical;
        Alcotest.test_case "admission sheds with 503." `Quick
          test_admission_sheds_beyond_max_inflight;
        Alcotest.test_case "decode budget trips 408." `Quick test_decode_budget_trips_408;
        Alcotest.test_case "wall budget trips 408." `Quick test_wall_budget_trips_408;
        Alcotest.test_case "syntax error answers 400." `Quick test_syntax_error_400;
        Alcotest.test_case "eval error answers 400." `Quick test_eval_error_400;
        Alcotest.test_case "EPIPE mid-response survives." `Quick
          test_epipe_mid_response_survives;
        Alcotest.test_case "concurrent clients correct." `Quick
          test_concurrent_clients_correct_results;
        Alcotest.test_case "SLO window concurrent writers." `Quick
          test_window_concurrent_writers;
        Alcotest.test_case "ledger: two domains, own fetches only." `Quick
          test_ledger_two_domains;
        Alcotest.test_case "ledger: records sum to global deltas." `Quick
          test_ledger_records_sum_to_globals;
      ] );
  ]

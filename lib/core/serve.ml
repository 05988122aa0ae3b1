(* The `xquec serve` request handler: query evaluation over one loaded
   repository, mounted as the [extra] routes of an
   [Xquec_obs.Expo] server (which contributes /metrics and /healthz).

   Routes:
     POST /query          body = XQuery text
     GET  /query?q=...    percent-encoded XQuery text
     GET  /stats          full metrics registry as JSON
     GET  /heat           container heat snapshot as JSON
     GET  /watch          watchdog snapshot: fingerprint, drift, advice
     GET  /alerts         alert rules, active set, recent transitions
     GET  /compact        background compactor status + recent results
     GET  /healthz        readiness JSON (intercepts the Expo builtin)

   A server ([start]) owns everything it keeps: its watchdog, alert
   engine, SLO window, request counts, per-tick baseline, ticker domain
   and HTTP front (with its admission counters); the compactor's state
   is the served repository's. Two servers in one process share only
   the process-wide metrics registry, buffer pool and plan cache.

   Queries run on whichever Expo domain handles the connection — the
   accept domain in the sequential configuration, a worker-pool domain
   when `--serve-workers` fans connections out — so everything in this
   module is written for concurrent callers: the SLO window takes a
   mutex, the plan cache is the mutex-guarded Plan_cache, and the
   query's ledger (checked against the server's budgets) lives in
   Domain.DLS on the evaluating domain, which also decodes every block
   the query reads. Each query bumps
   "serve.queries", records "serve.query_ms", consults the plan cache,
   and appends a query-log record when a log file is configured. *)

open Xquec_obs

(* --- rolling SLO window ---------------------------------------------- *)

(* Request latency / error rate over the last [window_buckets] seconds:
   a ring of one-second buckets, each holding a count, an error count,
   min/max and a log-scale histogram reusing the Metrics bucket layout.
   A bucket is lazily re-zeroed when the ring wraps onto a new epoch
   second. The cumulative "serve.query_ms" histogram answers
   "since startup"; this ring answers "right now" — p50/p95/p99 and
   error rate over the last minute — without the scraper having to
   diff consecutive snapshots.

   Concurrent writers: with a worker pool, several domains observe into
   the ring (and /metrics scrapes read it) simultaneously, so every
   ring access takes [window_mutex]. One uncontended lock per completed
   request is noise next to evaluating the query. *)

let window_buckets = 60

type wbucket = {
  mutable w_epoch : int;  (* absolute second this bucket currently holds; -1 = empty *)
  mutable w_count : int;
  mutable w_errors : int;
  mutable w_min : float;
  mutable w_max : float;
  w_hist : int array;
}

type window_stats = {
  ws_requests : int;
  ws_errors : int;
  ws_error_rate : float;
  ws_p50_ms : float;
  ws_p95_ms : float;
  ws_p99_ms : float;
}

type window = { w_lock : Mutex.t; w_buckets : wbucket array }

let window_create () =
  {
    w_lock = Mutex.create ();
    w_buckets =
      Array.init window_buckets (fun _ ->
          { w_epoch = -1; w_count = 0; w_errors = 0; w_min = infinity; w_max = 0.0;
            w_hist = Array.make Metrics.bucket_count 0 });
  }

let window_observe (w : window) ~(error : bool) (ms : float) : unit =
  Mutex.protect w.w_lock @@ fun () ->
  let now = int_of_float (Unix.gettimeofday ()) in
  let b = w.w_buckets.(now mod window_buckets) in
  if b.w_epoch <> now then begin
    b.w_epoch <- now;
    b.w_count <- 0;
    b.w_errors <- 0;
    b.w_min <- infinity;
    b.w_max <- 0.0;
    Array.fill b.w_hist 0 (Array.length b.w_hist) 0
  end;
  b.w_count <- b.w_count + 1;
  if error then b.w_errors <- b.w_errors + 1;
  if ms < b.w_min then b.w_min <- ms;
  if ms > b.w_max then b.w_max <- ms;
  let i = Metrics.bucket_index ms in
  b.w_hist.(i) <- b.w_hist.(i) + 1

let window_stats (w : window) : window_stats =
  let now = int_of_float (Unix.gettimeofday ()) in
  let live = now - window_buckets + 1 in
  let hist = Array.make Metrics.bucket_count 0 in
  let count = ref 0 and errors = ref 0 in
  let mn = ref infinity and mx = ref 0.0 in
  (* fold under the lock; the percentile arithmetic below runs on the
     private copy *)
  Mutex.protect w.w_lock (fun () ->
      Array.iter
        (fun b ->
          if b.w_epoch >= live && b.w_count > 0 then begin
            count := !count + b.w_count;
            errors := !errors + b.w_errors;
            if b.w_min < !mn then mn := b.w_min;
            if b.w_max > !mx then mx := b.w_max;
            Array.iteri (fun i c -> hist.(i) <- hist.(i) + c) b.w_hist
          end)
        w.w_buckets);
  let percentile p =
    Option.value ~default:0.0
      (Metrics.percentile_of_buckets ~count:!count ~min:!mn ~max:!mx hist p)
  in
  {
    ws_requests = !count;
    ws_errors = !errors;
    ws_error_rate = (if !count = 0 then 0.0 else float_of_int !errors /. float_of_int !count);
    ws_p50_ms = percentile 0.50;
    ws_p95_ms = percentile 0.95;
    ws_p99_ms = percentile 0.99;
  }

let publish_window_metrics (window : window) =
  let w = window_stats window in
  Metrics.set_gauge "serve.window.requests" (float_of_int w.ws_requests);
  Metrics.set_gauge "serve.window.errors" (float_of_int w.ws_errors);
  Metrics.set_gauge "serve.window.error_rate" w.ws_error_rate;
  Metrics.set_gauge "serve.window.p50_ms" w.ws_p50_ms;
  Metrics.set_gauge "serve.window.p95_ms" w.ws_p95_ms;
  Metrics.set_gauge "serve.window.p99_ms" w.ws_p99_ms

(* Copy the storage-layer counters into the metrics registry. The pool
   and join figures are counted once, in the query ledgers, and read
   here from their process totals, the compactor figures from [repo];
   the bufferpool.*, compactor.* and executor.join.* series exist only
   through this copy. *)
let publish_storage_metrics (repo : Storage.Repository.t) : unit =
  let s = Storage.Buffer_pool.snapshot () in
  Metrics.set_counter "bufferpool.hits" s.Storage.Buffer_pool.s_hits;
  Metrics.set_counter "bufferpool.misses" s.Storage.Buffer_pool.s_misses;
  Metrics.set_counter "bufferpool.latch_waits" s.Storage.Buffer_pool.s_latch_waits;
  Metrics.set_counter "bufferpool.evictions" s.Storage.Buffer_pool.s_evictions;
  Metrics.set_counter "bufferpool.decoded_bytes" s.Storage.Buffer_pool.s_decoded_bytes;
  Metrics.set_counter "bufferpool.scan_inserts" s.Storage.Buffer_pool.s_scan_inserts;
  Metrics.set_counter "bufferpool.blocks_skipped" s.Storage.Buffer_pool.s_blocks_skipped;
  Metrics.set_counter "bufferpool.payload_bytes" s.Storage.Buffer_pool.s_payload_bytes;
  Metrics.set_counter "bufferpool.skipped_bytes" s.Storage.Buffer_pool.s_skipped_bytes;
  Metrics.set_counter "bufferpool.invalidations" s.Storage.Buffer_pool.s_invalidations;
  Metrics.set_gauge "bufferpool.resident_bytes"
    (float_of_int s.Storage.Buffer_pool.s_resident_bytes);
  Metrics.set_gauge "bufferpool.resident_blocks"
    (float_of_int s.Storage.Buffer_pool.s_resident_blocks);
  let k = Storage.Compactor.snapshot repo in
  Metrics.set_counter "compactor.compactions" k.Storage.Compactor.k_compactions;
  Metrics.set_counter "compactor.blocks_rewritten" k.Storage.Compactor.k_blocks_rewritten;
  Metrics.set_counter "compactor.bytes_rewritten" k.Storage.Compactor.k_bytes_rewritten;
  Metrics.set_gauge "compactor.busy" (if Storage.Compactor.busy repo then 1.0 else 0.0);
  let j = Executor.join_stats () in
  Metrics.set_counter "executor.join.block_joins" j.Executor.j_block_joins;
  Metrics.set_counter "executor.join.blocks_probed" j.Executor.j_blocks_probed;
  Metrics.set_counter "executor.join.blocks_skipped" j.Executor.j_blocks_skipped;
  Metrics.set_counter "executor.join.skipped_bytes" j.Executor.j_skipped_bytes

(* --- the server ------------------------------------------------------ *)

type config = {
  host : string;
  port : int;
  workers : int;
  max_inflight : int;
  limits : Ledger.limits;
  watch_window : float;
  drift_alert : float;
  alerts_log : string option;
  baseline : Profile.fingerprint option;
  auto_compact : bool;
  format : string;
}

(* Everything a server keeps but its HTTP front and ticker, which are
   started over it. The request counts are this server's own: the
   per-tick rate signals are their deltas, not the process-wide
   serve.* counters'. *)
type state = {
  engine : Engine.t;
  config : config;
  watch : Watch.t option;
  alert : Alert.t;
  window : window;
  started : float;
  requests : int Atomic.t;  (* /query requests answered, any status *)
  trips : int Atomic.t;  (* ... answered 408 *)
  tick_lock : Mutex.t;
  mutable tick_prev : int * int * int * int * int * int;  (* of [tick_readings] *)
}

type t = { s : state; expo : Expo.t; ticker : unit Domain.t option; ticker_stop : bool Atomic.t }

(* Sync every serve-side source into the registry so a /metrics scrape
   is fresh. *)
let publish_pool_metrics (s : state) (expo : Expo.t) : unit =
  let repo = Engine.repo s.engine in
  publish_storage_metrics repo;
  Heat.publish_metrics (Storage.Repository.heat_rows repo);
  let e = Expo.stats expo in
  Metrics.set_gauge "serve.admission.workers" (float_of_int e.Expo.e_workers);
  Metrics.set_counter "serve.admission.accepted" e.Expo.e_accepted;
  Metrics.set_counter "serve.admission.handled" e.Expo.e_handled;
  Metrics.set_counter "serve.admission.rejected" e.Expo.e_rejected;
  Metrics.set_gauge "serve.admission.inflight" (float_of_int e.Expo.e_inflight);
  Metrics.set_gauge "serve.admission.inflight_high_water"
    (float_of_int e.Expo.e_inflight_high_water);
  let pc = Plan_cache.snapshot () in
  Metrics.set_gauge "serve.plan_cache.capacity" (float_of_int pc.Plan_cache.s_capacity);
  Metrics.set_gauge "serve.plan_cache.entries" (float_of_int pc.Plan_cache.s_entries);
  Metrics.set_counter "serve.plan_cache.hits" pc.Plan_cache.s_hits;
  Metrics.set_counter "serve.plan_cache.misses" pc.Plan_cache.s_misses;
  Metrics.set_counter "serve.plan_cache.evictions" pc.Plan_cache.s_evictions;
  publish_window_metrics s.window

(* --- per-query budgets ------------------------------------------------ *)

(* The limits every query's ledger is checked against, as the
   admission object of its log record reports them. *)
let budget_json ({ wall_ms; decode_bytes } : Ledger.limits) : (string * Json.t) list =
  (if wall_ms > 0.0 then [ ("wall_ms_budget", Json.Num wall_ms) ] else [])
  @
  if decode_bytes > 0 then [ ("decode_bytes_budget", Json.Num (float_of_int decode_bytes)) ]
  else []

(* --- watchdog tick: signals + alert evaluation ----------------------- *)

(* Per-tick rate signals are deltas of cumulative counters between
   consecutive ticks; [tick_prev] holds the previous readings. Only the
   ticker and tests tick, but the lock keeps a test-driven tick racing
   a live ticker harmless. *)
let tick_readings (s : state) =
  let pc = Plan_cache.snapshot () in
  let bp = Storage.Buffer_pool.snapshot () in
  ( Atomic.get s.requests,
    Atomic.get s.trips,
    pc.Plan_cache.s_hits,
    pc.Plan_cache.s_misses,
    bp.Storage.Buffer_pool.s_hits,
    bp.Storage.Buffer_pool.s_misses )

(* This tick's named signal readings for the alert engine. A signal
   with no evidence this tick (no requests, no cache lookups, no
   computable drift) is omitted rather than reported as a fake zero —
   the engine leaves the rule's streaks untouched for missing
   signals. *)
let watch_signals (s : state) (st : Watch.status) : (string * float) list =
  let d_requests, d_trips, d_pc_hits, d_pc_look, d_bp_hits, d_bp_look =
    Mutex.protect s.tick_lock @@ fun () ->
    let ((q, tr, pch, pcm, bph, bpm) as now) = tick_readings s in
    let q0, tr0, pch0, pcm0, bph0, bpm0 = s.tick_prev in
    s.tick_prev <- now;
    (q - q0, tr - tr0, pch - pch0, pch - pch0 + (pcm - pcm0), bph - bph0, bph - bph0 + (bpm - bpm0))
  in
  let ratio num den = float_of_int num /. float_of_int den in
  (match st.Watch.w_drift with Some d -> [ ("drift", d) ] | None -> [])
  @ (match st.Watch.w_drift_ewma with Some d -> [ ("drift_ewma", d) ] | None -> [])
  @ (if d_requests > 0 then
       [
         ("error_rate", (window_stats s.window).ws_error_rate);
         ("budget_408_rate", ratio d_trips d_requests);
       ]
     else [])
  @ (if d_pc_look > 0 then [ ("plan_cache_hit_rate", ratio d_pc_hits d_pc_look) ] else [])
  @ if d_bp_look > 0 then [ ("buffer_pool_hit_rate", ratio d_bp_hits d_bp_look) ] else []

(* The served repository's heat reading. *)
let heat (engine : Engine.t) = Heat.snapshot (Storage.Repository.heat_rows (Engine.repo engine))

(* --- drift-triggered auto-compaction --------------------------------- *)

(* When auto-compaction is on, a [drift_sustained] firing closes the
   loop: [Engine.block_targets] turns the live rolling fingerprint
   (joined with the served repository's heat) into concrete (id, size)
   targets, the rule [xquec compress --adaptive-blocks] applies to the
   declared workload, and the targets go to [Compactor.request],
   which runs the pass on the watchdog domain — queries keep flowing
   through the copy-on-write swap. *)
let maybe_auto_compact (s : state) (transitions : Alert.transition list) : unit =
  let fired =
    List.exists
      (fun (t : Alert.transition) ->
        t.Alert.t_rule = "drift_sustained" && t.Alert.t_event = "fired")
      transitions
  in
  match s.watch with
  | Some w when s.config.auto_compact && fired ->
    let targets = Engine.block_targets s.engine (Watch.fingerprint w ()) in
    if Storage.Compactor.request (Engine.repo s.engine) ~targets then
      Metrics.incr "serve.compactions_triggered"
  | _ -> ()

let tick ?now (s : state) : Watch.status * Alert.transition list =
  let st =
    match s.watch with
    | Some w -> Watch.tick w ?now ~heat:(heat s.engine) ()
    | None -> Watch.status None
  in
  let transitions = Alert.evaluate s.alert ?now (watch_signals s st) in
  maybe_auto_compact s transitions;
  publish_window_metrics s.window;
  (st, transitions)

let watch_tick ?now (t : t) = tick ?now t.s

(* The default rule set: drift vs the declared mix (threshold from
   --drift-alert), SLO-window error rate, budget-408 rate, and the two
   hit rates. Sustain/resolve counts are in watchdog windows. *)
let default_rules (drift_threshold : float) : Alert.rule list =
  [
    { Alert.a_name = "drift_sustained"; a_signal = "drift"; a_op = Alert.Gt;
      a_threshold = drift_threshold; a_sustain = 3; a_resolve = 3 };
    { Alert.a_name = "error_rate_high"; a_signal = "error_rate"; a_op = Alert.Gt;
      a_threshold = 0.05; a_sustain = 3; a_resolve = 3 };
    { Alert.a_name = "budget_408_high"; a_signal = "budget_408_rate"; a_op = Alert.Gt;
      a_threshold = 0.05; a_sustain = 3; a_resolve = 3 };
    { Alert.a_name = "plan_cache_hit_low"; a_signal = "plan_cache_hit_rate"; a_op = Alert.Lt;
      a_threshold = 0.5; a_sustain = 5; a_resolve = 3 };
    { Alert.a_name = "buffer_pool_hit_low"; a_signal = "buffer_pool_hit_rate"; a_op = Alert.Lt;
      a_threshold = 0.5; a_sustain = 5; a_resolve = 3 };
  ]

(* --- readiness ------------------------------------------------------- *)

let healthz_json (s : state) (expo : Expo.t) : Json.t =
  let e = Expo.stats expo in
  let ws = Watch.status s.watch in
  let opt_num = function Some v -> Json.Num v | None -> Json.Null in
  Json.Obj
    [
      ("status", Json.Str "ok");
      ("uptime_s", Json.Num (Unix.gettimeofday () -. s.started));
      ("format", Json.Str s.config.format);
      ("workers", Json.Num (float_of_int e.Expo.e_workers));
      ("inflight", Json.Num (float_of_int e.Expo.e_inflight));
      ( "watchdog",
        Json.Obj
          [
            ("enabled", Json.Bool (s.watch <> None));
            ("ticks", Json.Num (float_of_int ws.Watch.w_ticks));
            ("last_tick_unix", opt_num ws.Watch.w_last_tick);
          ] );
    ]

let lookup_label = function
  | Plan_cache.Hit -> "hit"
  | Plan_cache.Miss -> "miss"
  | Plan_cache.Bypass -> "off"

let query (s : state) (expo : Expo.t) (text : string) : Expo.response =
  let text = String.trim text in
  if text = "" then Expo.respond 400 "text/plain; charset=utf-8" "empty query\n"
  else begin
    let t0 = Trace.now_us () in
    let answered ~error =
      Atomic.incr s.requests;
      window_observe s.window ~error ((Trace.now_us () -. t0) /. 1000.0)
    in
    match
      Metrics.time_ms "serve.query_ms" (fun () ->
          (* compile first (cache hit skips the parse entirely); parse
             errors surface here, before the query's ledger opens *)
          let plan, lookup = Engine.compile text in
          (match lookup with
          | Plan_cache.Hit -> Metrics.incr "serve.plan_cache.hit_queries"
          | Plan_cache.Miss -> Metrics.incr "serve.plan_cache.miss_queries"
          | Plan_cache.Bypass -> ());
          let admission =
            Json.Obj
              ([
                 ("inflight", Json.Num (float_of_int (Expo.stats expo).Expo.e_inflight));
                 ("plan_cache", Json.Str (lookup_label lookup));
               ]
              @ budget_json s.config.limits)
          in
          Engine.request s.engine
            { text; plan = Some plan; admission = Some admission; record = true;
              watch = s.watch; limits = s.config.limits })
    with
    | resp ->
      Metrics.incr "serve.queries";
      answered ~error:false;
      Expo.respond 200 "text/plain; charset=utf-8" (resp.Engine.out ^ "\n")
    | exception Ledger.Exceeded trip ->
      (* a budget trip is the server refusing to finish, not a malformed
         query: 408 with a structured body naming the tripped budget *)
      Metrics.incr "serve.query_errors";
      Metrics.incr ("serve.budget." ^ trip.Ledger.t_kind ^ "_trips");
      Atomic.incr s.trips;
      answered ~error:true;
      let body =
        Json.to_string
          (Json.Obj
             [
               ("error", Json.Str "budget_exceeded");
               ("budget", Json.Str trip.Ledger.t_kind);
               ("limit", Json.Num trip.Ledger.t_limit);
               ("observed", Json.Num trip.Ledger.t_observed);
             ])
        ^ "\n"
      in
      Expo.respond 408 "application/json; charset=utf-8" body
    | exception e ->
      Metrics.incr "serve.query_errors";
      answered ~error:true;
      let msg = Option.value (Engine.error_message e) ~default:(Printexc.to_string e) in
      Expo.respond 400 "text/plain; charset=utf-8" (msg ^ "\n")
  end

let run_query (t : t) (text : string) : Expo.response = query t.s t.expo text

let json_reply (j : Json.t) =
  Some (Expo.respond 200 "application/json; charset=utf-8" (Json.to_string j ^ "\n"))

(* The [extra] handler for [Expo.start]: query evaluation routes over
   the server's engine ([None] falls through to the built-in /metrics
   and /healthz). *)
let handler (s : state) (expo : Expo.t) : Expo.handler =
 fun req ->
  match (req.Expo.meth, req.Expo.path) with
  | "POST", "/query" -> Some (query s expo req.Expo.body)
  | "GET", "/query" -> (
    match List.assoc_opt "q" req.Expo.query with
    | Some q -> Some (query s expo q)
    | None ->
      Some (Expo.respond 400 "text/plain; charset=utf-8" "missing query parameter q\n"))
  | "GET", "/stats" ->
    publish_pool_metrics s expo;
    Some (Expo.respond 200 "application/json; charset=utf-8" (Metrics.dump_json ()))
  | "GET", "/heat" ->
    Some
      (Expo.respond 200 "application/json; charset=utf-8"
         (Json.to_string
            (Heat.snapshot_json (Storage.Repository.heat_rows (Engine.repo s.engine)))))
  | "GET", "/watch" -> json_reply (Watch.snapshot_json ~heat:(heat s.engine) s.watch)
  | "GET", "/compact" -> json_reply (Storage.Compactor.status_json (Engine.repo s.engine))
  | "GET", "/alerts" -> json_reply (Alert.snapshot_json s.alert)
  | "GET", "/healthz" ->
    (* readiness JSON; runs before the Expo builtin, keeping the
       plain-200 contract for existing probes *)
    json_reply (healthz_json s expo)
  | _ -> None

(* --- lifecycle -------------------------------------------------------- *)

(* The ticker calls [tick] every [period] seconds, sleeping in short
   slices so [stop] (the SIGTERM path) joins promptly rather than
   waiting out a whole window. *)
let ticker_loop (s : state) (stop : bool Atomic.t) (period : float) () =
  while not (Atomic.get stop) do
    let slept = ref 0.0 in
    while (not (Atomic.get stop)) && !slept < period do
      let d = Float.min 0.05 (period -. !slept) in
      Unix.sleepf d;
      slept := !slept +. d
    done;
    if not (Atomic.get stop) then ignore (tick s)
  done

let start (config : config) (engine : Engine.t) : t =
  let watch =
    if config.watch_window > 0.0 then
      Some (Watch.create ~window_seconds:config.watch_window ~baseline:config.baseline)
    else None
  in
  let rules = if watch = None then [] else default_rules config.drift_alert in
  let s =
    {
      engine;
      config;
      watch;
      alert = Alert.create ?log:config.alerts_log rules;
      window = window_create ();
      started = Unix.gettimeofday ();
      requests = Atomic.make 0;
      trips = Atomic.make 0;
      tick_lock = Mutex.create ();
      tick_prev = (0, 0, 0, 0, 0, 0);
    }
  in
  (* the first tick's deltas start here, not at process start *)
  s.tick_prev <- tick_readings s;
  let expo =
    Expo.start ~host:config.host ~port:config.port ~workers:config.workers
      ~max_inflight:config.max_inflight ~extra:(handler s) ~collect:(publish_pool_metrics s) ()
  in
  let ticker_stop = Atomic.make false in
  let ticker =
    Option.map
      (fun _ -> Domain.spawn (ticker_loop s ticker_stop (Float.max 0.05 config.watch_window)))
      watch
  in
  { s; expo; ticker; ticker_stop }

let port (t : t) = Expo.port t.expo

let stop_ticker (t : t) =
  Atomic.set t.ticker_stop true;
  Option.iter Domain.join t.ticker

let stop (t : t) =
  stop_ticker t;
  Expo.stop t.expo

let wait (t : t) =
  Expo.wait t.expo;
  stop_ticker t

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

   Queries run on whichever Expo domain handles the connection — the
   accept domain in the sequential configuration, a worker-pool domain
   when `--serve-workers` fans connections out — so everything in this
   module is written for concurrent callers: the SLO window takes a
   mutex, the plan cache is the mutex-guarded Plan_cache, and the
   query's ledger (checked against the per-query budgets) lives in
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

let window : wbucket array =
  Array.init window_buckets (fun _ ->
      { w_epoch = -1; w_count = 0; w_errors = 0; w_min = infinity; w_max = 0.0;
        w_hist = Array.make Metrics.bucket_count 0 })

let window_mutex = Mutex.create ()

let with_window f =
  Mutex.lock window_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock window_mutex) f

let window_observe ~(error : bool) (ms : float) : unit =
  with_window @@ fun () ->
  let now = int_of_float (Unix.gettimeofday ()) in
  let b = window.(now mod window_buckets) in
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

let window_reset () =
  with_window @@ fun () ->
  Array.iter
    (fun b ->
      b.w_epoch <- -1;
      b.w_count <- 0;
      b.w_errors <- 0;
      b.w_min <- infinity;
      b.w_max <- 0.0;
      Array.fill b.w_hist 0 (Array.length b.w_hist) 0)
    window

let window_stats () : window_stats =
  let now = int_of_float (Unix.gettimeofday ()) in
  let live = now - window_buckets + 1 in
  let hist = Array.make Metrics.bucket_count 0 in
  let count = ref 0 and errors = ref 0 in
  let mn = ref infinity and mx = ref 0.0 in
  (* fold under the lock; the percentile arithmetic below runs on the
     private copy *)
  with_window (fun () ->
      Array.iter
        (fun b ->
          if b.w_epoch >= live && b.w_count > 0 then begin
            count := !count + b.w_count;
            errors := !errors + b.w_errors;
            if b.w_min < !mn then mn := b.w_min;
            if b.w_max > !mx then mx := b.w_max;
            Array.iteri (fun i c -> hist.(i) <- hist.(i) + c) b.w_hist
          end)
        window);
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

let publish_window_metrics () =
  let w = window_stats () in
  Metrics.set_gauge "serve.window.requests" (float_of_int w.ws_requests);
  Metrics.set_gauge "serve.window.errors" (float_of_int w.ws_errors);
  Metrics.set_gauge "serve.window.error_rate" w.ws_error_rate;
  Metrics.set_gauge "serve.window.p50_ms" w.ws_p50_ms;
  Metrics.set_gauge "serve.window.p95_ms" w.ws_p95_ms;
  Metrics.set_gauge "serve.window.p99_ms" w.ws_p99_ms

(* Copy the storage-layer atomics into the metrics registry. They are
   counted once, in the atomics; the bufferpool.*, compactor.* and
   executor.join.* series exist only through this copy. *)
let publish_storage_metrics () : unit =
  let s = Storage.Buffer_pool.snapshot () in
  Metrics.set_counter "bufferpool.hits" s.Storage.Buffer_pool.s_hits;
  Metrics.set_counter "bufferpool.misses" s.Storage.Buffer_pool.s_misses;
  Metrics.set_counter "bufferpool.latch_waits" s.Storage.Buffer_pool.s_latch_waits;
  Metrics.set_counter "bufferpool.evictions" s.Storage.Buffer_pool.s_evictions;
  Metrics.set_counter "bufferpool.decoded_bytes" s.Storage.Buffer_pool.s_decoded_bytes;
  Metrics.set_counter "bufferpool.scan_inserts" s.Storage.Buffer_pool.s_scan_inserts;
  Metrics.set_counter "bufferpool.payload_bytes" s.Storage.Buffer_pool.s_payload_bytes;
  Metrics.set_counter "bufferpool.skipped_bytes" s.Storage.Buffer_pool.s_skipped_bytes;
  Metrics.set_counter "bufferpool.invalidations" s.Storage.Buffer_pool.s_invalidations;
  Metrics.set_gauge "bufferpool.resident_bytes"
    (float_of_int s.Storage.Buffer_pool.s_resident_bytes);
  Metrics.set_gauge "bufferpool.resident_blocks"
    (float_of_int s.Storage.Buffer_pool.s_resident_blocks);
  let k = Storage.Compactor.snapshot () in
  Metrics.set_counter "compactor.compactions" k.Storage.Compactor.k_compactions;
  Metrics.set_counter "compactor.blocks_rewritten" k.Storage.Compactor.k_blocks_rewritten;
  Metrics.set_counter "compactor.bytes_rewritten" k.Storage.Compactor.k_bytes_rewritten;
  Metrics.set_gauge "compactor.busy" (if Storage.Compactor.busy () then 1.0 else 0.0);
  let j = Executor.join_stats () in
  Metrics.set_counter "executor.join.block_joins" j.Executor.j_block_joins;
  Metrics.set_counter "executor.join.blocks_probed" j.Executor.j_blocks_probed;
  Metrics.set_counter "executor.join.blocks_skipped" j.Executor.j_blocks_skipped;
  Metrics.set_counter "executor.join.skipped_bytes" j.Executor.j_skipped_bytes

(* Sync every serve-side source into the registry so a /metrics scrape
   is fresh. *)
let publish_pool_metrics () : unit =
  publish_storage_metrics ();
  Heat.publish_metrics ();
  let e = Expo.stats () in
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
  publish_window_metrics ()

(* --- per-query budgets ------------------------------------------------ *)

(* The limits every query's ledger is checked against, as the
   admission object of its log record reports them. *)
let budget_json () : (string * Json.t) list =
  let wall_ms, decode_bytes = Ledger.limits () in
  (if wall_ms > 0.0 then [ ("wall_ms_budget", Json.Num wall_ms) ] else [])
  @
  if decode_bytes > 0 then [ ("decode_bytes_budget", Json.Num (float_of_int decode_bytes)) ]
  else []

(* --- watchdog tick: signals + alert evaluation ----------------------- *)

(* Per-tick rate signals are deltas of cumulative counters between
   consecutive ticks; this holds the previous readings (of
   [tick_readings]). Only the (single) ticker thread and tests touch
   it, but a mutex keeps a test-driven tick racing a live ticker
   harmless. *)
let tick_prev = ref (0, 0, 0, 0, 0, 0, 0)

let tick_mutex = Mutex.create ()

let tick_readings () =
  let pc = Plan_cache.snapshot () in
  let bp = Storage.Buffer_pool.snapshot () in
  ( Metrics.counter_value "serve.queries",
    Metrics.counter_value "serve.query_errors",
    Metrics.counter_value "serve.budget.wall_ms_trips"
    + Metrics.counter_value "serve.budget.decode_bytes_trips",
    pc.Plan_cache.s_hits,
    pc.Plan_cache.s_misses,
    bp.Storage.Buffer_pool.s_hits,
    bp.Storage.Buffer_pool.s_misses )

(* Re-anchor the per-tick deltas at the current counter values, so the
   first real tick doesn't see the whole pre-watchdog history as one
   window. Called by [start_watchdog] and test setup. *)
let watch_tick_reset () =
  Mutex.lock tick_mutex;
  tick_prev := tick_readings ();
  Mutex.unlock tick_mutex

(* This tick's named signal readings for the alert engine. A signal
   with no evidence this tick (no requests, no cache lookups, no
   computable drift) is omitted rather than reported as a fake zero —
   the engine leaves the rule's streaks untouched for missing
   signals. *)
let watch_signals (st : Watch.status) : (string * float) list =
  Mutex.lock tick_mutex;
  let ((q, e, tr, pch, pcm, bph, bpm) as now) = tick_readings () in
  let q0, e0, tr0, pch0, pcm0, bph0, bpm0 = !tick_prev in
  let d_requests = q - q0 + (e - e0) in
  let d_trips = tr - tr0 in
  let d_pc_hits = pch - pch0 in
  let d_pc_look = d_pc_hits + (pcm - pcm0) in
  let d_bp_hits = bph - bph0 in
  let d_bp_look = d_bp_hits + (bpm - bpm0) in
  tick_prev := now;
  Mutex.unlock tick_mutex;
  let ratio num den = float_of_int num /. float_of_int den in
  (match st.Watch.w_drift with Some d -> [ ("drift", d) ] | None -> [])
  @ (match st.Watch.w_drift_ewma with Some d -> [ ("drift_ewma", d) ] | None -> [])
  @ (if d_requests > 0 then
       [
         ("error_rate", (window_stats ()).ws_error_rate);
         ("budget_408_rate", ratio d_trips d_requests);
       ]
     else [])
  @ (if d_pc_look > 0 then [ ("plan_cache_hit_rate", ratio d_pc_hits d_pc_look) ] else [])
  @ if d_bp_look > 0 then [ ("buffer_pool_hit_rate", ratio d_bp_hits d_bp_look) ] else []

(* --- drift-triggered auto-compaction --------------------------------- *)

(* When serve registers its repository here, a [drift_sustained] firing
   closes the loop: the live rolling fingerprint (joined with container
   heat) is turned into block-size advice by [Profile.recommend], the
   advice into concrete (id, size) targets by [Compactor.plan], and the
   targets handed to [Compactor.request], which runs the pass on the
   watchdog domain — queries keep flowing through the copy-on-write
   swap. [--no-auto-compact] simply never registers the repository. *)
let auto_compact_repo : Storage.Repository.t option ref = ref None

let set_auto_compact (repo : Storage.Repository.t option) : unit =
  auto_compact_repo := repo

let maybe_auto_compact (transitions : Alert.transition list) : unit =
  match !auto_compact_repo with
  | None -> ()
  | Some repo ->
    let fired =
      List.exists
        (fun (t : Alert.transition) ->
          t.Alert.t_rule = "drift_sustained" && t.Alert.t_event = "fired")
        transitions
    in
    if fired then begin
      let advice =
        Profile.recommend ~heat:(Heat.snapshot_json ()) (Watch.fingerprint ())
        |> List.filter_map (fun (r : Profile.recommendation) ->
               if r.Profile.r_action = "keep" then None
               else Some (r.Profile.r_container, r.Profile.r_factor))
      in
      match Storage.Compactor.plan repo advice with
      | [] -> ()
      | targets ->
        if Storage.Compactor.request repo ~targets then
          Metrics.incr "serve.compactions_triggered"
    end

let watch_tick ?now () : Watch.status * Alert.transition list =
  let st = Watch.tick ?now () in
  let transitions = Alert.evaluate ?now (watch_signals st) in
  maybe_auto_compact transitions;
  publish_window_metrics ();
  (st, transitions)

(* The default rule set: drift vs the declared mix (threshold from
   --drift-alert), SLO-window error rate, budget-408 rate, and the two
   hit rates. Sustain/resolve counts are in watchdog windows. *)
let default_rules ?(drift_threshold = 0.3) () : Alert.rule list =
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

(* --- watchdog ticker domain ------------------------------------------ *)

let watchdog_stop = Atomic.make false
let watchdog_domain : unit Domain.t option ref = ref None

(* One background domain calling [watch_tick] every [period] seconds.
   Sleeps in short slices so [stop_watchdog] (the SIGTERM path) joins
   promptly rather than waiting out a whole window. *)
let start_watchdog ~(period : float) () : unit =
  if !watchdog_domain = None then begin
    let period = Float.max 0.05 period in
    Atomic.set watchdog_stop false;
    watch_tick_reset ();
    watchdog_domain :=
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get watchdog_stop) do
               let slept = ref 0.0 in
               while (not (Atomic.get watchdog_stop)) && !slept < period do
                 let s = Float.min 0.05 (period -. !slept) in
                 Unix.sleepf s;
                 slept := !slept +. s
               done;
               if not (Atomic.get watchdog_stop) then ignore (watch_tick ())
             done))
  end

let stop_watchdog () : unit =
  Atomic.set watchdog_stop true;
  (match !watchdog_domain with Some d -> Domain.join d | None -> ());
  watchdog_domain := None

(* --- readiness ------------------------------------------------------- *)

(* Static facts for /healthz, set once at server startup. *)
let server_format = ref "unknown"
let server_started = ref 0.0

let set_server_info ?(format : string option) () : unit =
  (match format with Some f -> server_format := f | None -> ());
  server_started := Unix.gettimeofday ()

let healthz_json () : Json.t =
  let e = Expo.stats () in
  let ws = Watch.status () in
  let uptime = if !server_started > 0.0 then Unix.gettimeofday () -. !server_started else 0.0 in
  let opt_num = function Some v -> Json.Num v | None -> Json.Null in
  Json.Obj
    [
      ("status", Json.Str "ok");
      ("uptime_s", Json.Num uptime);
      ("format", Json.Str !server_format);
      ("workers", Json.Num (float_of_int e.Expo.e_workers));
      ("inflight", Json.Num (float_of_int e.Expo.e_inflight));
      ( "watchdog",
        Json.Obj
          [
            ("enabled", Json.Bool ws.Watch.w_enabled);
            ("ticks", Json.Num (float_of_int ws.Watch.w_ticks));
            ("last_tick_unix", opt_num ws.Watch.w_last_tick);
          ] );
    ]

let lookup_label = function
  | Plan_cache.Hit -> "hit"
  | Plan_cache.Miss -> "miss"
  | Plan_cache.Bypass -> "off"

let run_query (engine : Engine.t) (text : string) : Expo.response =
  let text = String.trim text in
  if text = "" then Expo.respond 400 "text/plain; charset=utf-8" "empty query\n"
  else begin
    let t0 = Trace.now_us () in
    let elapsed_ms () = (Trace.now_us () -. t0) /. 1000.0 in
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
                 ( "inflight",
                   Json.Num (float_of_int (Expo.stats ()).Expo.e_inflight) );
                 ("plan_cache", Json.Str (lookup_label lookup));
               ]
              @ budget_json ())
          in
          Engine.query_serialized_logged ~admission ~plan engine text)
    with
    | out, _prof ->
      Metrics.incr "serve.queries";
      window_observe ~error:false (elapsed_ms ());
      Expo.respond 200 "text/plain; charset=utf-8" (out ^ "\n")
    | exception Ledger.Exceeded trip ->
      (* a budget trip is the server refusing to finish, not a malformed
         query: 408 with a structured body naming the tripped budget *)
      Metrics.incr "serve.query_errors";
      Metrics.incr ("serve.budget." ^ trip.Ledger.t_kind ^ "_trips");
      window_observe ~error:true (elapsed_ms ());
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
      window_observe ~error:true (elapsed_ms ());
      let msg =
        match e with
        | Xquery.Parser.Syntax_error (msg, pos) -> Xquery.Parser.error_message msg pos
        | e -> Printexc.to_string e
      in
      Expo.respond 400 "text/plain; charset=utf-8" (msg ^ "\n")
  end

(** The [extra] handler for {!Xquec_obs.Expo.start}: query evaluation
    routes over [engine] ([None] falls through to the built-in
    /metrics and /healthz). *)
let handler (engine : Engine.t) : Expo.handler =
 fun req ->
  match (req.Expo.meth, req.Expo.path) with
  | "POST", "/query" -> Some (run_query engine req.Expo.body)
  | "GET", "/query" -> (
    match List.assoc_opt "q" req.Expo.query with
    | Some q -> Some (run_query engine q)
    | None ->
      Some (Expo.respond 400 "text/plain; charset=utf-8" "missing query parameter q\n"))
  | "GET", "/stats" ->
    publish_pool_metrics ();
    Some (Expo.respond 200 "application/json; charset=utf-8" (Metrics.dump_json ()))
  | "GET", "/heat" ->
    Some
      (Expo.respond 200 "application/json; charset=utf-8"
         (Json.to_string (Heat.snapshot_json ())))
  | "GET", "/watch" ->
    Some
      (Expo.respond 200 "application/json; charset=utf-8"
         (Json.to_string (Watch.snapshot_json ()) ^ "\n"))
  | "GET", "/compact" ->
    Some
      (Expo.respond 200 "application/json; charset=utf-8"
         (Json.to_string (Storage.Compactor.status_json ()) ^ "\n"))
  | "GET", "/alerts" ->
    Some
      (Expo.respond 200 "application/json; charset=utf-8"
         (Json.to_string (Alert.snapshot_json ()) ^ "\n"))
  | "GET", "/healthz" ->
    (* readiness JSON; runs before the Expo builtin, keeping the
       plain-200 contract for existing probes *)
    Some
      (Expo.respond 200 "application/json; charset=utf-8"
         (Json.to_string (healthz_json ()) ^ "\n"))
  | _ -> None

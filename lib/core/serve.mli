(** The [xquec serve] request handler: query evaluation over one loaded
    repository, mounted as the [extra] routes of an
    {!Xquec_obs.Expo} server (which contributes [/metrics] and
    [/healthz]).

    Routes: [POST /query] (body = XQuery text), [GET /query?q=...]
    (percent-encoded query), [GET /stats] (metrics registry as JSON),
    [GET /heat] (container heat snapshot as JSON, see
    {!Xquec_obs.Heat.snapshot_json}), [GET /watch] (live watchdog
    snapshot, {!Xquec_obs.Watch.snapshot_json}), [GET /alerts] (alert
    rules + active set + recent transitions,
    {!Xquec_obs.Alert.snapshot_json}), [GET /compact] (background
    compactor status, {!Storage.Compactor.status_json}) and [GET
    /healthz] (readiness
    JSON from {!healthz_json}, intercepting the Expo builtin while
    keeping its plain-200 contract). Successful queries return the
    serialized result as [text/plain]; parse or evaluation errors
    return 400 with the exception text; a query tripping a per-query
    budget (see {!Xquec_obs.Ledger.set_limits}) returns 408 with a
    structured JSON body. Each query compiles through the {!Plan_cache}, bumps the
    ["serve.queries"] counter, records ["serve.query_ms"], feeds the
    rolling SLO window, and appends a query-log record (with an
    ["admission"] field) when a log file is configured.

    Every entry point here is safe for concurrent callers — requests
    may be handled by several Expo worker domains at once (see
    docs/CONCURRENCY.md and docs/SERVING.md). *)

(** Rolling-window serving aggregates: request and error counts over
    the live window, the error rate, and interpolated latency
    percentiles in milliseconds. Zero-valued when the window is empty
    ([ws_requests = 0]). *)
type window_stats = {
  ws_requests : int;
  ws_errors : int;
  ws_error_rate : float;
  ws_p50_ms : float;
  ws_p95_ms : float;
  ws_p99_ms : float;
}

(** Record one request into the rolling window ([ms] wall latency).
    Called by the handler for every [/query]; exposed so tests can
    drive the window directly. Thread-safe: the ring is mutex-guarded,
    so concurrent worker domains may observe simultaneously. *)
val window_observe : error:bool -> float -> unit

(** Aggregates over the last 60 seconds of requests (p50/p95/p99 use
    the same bucket-interpolation estimator as
    {!Xquec_obs.Metrics.histogram_percentile}). *)
val window_stats : unit -> window_stats

(** Empty the rolling window (test isolation). *)
val window_reset : unit -> unit

(** Push the current {!window_stats} into the metrics registry as
    ["serve.window.requests"], ["serve.window.errors"],
    ["serve.window.error_rate"] and ["serve.window.p50_ms"] /
    [".p95_ms"] / [".p99_ms"] gauges. Part of
    {!publish_pool_metrics}. *)
val publish_window_metrics : unit -> unit

(** Copy the cumulative buffer-pool ({!Storage.Buffer_pool.snapshot}
    as ["bufferpool.*"]), compactor (["compactor.*"]) and block-join
    ({!Executor.join_stats} as ["executor.join.*"]) counters into the
    metrics registry. Those series are counted only in their atomics;
    this copy is the registry's sole source for them. [xquec ... --stats]
    runs it before dumping the registry. *)
val publish_storage_metrics : unit -> unit

(** Sync the storage ({!publish_storage_metrics}), heat, admission
    ({!Xquec_obs.Expo.stats} as ["serve.admission.*"]), plan-cache
    ({!Plan_cache.snapshot} as ["serve.plan_cache.*"]) and
    rolling-window counters into the metrics registry — the [collect]
    callback to pass to {!Xquec_obs.Expo.start} so every scrape is
    fresh. *)
val publish_pool_metrics : unit -> unit

(** {2 Watchdog ticks and alerting}

    The streaming watchdog ({!Xquec_obs.Watch}) is fed per query by
    the engine; once per window the serve layer closes the window,
    assembles this tick's signal readings and runs the alert rules
    ({!Xquec_obs.Alert}). *)

(** Register the repository that a sustained drift alert may
    auto-compact ([None] disables the loop — the [--no-auto-compact]
    path). When set, a [drift_sustained] "fired" transition inside
    {!watch_tick} turns the live fingerprint + heat into
    {!Xquec_obs.Profile.recommend} advice, plans concrete targets via
    {!Storage.Compactor.plan} and runs {!Storage.Compactor.request} on
    the calling (watchdog) domain, bumping
    ["serve.compactions_triggered"] when a pass actually runs. *)
val set_auto_compact : Storage.Repository.t option -> unit

(** Close one watchdog window: {!Xquec_obs.Watch.tick}, evaluate the
    alert rules against this tick's signals — [drift] / [drift_ewma]
    (when computable), [error_rate] and [budget_408_rate] (when the
    tick saw requests), [plan_cache_hit_rate] / [buffer_pool_hit_rate]
    (when the tick saw lookups; rates are per-tick counter deltas) —
    run the drift-triggered auto-compaction hook (see
    {!set_auto_compact}) and refresh the SLO-window gauges. Returns
    the watchdog reading and any alert transitions. [?now] for
    deterministic tests. *)
val watch_tick : ?now:float -> unit -> Xquec_obs.Watch.status * Xquec_obs.Alert.transition list

(** Re-anchor the per-tick counter deltas at the current values so the
    next {!watch_tick} doesn't see pre-watchdog history as one window.
    {!start_watchdog} calls it; exposed for tests. *)
val watch_tick_reset : unit -> unit

(** The default alert rule set: [drift_sustained] (drift >
    [drift_threshold], default 0.3, from [--drift-alert]),
    [error_rate_high] (> 5 %), [budget_408_high] (> 5 %),
    [plan_cache_hit_low] and [buffer_pool_hit_low] (< 50 %).
    Sustain/resolve counts are in watchdog windows. *)
val default_rules : ?drift_threshold:float -> unit -> Xquec_obs.Alert.rule list

(** Spawn the background ticker domain calling {!watch_tick} every
    [period] seconds (clamped to ≥ 0.05; sleeps in short slices so
    {!stop_watchdog} returns promptly). No-op when already running. *)
val start_watchdog : period:float -> unit -> unit

(** Stop and join the ticker domain (the SIGTERM path); no-op when not
    running. *)
val stop_watchdog : unit -> unit

(** Record the repository format string shown by [/healthz] and stamp
    the server start time (uptime baseline). *)
val set_server_info : ?format:string -> unit -> unit

(** Evaluate one query exactly as the [/query] route does (trim,
    compile through the plan cache, arm budgets, log, observe the SLO
    window) and produce the HTTP response. Exposed for tests. *)
val run_query : Engine.t -> string -> Xquec_obs.Expo.response

(** Request handler over the given engine, to pass as
    {!Xquec_obs.Expo.start}'s [extra]. *)
val handler : Engine.t -> Xquec_obs.Expo.handler

(** The [xquec serve] server: query evaluation over one loaded
    repository, mounted as the [extra] routes of an
    {!Xquec_obs.Expo} server (which contributes [/metrics] and
    [/healthz]).

    Routes: [POST /query] (body = XQuery text), [GET /query?q=...]
    (percent-encoded query), [GET /stats] (metrics registry as JSON),
    [GET /heat] (the served repository's container heat as JSON, see
    {!Xquec_obs.Heat.snapshot_json}), [GET /watch] (the server's
    watchdog, {!Xquec_obs.Watch.snapshot_json}), [GET /alerts] (its
    alert rules + active set + recent transitions,
    {!Xquec_obs.Alert.snapshot_json}), [GET /compact] (the served
    repository's compactor status, {!Storage.Compactor.status_json})
    and [GET /healthz] (readiness JSON: status, uptime, format, this
    server's workers and in-flight count, watchdog ticks — intercepting
    the Expo builtin while keeping its plain-200 contract). Successful
    queries return the serialized result as [text/plain]; parse or
    evaluation errors return 400 with the exception text; a query
    tripping one of the server's per-query budgets returns 408 with a
    structured JSON body. Each query compiles through the
    {!Plan_cache}, bumps the ["serve.queries"] counter, records
    ["serve.query_ms"], feeds the server's rolling SLO window (published
    as the ["serve.window.*"] gauges), and appends a query-log record
    (with an ["admission"] field) when a log file is configured.

    A server owns everything it keeps: its watchdog, alert engine, SLO
    window, request counts, ticker domain and HTTP front with its
    admission counters. Two servers in one process share only the
    process-wide metrics registry, buffer pool and plan cache. Every
    entry point here is safe for concurrent callers — requests may be
    handled by several Expo worker domains at once (see
    docs/CONCURRENCY.md and docs/SERVING.md). *)

(** What [xquec serve]'s flags configure. *)
type config = {
  host : string;  (** address to bind *)
  port : int;  (** 0 picks a free port, see {!port} *)
  workers : int;  (** connection-handling worker domains; 0 = sequential *)
  max_inflight : int;  (** admission gate; 0 = unlimited *)
  limits : Xquec_obs.Ledger.limits;  (** every query's budgets *)
  watch_window : float;
      (** watchdog window in seconds; not positive = no watchdog, no
          alert rules, no ticker *)
  drift_alert : float;  (** the [drift_sustained] threshold *)
  alerts_log : string option;  (** JSONL file of alert transitions *)
  baseline : Xquec_obs.Profile.fingerprint option;
      (** the declared mix drift is scored against *)
  auto_compact : bool;
      (** on a [drift_sustained] firing, turn the live fingerprint and
          the repository's heat into targets with
          {!Engine.block_targets} (the rule [xquec compress
          --adaptive-blocks] applies) and run
          {!Storage.Compactor.request} on the ticker domain, bumping
          ["serve.compactions_triggered"] when a pass runs *)
  format : string;  (** the repository format [/healthz] reports *)
}

(** A running server. *)
type t

(** Bind and serve [engine] under [config]: build the server's
    watchdog (a {!Xquec_obs.Watch.t} scoring drift against
    [config.baseline], unless [watch_window] is not positive), its
    alert engine with the default rules ([drift_sustained] (drift >
    [drift_alert]), [error_rate_high] (> 5 %), [budget_408_high]
    (> 5 %), [plan_cache_hit_low] and [buffer_pool_hit_low] (< 50 %);
    none without a watchdog; sustain/resolve counts are in watchdog
    windows), start the HTTP front ({!Xquec_obs.Expo.start}) and, with
    a watchdog, the ticker domain calling {!watch_tick} every
    [watch_window] seconds (at least 0.05). Raises [Unix.Unix_error]
    if the bind fails. *)
val start : config -> Engine.t -> t

(** The bound port (useful after [port = 0]). *)
val port : t -> int

(** Stop and join the ticker, then stop the HTTP front (in-flight
    requests finish). *)
val stop : t -> unit

(** Block until the HTTP front stops, then stop the ticker (the
    [xquec serve] foreground path). *)
val wait : t -> unit

(** Close one watchdog window: {!Xquec_obs.Watch.tick} (joined with
    the served repository's heat), evaluate the alert rules against
    this tick's signals — [drift] / [drift_ewma] (when computable),
    [error_rate] and [budget_408_rate] (when the server answered
    requests since the last tick; rates are deltas of its own counts),
    [plan_cache_hit_rate] / [buffer_pool_hit_rate] (when the tick saw
    lookups) — run the drift-triggered auto-compaction hook and
    refresh the SLO-window gauges. Returns the watchdog reading
    (zero ticks without a watchdog) and any alert transitions. The
    ticker calls it; [?now] is for deterministic tests. *)
val watch_tick : ?now:float -> t -> Xquec_obs.Watch.status * Xquec_obs.Alert.transition list

(** Copy the cumulative buffer-pool ({!Storage.Buffer_pool.snapshot}
    as ["bufferpool.*"]), the repository's compactor
    ({!Storage.Compactor.snapshot} as ["compactor.*"]) and block-join
    ({!Executor.join_stats} as ["executor.join.*"]) counters into the
    metrics registry. The pool and join figures are counted once, in
    the query ledgers ({!Xquec_obs.Ledger}), and read from their
    process totals; this copy is the registry's sole source for them.
    [xquec ... --stats] runs it before dumping the registry; a server
    runs it, with its heat, admission, plan-cache and SLO-window
    gauges, before every [/metrics] and [/stats] reply. *)
val publish_storage_metrics : Storage.Repository.t -> unit

(** Evaluate one query exactly as the server's [/query] route does
    (trim, compile through the plan cache, apply the budgets, log,
    observe the watchdog and the SLO window) and produce the HTTP
    response, without a socket: the bench and the tests drive servers
    through it. *)
val run_query : t -> string -> Xquec_obs.Expo.response

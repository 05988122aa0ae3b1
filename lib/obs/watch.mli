(** Streaming workload watchdog: rolling windowed fingerprints inside
    the serving process.

    A watchdog is a value its server owns ([Serve.start] creates one
    unless [--watch-window 0]): a ring of 6 fixed-duration buckets,
    each a {!Profile.agg}, fed per query by the engine's
    observation fan-in ({!observe} receives exactly the predicate
    observations and container touches the JSONL query log would
    record — no log re-parsing on the hot path). The rolling
    fingerprint is the merge of the live buckets; when a baseline is
    declared (from [Engine.declared_fingerprint], which observes the
    declared queries through the same {!Profile.agg}), every {!tick}
    scores total-variation drift against it, maintains an
    EWMA-smoothed drift series (factor 0.3), republishes
    {!Profile.recommend} block-size advice joined with the
    {!Heat.stat} readings its caller passes, and updates the [watch.*]
    gauges ([xquec_watch_drift], [xquec_watch_drift_ewma],
    [xquec_watch_window_records], ...).

    Because both this module and the offline [xquec profile] aggregate
    through {!Profile.agg}, a query stream observed live and the query
    log it wrote fingerprint identically (test-enforced).

    Thread-safe: each watchdog takes its own leaf mutex. The [?now]
    parameters exist for deterministic tests; production callers omit
    them. *)

(** One reading of a watchdog, as published on each {!tick}.
    [w_records] is the rolling window's query count (0 from
    {!status}, which does not aggregate). Drift fields are [None]
    until a baseline is declared and the window has observations. *)
type status = {
  w_ticks : int;  (** ticks since creation *)
  w_last_tick : float option;  (** unix time of the last tick *)
  w_records : int;  (** queries in the rolling window *)
  w_drift : float option;  (** drift vs baseline at the last tick *)
  w_drift_ewma : float option;  (** EWMA-smoothed drift series *)
}

(** A watchdog. *)
type t

(** A watchdog with [window_seconds]-long buckets (> 0, else
    [Invalid_argument]) scoring drift against [baseline] ([None] =
    fingerprint-only mode: no drift, no drift alerts). *)
val create : window_seconds:float -> baseline:Profile.fingerprint option -> t

(** Fold one query's observations into the current window bucket: the
    executor's predicate observations plus the [(container path,
    decoded bytes)] touches — the same values the query log records. *)
val observe :
  t -> ?now:float -> predicates:Ledger.obs list -> containers:(string * int) list -> unit -> unit

(** The rolling fingerprint over the live buckets at [now]. *)
val fingerprint : t -> ?now:float -> unit -> Profile.fingerprint

(** Close out the current window: rescore drift vs the baseline (only
    when the window has observations — an empty window leaves the
    drift and EWMA untouched, so an idle server never looks drifted),
    update the EWMA, publish the [watch.*] metrics and the live
    block-size recommendation counts (joined with [heat], the served
    repository's {!Heat.snapshot}), and return the fresh reading.
    Called once per window by the serve ticker; callable any time. *)
val tick : t -> ?now:float -> heat:Heat.stat list -> unit -> status

(** Current reading without aggregating ([w_records] is 0); a server
    without a watchdog ([None]) reads zero ticks and no drift. *)
val status : t option -> status

(** The [GET /watch] payload: ["enabled"] (whether there is a
    watchdog), window length and ring size, status, drift vs the
    baseline, and the current rolling fingerprint as
    {!Profile.fingerprint_fields} (weights, per-container stats,
    recommendations joined with [heat] as in {!tick}) — the encoder
    [xquec profile --json] uses. [None] gives the same fields for a
    server without a watchdog: window 0, no ticks, an empty
    fingerprint. *)
val snapshot_json : ?now:float -> heat:Heat.stat list -> t option -> Json.t

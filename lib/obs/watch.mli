(** Streaming workload watchdog: rolling windowed fingerprints inside
    the serving process.

    A ring of [windows] fixed-duration buckets, each a
    {!Profile.agg}, is fed per query by the engine's observation
    fan-in ({!observe} receives exactly the predicate observations and
    container touches the JSONL query log would record — no log
    re-parsing on the hot path). The rolling fingerprint is the merge
    of the live buckets; when a baseline is declared ({!set_baseline},
    from [Engine.declared_fingerprint], which observes the declared
    queries through the same {!Profile.agg}), every {!tick}
    scores total-variation drift against it, maintains an EWMA-smoothed
    drift series, republishes {!Profile.recommend} block-size advice
    joined with the {!Heat.stat} readings its caller passes, and updates the [watch.*]
    gauges ([xquec_watch_drift], [xquec_watch_drift_ewma],
    [xquec_watch_window_records], ...).

    Because both this module and the offline [xquec profile] aggregate
    through {!Profile.agg}, a query stream observed live and the query
    log it wrote fingerprint identically (test-enforced).

    Thread-safe: the disabled path is one atomic load; everything else
    takes the module's leaf mutex. The [?now] parameters exist for
    deterministic tests; production callers omit them. *)

(** One reading of the watchdog, as published on each {!tick}.
    [w_records] is the rolling window's query count (0 from
    {!status}, which does not aggregate). Drift fields are [None]
    until a baseline is declared and the window has observations. *)
type status = {
  w_enabled : bool;
  w_window_s : float;  (** bucket duration, seconds *)
  w_windows : int;  (** ring size *)
  w_ticks : int;  (** ticks since start/reset *)
  w_last_tick : float option;  (** unix time of the last tick *)
  w_records : int;  (** queries in the rolling window *)
  w_drift : float option;  (** drift vs baseline at the last tick *)
  w_drift_ewma : float option;  (** EWMA-smoothed drift series *)
}

(** Whether the watchdog is collecting ([observe] is a no-op when
    off). Default off; [xquec serve] turns it on. *)
val enabled : unit -> bool

(** Turn collection on or off. *)
val set_enabled : bool -> unit

(** Set bucket duration ([window_seconds], > 0), ring size
    ([windows], > 0) and the EWMA smoothing factor ([alpha] in
    (0, 1]). Replaces the ring (collected observations drop). Invalid
    values leave the previous setting. *)
val configure : ?window_seconds:float -> ?windows:int -> ?alpha:float -> unit -> unit

(** Declare the mix to score drift against ([None] =
    fingerprint-only mode: no drift, no drift alerts). *)
val set_baseline : Profile.fingerprint option -> unit

(** Drop every bucket, the EWMA state and the tick counters (test
    isolation); keeps configuration, baseline and the enabled switch. *)
val reset : unit -> unit

(** Fold one query's observations into the current window bucket: the
    executor's predicate observations plus the [(container path,
    decoded bytes)] touches — the same values the query log records.
    No-op while disabled. *)
val observe :
  ?now:float -> predicates:Ledger.obs list -> containers:(string * int) list -> unit -> unit

(** The rolling fingerprint over the live buckets at [now]. *)
val fingerprint : ?now:float -> unit -> Profile.fingerprint

(** Close out the current window: rescore drift vs the baseline (only
    when the window has observations — an empty window leaves the
    drift and EWMA untouched, so an idle server never looks drifted),
    update the EWMA, publish the [watch.*] metrics and the live
    block-size recommendation counts (joined with [heat], the served
    repository's {!Heat.snapshot}), and return the fresh reading.
    Called once per window by the serve ticker; callable any time. *)
val tick : ?now:float -> heat:Heat.stat list -> unit -> status

(** Current reading without aggregating ([w_records] is 0). *)
val status : unit -> status

(** The [GET /watch] payload: status, drift vs the baseline, and the
    current rolling fingerprint as {!Profile.fingerprint_fields}
    (weights, per-container stats, recommendations joined with [heat]
    as in {!tick}) — the encoder [xquec profile --json] uses. *)
val snapshot_json : ?now:float -> heat:Heat.stat list -> unit -> Json.t

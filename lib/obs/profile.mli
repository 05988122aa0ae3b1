(** Workload fingerprinting over the JSONL query log.

    Aggregates the per-query [predicates] / [containers] tags the
    engine writes (see [docs/OBSERVABILITY.md]) into a {!fingerprint}:
    a normalized weight distribution over (container, predicate-kind)
    pairs plus per-container selectivity and decode totals. Two
    fingerprints — observed vs observed, or observed vs the build-time
    [Workload] via [Workload.fingerprint] — compare with {!drift}, and
    {!recommend} turns a fingerprint (optionally joined with a
    [Heat.snapshot_json] snapshot) into per-container block-size
    advice: exactly the inputs online re-partitioning and background
    compaction need.

    Predicate kinds are the strings ["eq"], ["range"], ["wild"],
    ["exists"] and ["join"] — the executor's observation vocabulary,
    chosen so the build-time workload classes ([Cls_eq], [Cls_ineq],
    [Cls_wild]) map onto the same axes. A log whose queries pushed no
    predicates at all falls back to ["touch"] events over the
    containers each query decoded, so a fingerprint is never empty for
    a log that did real work. *)

(** Per-container aggregate over one log. *)
type cstat = {
  c_container : string;  (** container path *)
  c_eq : int;  (** equality predicates pushed to it *)
  c_range : int;  (** range / inequality predicates *)
  c_wild : int;  (** contains / starts-with predicates *)
  c_exists : int;  (** existence tests *)
  c_join : int;  (** join sides keyed on it *)
  c_candidates : int;  (** records considered by those predicates *)
  c_matches : int;  (** records that matched *)
  c_queries : int;  (** log records that touched the container *)
  c_decoded_bytes : int;  (** payload bytes decoded for it (from heat tags) *)
}

(** A workload fingerprint: [weights] is a normalized (sums to 1.0
    when non-empty) distribution over (container, kind) pairs, sorted
    by key; [records] the number of log records aggregated;
    [containers] the per-container aggregates, sorted by path. *)
type fingerprint = {
  records : int;  (** log records aggregated *)
  weights : ((string * string) * float) list;  (** (container, kind) → share *)
  containers : cstat list;  (** per-container aggregates *)
}

(** Observed selectivity of the pushed predicates on a container:
    [matches / candidates], or [None] when nothing was pushed. *)
val selectivity : cstat -> float option

(** Parse a JSONL query log: one JSON object per non-empty line.
    Unparsable lines are skipped (a live log may have a torn tail).
    Raises [Sys_error] when the file cannot be read. *)
val load_jsonl : string -> Json.t list

(** {2 Incremental aggregation}

    The one implementation of fingerprint semantics: {!of_records}
    (the offline [xquec profile] path) and the streaming {!Watch}
    watchdog both feed queries through an {!agg}, so the two ways of
    observing a workload cannot drift apart. *)

(** One container-resolved predicate observation of a single query —
    the same vocabulary the executor emits and the query log records
    under ["predicates"]. *)
type obs = {
  ob_container : string;  (** container path *)
  ob_kind : string;  (** ["eq"], ["range"], ["wild"], ["exists"] or ["join"] *)
  ob_candidates : int;  (** records the predicate considered *)
  ob_matches : int;  (** records that matched *)
}

(** A mutable fingerprint accumulator. Not thread-safe: callers that
    share one (the watchdog) serialize access themselves. *)
type agg

(** A fresh, empty accumulator. *)
val agg_create : unit -> agg

(** Fold one query into the accumulator: its predicate observations
    plus the [(container path, decoded bytes)] pairs of the containers
    it touched (the query log's ["containers"] tags). *)
val agg_add : agg -> predicates:obs list -> containers:(string * int) list -> unit

(** Fold [src] into [into] ([src] is left untouched) — how the
    watchdog combines its ring of window buckets into one rolling
    fingerprint. *)
val agg_merge : into:agg -> agg -> unit

(** Freeze the accumulator into a {!fingerprint} (normalized weights,
    containers sorted by path). The accumulator stays usable. *)
val agg_fingerprint : agg -> fingerprint

(** Aggregate parsed query-log records into a fingerprint. *)
val of_records : Json.t list -> fingerprint

(** Build a fingerprint straight from weighted (container, kind)
    events — the bridge for build-time [Workload] declarations, which
    have weights but no log records. Weights are normalized; events
    with non-positive weight are dropped. *)
val of_weighted_events : ((string * string) * float) list -> fingerprint

(** Drift score between two fingerprints: total variation distance
    [0.5 * Σ |w1(k) - w2(k)|] over the union of their weight keys.
    0 for identical mixes, 1 for disjoint ones; symmetric. *)
val drift : fingerprint -> fingerprint -> float

(** One piece of block-size advice for a container. *)
type recommendation = {
  r_container : string;  (** container path *)
  r_action : string;  (** ["shrink"], ["grow"] or ["keep"] *)
  r_factor : float;  (** suggested multiplier on the current block size *)
  r_reason : string;  (** one-line justification *)
}

(** Per-container block-size advice. Selective point access
    (selectivity < 5 %) that heat shows as random-dominated wants
    smaller blocks (finer header pruning, factor 0.25);
    sequential-scan-dominated access (≥ 90 % sequential touches) with
    little header pruning wants larger blocks (factor 4); everything
    else keeps its size. [heat] is a [Heat.snapshot_json] value; without
    it only the selectivity rule can fire. *)
val recommend : ?heat:Json.t -> fingerprint -> recommendation list

(** Parse the ["recommendations"] array of a {!report_json} value back
    into actionable [(container path, factor)] pairs, dropping ["keep"]
    actions, non-positive factors and malformed entries — the consumer
    side of the report, used by [xquec compress --blocks-from] and
    [xquec compact --profile] to turn a committed profile into
    block-size targets. *)
val recommendations_of_report : Json.t -> (string * float) list

(** One {!cstat} as the JSON object the reports embed
    ([{container,eq,range,wild,exists,join,candidates,matches,
    selectivity,queries,decoded_bytes}]) — shared with the watchdog's
    [/watch] payload. *)
val cstat_json : cstat -> Json.t

(** The full report as JSON — what [xquec profile --json] prints:
    [{records, weights:[{container,kind,weight}], containers:[...],
    recommendations:[...]}] plus [drift] vs [baseline] when given. *)
val report_json : ?baseline:fingerprint -> ?heat:Json.t -> fingerprint -> Json.t

(** The report as an aligned human-readable table (same content as
    {!report_json}). *)
val render : ?baseline:fingerprint -> ?heat:Json.t -> fingerprint -> string

(** Workload fingerprinting over the JSONL query log.

    Aggregates the per-query [predicates] / [containers] tags the
    engine writes (see [docs/OBSERVABILITY.md]) into a {!fingerprint}:
    a normalized weight distribution over (container, predicate-kind)
    pairs plus per-container selectivity and decode totals. Every
    fingerprint is observed: a query log, the watchdog's live window,
    or a declared workload run once ([Engine.declared_fingerprint]).
    Two of them compare with {!drift}, and {!recommend} turns a
    fingerprint, optionally joined with typed {!Heat.stat} readings,
    into per-container block-size advice. That advice, planned by
    [Compactor.plan], is the one block-size rule: [xquec compress
    --adaptive-blocks], [--blocks-from], [xquec compact --profile] and
    serve's auto-compaction all size blocks through it.

    Predicate kinds are the strings ["eq"], ["range"], ["wild"],
    ["exists"] and ["join"] — the executor's observation vocabulary
    ([Ledger.note_pred]). A log whose queries pushed no
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

(** A mutable fingerprint accumulator. Not thread-safe: callers that
    share one (the watchdog) serialize access themselves. *)
type agg

(** A fresh, empty accumulator. *)
val agg_create : unit -> agg

(** Fold one query into the accumulator: its predicate observations
    plus the [(container path, decoded bytes)] pairs of the containers
    it touched (the query log's ["containers"] tags). *)
val agg_add : agg -> predicates:Ledger.obs list -> containers:(string * int) list -> unit

(** Fold [src] into [into] ([src] is left untouched) — how the
    watchdog combines its ring of window buckets into one rolling
    fingerprint. *)
val agg_merge : into:agg -> agg -> unit

(** Freeze the accumulator into a {!fingerprint} (normalized weights,
    containers sorted by path). The accumulator stays usable. *)
val agg_fingerprint : agg -> fingerprint

(** Aggregate parsed query-log records into a fingerprint. *)
val of_records : Json.t list -> fingerprint

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
    else keeps its size. [heat] is joined by container label (a
    {!Heat.snapshot} reading, or {!Heat.of_json} of a saved [GET /heat]
    payload); without it only the selectivity rule can fire. *)
val recommend : ?heat:Heat.stat list -> fingerprint -> recommendation list

(** The [(container path, factor)] pairs [Compactor.plan] takes:
    every recommendation but ["keep"] actions and non-positive
    factors. *)
val actionable : recommendation list -> (string * float) list

(** Parse the ["recommendations"] array of a {!report_json} value back
    into {!actionable} pairs, dropping malformed entries — the
    consumer side of the report, used by [xquec compress --blocks-from]
    and [xquec compact --profile] to turn a committed profile into
    block-size targets. *)
val recommendations_of_report : Json.t -> (string * float) list

(** The JSON fields [xquec profile --json] and [GET /watch] share, in
    this order: ["weights"] ([[{container,kind,weight}]]),
    ["containers"] (one [{container,eq,range,wild,exists,join,
    candidates,matches,selectivity,queries,decoded_bytes}] per
    {!cstat}) and ["recommendations"] ([[{container,action,factor,
    reason}]], {!recommend} joined with [heat]). *)
val fingerprint_fields : ?heat:Heat.stat list -> fingerprint -> (string * Json.t) list

(** The full report as JSON — what [xquec profile --json] prints:
    [{records}], then [drift] vs [baseline] when given, then
    {!fingerprint_fields}. *)
val report_json : ?baseline:fingerprint -> ?heat:Heat.stat list -> fingerprint -> Json.t

(** The report as an aligned human-readable table (same content as
    {!report_json}). *)
val render : ?baseline:fingerprint -> ?heat:Heat.stat list -> fingerprint -> string

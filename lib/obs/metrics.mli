(** Process-wide metrics registry: counters, gauges, and log-scale
    histograms, keyed by dotted names (["loader.parse_ms"],
    ["codec.alm.encode_calls"], ["executor.step.rows_out"]).

    Writes are no-ops while the global telemetry switch is off;
    read/snapshot accessors work regardless so tests can inspect state
    after a run.

    Thread safety: the registry is shared by every domain that
    evaluates queries ([xquec serve]'s workers bump
    ["container.scans"] etc. concurrently), so one mutex
    guards every table access. It is a leaf lock — nothing
    else is called while holding it — making the lock ordering with
    the storage locks trivially acyclic. *)

(** Aggregates of one histogram. *)
type histogram_stats = { count : int; sum : float; min : float; max : float; mean : float }

(** {2 Histogram bucket layout (exposed for tests)} *)

(** Number of log-scale buckets per histogram. *)
val bucket_count : int

(** Bucket a value falls into: 0 for values at or below the lowest
    bound, doubling upper bounds after that, last bucket open-ended. *)
val bucket_index : float -> int

(** Inclusive upper bound of a bucket ([infinity] for the last). *)
val bucket_upper_bound : int -> float

(** Drop every counter, gauge and histogram. *)
val reset : unit -> unit

(** Add [by] (default 1) to a counter, creating it at first use. *)
val incr : ?by:int -> string -> unit

(** Set a gauge to the given value. *)
val set_gauge : string -> float -> unit

(** Set a counter to an absolute value — for collectors that sync an
    externally maintained cumulative counter (e.g. the buffer-pool
    atomics) into the registry before an export. *)
val set_counter : string -> int -> unit

(** Record one observation into a log-scale histogram (buckets double
    from 0.001 up; suits milliseconds and byte sizes alike). *)
val observe : string -> float -> unit

(** Time [f] and record its wall-clock milliseconds into histogram
    [name]. *)
val time_ms : string -> (unit -> 'a) -> 'a

(** Current counter value; 0 when never incremented. *)
val counter_value : string -> int

(** Current gauge value, if the gauge exists. *)
val gauge_value : string -> float option

(** Aggregates of a histogram, if it exists. *)
val histogram_stats : string -> histogram_stats option

(** Non-empty (upper bound, count) buckets of a histogram, ascending. *)
val histogram_buckets : string -> (float * int) list option

(** [histogram_percentile name p] estimates the [p]-quantile
    ([0. <= p <= 1.], e.g. 0.5 / 0.95 / 0.99) of a histogram by linear
    interpolation inside the log-scale bucket the rank falls in; edges
    are tightened with the recorded min/max, so the estimate is within
    one bucket (a factor of 2) of the true value. Edge sentinels:
    [None] if the histogram does not exist or is empty (never a fake
    zero); [p <= 0.] is the recorded minimum and [p >= 1.] the
    recorded maximum (out-of-range [p] clamps to those); a histogram
    whose observations all fell in one bucket interpolates between
    min and max directly, so bucket boundaries never surface. *)
val histogram_percentile : string -> float -> float option

(** The estimator behind {!histogram_percentile}, over any histogram
    laid out in this module's buckets: [count] observations between
    [min] and [max], [buckets.(i)] of them in bucket [i] (upper bound
    {!bucket_upper_bound}[ i]). [None] when [count = 0]; the same edge
    sentinels otherwise. Serve's rolling SLO window uses it too. *)
val percentile_of_buckets :
  count:int -> min:float -> max:float -> int array -> float -> float option

(** Whole registry as a JSON snapshot (names sorted). *)
val dump_json : unit -> string

(** Whole registry as aligned human-readable text (names sorted). *)
val dump_text : unit -> string

(** Whole registry in Prometheus text exposition format (v0.0.4):
    every name is prefixed ["xquec_"] and sanitized to
    [[a-zA-Z0-9_:]]; per-container metrics
    (["container.<path>.<leaf>"]) become
    [xquec_container_<leaf>{path="<path>"}] and alert gauges
    (["alert.<rule>.active"]) become
    [xquec_alert_active{rule="<rule>"}]; histograms are exposed as
    cumulative [_bucket{le=...}] series plus [_sum] and [_count]. *)
val to_prometheus : unit -> string

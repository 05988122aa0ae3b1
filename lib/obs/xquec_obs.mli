(** Xquec_obs: the telemetry substrate — span tracing, a metrics
    registry, and profiled-plan EXPLAIN — shared by the loader, the
    storage layer, the codecs, the executor and the CLI.

    Everything is off by default; {!set_enabled} (or the CLI's
    [--stats] / [--trace-out] / explain paths) turns the global sinks
    on. Disabled instrumentation costs one ref load + branch per
    site. *)

(** JSON values and (de)serialization. *)
module Json = Json

(** Span tracing with chrome-trace export (per-domain ring buffers). *)
module Trace = Trace

(** Thread-safe counters, gauges and histograms, with JSON and
    Prometheus exposition. *)
module Metrics = Metrics

(** Profiled physical plans (EXPLAIN ANALYZE). *)
module Explain = Explain

(** Structured JSONL query log sink. *)
module Query_log = Query_log

(** Minimal HTTP server exposing [/metrics] and [/healthz], with a
    worker-pool fan-out and accept-time admission control. *)
module Expo = Expo

(** Load-generation HTTP client (blocking single requests plus a
    select-multiplexed concurrent driver) for tests and the serving
    bench. *)
module Hammer = Hammer

(** Per-query cost ledger in the evaluating domain's DLS: what the
    query log, the watchdog and EXPLAIN read, and what serve's
    wall-clock / decoded-bytes limits are checked against. *)
module Ledger = Ledger

(** Benchmark regression gate: tolerance-aware BENCH_results.json
    comparison. *)
module Gate = Gate

(** Per-container / per-block access heat accounting (always-on
    atomics behind their own switch). *)
module Heat = Heat

(** Workload fingerprinting, drift scoring and block-size
    recommendations over the JSONL query log. *)
module Profile = Profile

(** Streaming workload watchdog: rolling windowed fingerprints fed by
    the executor's per-query observations, drift vs the declared
    build-time mix, live block-size recommendations. *)
module Watch = Watch

(** Threshold + sustain-for-K-windows alert rules over named signals,
    evaluated once per watchdog tick. *)
module Alert = Alert

(** Turn the global trace/metrics sinks on or off. *)
val set_enabled : bool -> unit

(** Current state of the global switch. *)
val is_enabled : unit -> bool

(** Enable collection, run [f], restore the previous state. *)
val with_enabled : (unit -> 'a) -> 'a

(** Clear every sink (metrics registry and trace ring buffer). *)
val reset : unit -> unit

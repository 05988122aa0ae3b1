(** Lightweight span tracer: {!with_span} brackets a computation with a
    clamped-monotonic clock, records completed spans into per-domain
    fixed-size ring buffers, and exports them all as chrome-trace JSON
    (load the file in chrome://tracing or https://ui.perfetto.dev,
    where every domain appears as its own thread track).

    Disabled (the default), {!with_span} is a single ref load + branch
    and a direct call — no allocation, no clock read.

    Thread safety: recording is lock-free and domain-local — every
    domain owns a private ring buffer (created on its first span and
    registered in a process-wide sink list), so any domain (an [Expo]
    worker, the watchdog) may open spans freely. The read and
    maintenance entry points ({!spans}, {!dropped}, {!to_chrome_json},
    {!clear}, {!set_capacity}) take the registry lock and assume no
    other domain is recording; in this engine they run on the only
    domain that recorded (the CLI's [--trace-out] export, the
    benchmark) or after the recording domains were joined, and
    [Domain.join] publishes their ring writes. See
    [docs/CONCURRENCY.md]. *)

(** A completed (or instant) span. *)
type span = {
  name : string;
  attrs : (string * string) list;
  start_us : float;  (** microseconds since the trace epoch *)
  dur_us : float;
  depth : int;  (** nesting depth at the time the span was open *)
  tid : int;  (** id of the domain that recorded the span *)
  instant : bool;  (** a point event, not a bracketed span *)
}

(** Monotonic-clamped wall clock in microseconds (shared clock source
    of the metrics and explain timers). The clamp is domain-local. *)
val now_us : unit -> float

(** Initial per-domain ring-buffer capacity (8192 spans). *)
val default_capacity : int

(** Resize every domain's ring buffer (takes effect at each sink's next
    record; clears recorded spans). *)
val set_capacity : int -> unit

(** Drop all recorded spans of every domain and reset nesting depths. *)
val clear : unit -> unit

(** Completed spans of every domain: domains in first-span order (the
    main domain first), each domain's spans oldest first (at most the
    capacity per domain; older ones are overwritten). *)
val spans : unit -> span list

(** Spans lost to ring-buffer overwrite since the last {!clear},
    summed over all domains. *)
val dropped : unit -> int

(** Bracket [f] in a span named [name] (recorded even when [f] raises).
    A no-op passthrough while the global switch is off. *)
val with_span : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a

(** Every domain's buffer in chrome-trace format, with thread-name
    metadata events so Perfetto labels the main domain and each
    worker. *)
val to_chrome_json : unit -> string

(** Write {!to_chrome_json} to a file. *)
val export : string -> unit

(** Minimal HTTP/1.1 server — blocking [Unix] sockets, no external
    dependencies. One accept loop on a dedicated domain fans admitted
    connections onto a fixed pool of worker domains ([workers > 0]), or
    handles them inline one at a time ([workers = 0], the historical
    metrics-scraper configuration — a Prometheus scraper issues one
    request per connection a few times a minute, so sequential handling
    is exactly enough there). Every response carries
    [Connection: close].

    Admission: with [max_inflight > 0] the acceptor sheds connections
    beyond that many accepted-but-unfinished requests with a canned
    [503 Service Unavailable] carrying [Retry-After: 1], written without
    parsing the request — a saturated server answers shed decisions at
    accept speed instead of queueing unboundedly. [start] also ignores
    [SIGPIPE] process-wide so clients that disconnect mid-response cost
    nothing (writes surface as catchable [EPIPE]/[ECONNRESET] and the
    connection is dropped).

    Built-in routes: [GET /metrics] (the whole {!Metrics} registry in
    Prometheus text exposition format, after running the [collect]
    callback so derived gauges are fresh) and [GET /healthz]. The
    optional [extra] handler runs first, so an embedding server
    ([xquec serve]) can add query endpoints. *)

(** A parsed HTTP request. [path] and [query] keys/values are
    percent-decoded; [body] is raw (capped at 16 MiB). *)
type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  body : string;
}

(** Status, content type, extra headers (e.g. [Retry-After]) and body
    of a reply ([Content-Length] and [Connection: close] are added by
    the server). *)
type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

(** An [extra] route handler: return [Some] to answer the request,
    [None] to fall through to the built-in routes (and their 404). *)
type handler = request -> response option

(** A running server. *)
type t

(** Build a {!response}; [headers] (default [[]]) are emitted verbatim
    after [Content-Type]. *)
val respond : ?headers:(string * string) list -> int -> string -> string -> response

(** Cumulative serving counters, process-wide across all servers
    started in this process (like the buffer-pool stats). *)
type stats = {
  e_workers : int;  (** worker pool size of the most recent {!start} *)
  e_accepted : int;  (** connections admitted past the gate *)
  e_handled : int;  (** connections fully served (any status) *)
  e_rejected : int;  (** connections shed with the canned 503 *)
  e_inflight : int;  (** admitted but not yet finished, right now *)
  e_inflight_high_water : int;  (** max of [e_inflight] since reset *)
}

(** Snapshot the serving counters (consistent enough for metrics: each
    field is an independent atomic read). *)
val stats : unit -> stats

(** Zero the cumulative counters ([e_inflight] is live state and is
    left alone). Test isolation helper. *)
val reset_stats : unit -> unit

(** [start ~port ()] binds [host] (default ["127.0.0.1"]) : [port]
    (0 = ephemeral, see {!port}) and serves until {!stop}. [workers]
    (default 0) is the connection-handling pool size — 0 means the
    accept-loop domain handles each connection itself, sequentially.
    [max_inflight] (default 0 = unlimited) is the admission gate.
    [extra] is consulted before the built-in routes; [collect] runs
    before each [/metrics] export. Raises [Unix.Unix_error] if the bind
    fails. *)
val start :
  ?host:string ->
  port:int ->
  ?workers:int ->
  ?max_inflight:int ->
  ?extra:handler ->
  ?collect:(unit -> unit) ->
  unit ->
  t

(** The bound port (useful after [start ~port:0]). *)
val port : t -> int

(** Shut down the listener, wake the acceptor if it is parked in
    [accept] (a blocked accept is not interrupted by closing the fd),
    join the accept-loop domain, then wake and join the workers — the
    connection queue drains first, so in-flight requests finish.
    Idempotent. *)
val stop : t -> unit

(** Block until the server stops (the [xquec serve] foreground path). *)
val wait : t -> unit

(** Public facade of XQueC: load (compress) a document — optionally
    tuned to a query workload — and evaluate XQuery over the compressed
    repository. *)

(** A loaded repository plus, when a workload guided compression, the
    partitioning decision that produced it. *)
type t = {
  repo : Storage.Repository.t;
  partitioning : Partitioner.result option;
}

(** Compress [xml] into a queryable repository: {!Loader.parse}, then,
    with [workload] queries, {!Workload.analyze} and the §3 greedy
    search ({!Partitioner.search}) on the parsed values, then
    {!Loader.build}, which encodes each container once under the
    chosen algorithms and shared source models. *)
val load :
  ?name:string -> ?workload:string list -> ?loader_options:Loader.options -> string -> t

(** The underlying storage repository. *)
val repo : t -> Storage.Repository.t

(** Parse an XQuery string to its AST (raises
    [Xquery.Parser.Syntax_error] on malformed input). *)
val parse_query : string -> Xquery.Ast.expr

(** Parse through the process-wide {!Plan_cache}: the (possibly
    cached) immutable AST plus how the lookup resolved
    ({!Plan_cache.Bypass} while the cache capacity is 0). Parse errors
    propagate and are never cached. *)
val compile : string -> Xquery.Ast.expr * Plan_cache.lookup

(** Evaluate a parsed query (from {!parse_query} or {!compile}),
    returning result items (still in their compressed-domain
    representation where possible), charging the process totals. *)
val query_ast : t -> Xquery.Ast.expr -> Executor.item list

(** A query as a caller asks for it. [text] is parsed unless [plan]
    (from {!compile}) is given, and is the log record's hash and echo.
    [admission] (serve's in-flight depth, plan-cache outcome and
    budgets) is logged verbatim as the record's ["admission"] field.
    [record] appends the query-log record. [watch] (the serving
    server's watchdog) observes the query's ledger, and its [limits]
    (the server's budgets) are checked at every block fetch. *)
type request = {
  text : string;
  plan : Xquery.Ast.expr option;
  admission : Xquec_obs.Json.t option;
  record : bool;
  watch : Xquec_obs.Watch.t option;
  limits : Xquec_obs.Ledger.limits;
}

(** [text] with every other field off: no plan, no admission, not
    recorded, not watched, unlimited. *)
val plain : string -> request

(** The serialized answer, its item count, the query's closed ledger,
    its EXPLAIN ANALYZE tree and the wall time of the whole request. *)
type response = {
  out : string;
  rows : int;
  ledger : Xquec_obs.Ledger.t;
  explain : Xquec_obs.Explain.node;
  wall_ms : float;
}

(** The one request path, and the only place a query's
    {!Xquec_obs.Ledger} opens: parse, evaluate with the EXPLAIN profile
    and serialize (the paper's QET convention) in one ledger on the
    calling domain, checked against the request's [limits]. With
    [record] and a log file configured, one JSONL record is appended
    (schema in [docs/OBSERVABILITY.md]); the request's [watch] observes
    the same ledger's predicates and container touches. A query that
    raises (a budget trip included) is recorded and observed too, the
    record with an ["error"] field and its partial costs, then
    re-raised. *)
val request : t -> request -> response

(** The message for a syntax or evaluation error, [None] otherwise. *)
val error_message : exn -> string option

(** The serialized answer of an unrecorded {!request}. *)
val query_serialized : t -> string -> string

(** The declared workload's fingerprint, observed rather than
    predicted: each query runs once as an unrecorded {!request}, and
    its ledger's predicate observations and container touches fold
    through {!Xquec_obs.Profile.agg_add}, exactly as the watchdog folds
    served traffic. Serving exactly these queries therefore scores drift
    0 against it. Running them fills the buffer pool and the
    repository's heat rows as any query does; no budget applies to
    them. Raises
    [Xquery.Parser.Syntax_error] on a malformed query. *)
val declared_fingerprint : t -> string list -> Xquec_obs.Profile.fingerprint

(** The one block-size rule: {!Xquec_obs.Profile.recommend} advice
    from [fp] joined with the repository's heat rows, planned into
    [(container id, block size)] targets by {!Storage.Compactor.plan}.
    [xquec compress --adaptive-blocks] feeds it the
    {!declared_fingerprint} and serve's auto-compaction the watchdog's
    live fingerprint; either hands the targets to the compactor. *)
val block_targets : t -> Xquec_obs.Profile.fingerprint -> (int * int) list

(** Original document bytes / compressed repository bytes. *)
val compression_factor : t -> float

(** Per-component byte accounting of the compressed repository. *)
val size_breakdown : t -> Storage.Repository.size_breakdown

(** Serialize the repository to the on-disk container format (the bytes
    written by [xquec compress -o]). *)
val save : t -> string

(** Inverse of {!save}; reads every image version, v1 to v4. *)
val restore : string -> t

(** Reconstruct the full document as XML text (the decompressor
    direction), charging the process totals: the result writer
    ({!Value_access.add_node}) walks the whole structure tree and
    decompresses each value straight into the text, each block fetched
    once. [indent] lays it out as [Xmlkit.Printer]'s [~indent] does. *)
val to_xml : ?indent:bool -> t -> string

(** Public facade of XQueC: load (compress) a document — optionally
    tuned to a query workload — and evaluate XQuery over the compressed
    repository. *)

(** A loaded repository plus, when a workload guided compression, the
    partitioning decision that produced it. *)
type t = {
  repo : Storage.Repository.t;
  partitioning : Partitioner.result option;
}

(** Compress [xml] into a queryable repository. With [workload] queries,
    the §3 greedy search chooses algorithms and shared source models
    first. *)
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
    representation where possible). *)
val query_ast : t -> Xquery.Ast.expr -> Executor.item list

(** Evaluate and serialize (decompressing the result, as the paper's QET
    measurements do). *)
val query_serialized : t -> string -> string

(** Evaluate and serialize inside one {!Xquec_obs.Ledger} opened on
    the calling domain, so the query's costs are its own even when
    other domains evaluate at the same time. The watchdog
    ({!Xquec_obs.Watch}) observes its predicates and per-container
    decoded bytes; when a query-log file is configured
    ({!Xquec_obs.Query_log}) exactly one JSONL record is appended with
    the ledger's bytes decoded vs. pruned, buffer-pool and join counts,
    per-container touches and predicate observations, plus plan shape
    and per-operator cardinalities, wall and CPU time and GC figures
    (schema in [docs/OBSERVABILITY.md]). The ledger spans evaluation
    {e and} serialization, so a single-query run reconciles with the
    [--stats] pool summary. Limits set with
    {!Xquec_obs.Ledger.set_limits} are checked at each block fetch and
    raise {!Xquec_obs.Ledger.Exceeded}. Also returns the profiled plan.

    [plan] (from {!compile}) skips the parse; [text] still provides
    the record's hash and echo. [admission] is attached verbatim as
    the record's ["admission"] field — the serving layer's description
    of how the request was admitted (in-flight depth, plan-cache
    outcome, configured limits). *)
val query_serialized_logged :
  ?admission:Xquec_obs.Json.t ->
  ?plan:Xquery.Ast.expr ->
  t ->
  string ->
  string * Xquec_obs.Explain.node

(** Original document bytes / compressed repository bytes. *)
val compression_factor : t -> float

(** Per-component byte accounting of the compressed repository. *)
val size_breakdown : t -> Storage.Repository.size_breakdown

(** Serialize the repository to the on-disk container format (the bytes
    written by [xquec compress -o]). *)
val save : t -> string

(** Inverse of {!save}; accepts both v1 and v2 container layouts. *)
val restore : string -> t

(** Reconstruct the full document (the decompressor direction). *)
val to_document : t -> Xmlkit.Tree.document

(** {!to_document} serialized back to XML text. *)
val to_xml : ?indent:bool -> t -> string

(** Process-wide mutex-guarded LRU cache of compiled query plans,
    keyed by the MD5 hex of the query text (the query log's
    [query_hash], so log lines and cache keys coincide). A "compiled
    plan" is the parsed immutable {!Xquery.Ast.expr}; being pure data
    it is safely shared across domains. Capacity 0 (the default)
    disables the cache entirely — every lookup reports {!Bypass} and
    compiles. [xquec serve] sets the capacity from [--plan-cache]. *)

(** How a {!find_or_add} resolved: served from cache ({!Hit}),
    compiled and inserted ({!Miss}), or compiled with the cache
    disabled ({!Bypass}). *)
type lookup = Hit | Miss | Bypass

(** Set the maximum entry count. Shrinking evicts least-recently-used
    entries immediately; 0 disables and empties the cache. *)
val set_capacity : int -> unit

(** Drop every entry (capacity and cumulative stats are kept). For
    tests, and for operators after changing the repository under a
    running server — see docs/SERVING.md, "Invalidation". *)
val clear : unit -> unit

(** Zero the cumulative hit/miss/eviction counters. *)
val reset_stats : unit -> unit

(** [find_or_add ~key compile] returns the cached plan for [key]
    (marking it most recently used) or runs [compile] and caches the
    result, evicting from the LRU tail beyond capacity. [compile] runs
    outside the cache lock, so a slow parse never stalls other
    domains' lookups; concurrent misses on the same key may compile
    twice (both results are equivalent, last insert wins). Exceptions
    from [compile] (e.g. parse errors) propagate and cache nothing. *)
val find_or_add : key:string -> (unit -> Xquery.Ast.expr) -> Xquery.Ast.expr * lookup

(** Cumulative counters plus current occupancy. *)
type stats = {
  s_capacity : int;
  s_entries : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

(** Snapshot the counters (one lock acquisition, mutually
    consistent). *)
val snapshot : unit -> stats

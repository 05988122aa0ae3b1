(** Process-wide buffer pool: an LRU cache of decoded container blocks
    with a byte budget, shared across all containers and repositories.

    Containers call {!fetch} on every block access; the pool either
    returns the resident decoded block (hit) or runs the supplied decode
    thunk, caches the result, and evicts least-recently-used blocks
    until the pool is back under budget (miss). Each event is counted
    once, in the calling domain's open {!Xquec_obs.Ledger} (what the
    query log and EXPLAIN read), or in the process totals when no
    ledger is open. {!snapshot}'s cumulative fields read those totals
    (for [--stats] and [/metrics]), so they advance when a query's
    ledger closes.

    Entries are keyed by (container uid, block index). Containers are
    immutable and every rebuilt container has a fresh uid, so an entry
    can never answer for a different payload; a replaced container's
    entries are dropped by {!invalidate_container}.

    {b Thread safety:} every function in this interface may be called
    from any domain ([serve]'s worker domains decode into the pool
    concurrently). A single mutex guards the LRU structures; decode
    thunks run outside it. An in-flight decode is represented by a
    per-block latch: a second requester of the same block blocks on the
    latch instead of decoding again, counted as an [s_latch_waits]
    event, so every fetch is exactly one of hit / miss / latch wait.
    With a single evaluating domain latch waits cannot occur. See
    [docs/CONCURRENCY.md]. *)

(** A decoded block: parallel arrays of codes (still individually
    compressed) and parent node ids.

    Invariant: [Array.length codes = Array.length parents], and codes
    are in non-decreasing order (containers are value-sorted and blocks
    are contiguous slices). [d_bytes] is the byte charge the entry puts
    on the pool budget (code bytes plus per-record overhead). *)
type decoded = { codes : string array; parents : int array; d_bytes : int }

(** Where a freshly decoded block enters the LRU list. [Mru] (the
    default) inserts at the front — classic LRU. [Tail] is the
    scan-resistant policy used by {!Container.scan}:
    the block enters at the eviction end (and, if the pool is over
    budget, may be evicted immediately — even before anything hotter),
    so a one-pass scan of a container larger than the budget cannot
    flush the hot working set. A tail-admitted block that gets
    re-referenced is promoted to the front by the hit path like any
    other entry. *)
type admission = Mru | Tail

(** Cumulative and resident pool counters, readable at any time.
    The cumulative fields ([s_hits] … [s_skipped_bytes]) only grow
    (see {!reset_stats}) and, except [s_invalidations], are the
    {!Xquec_obs.Ledger} totals: they include every query whose ledger
    has closed. The two [s_resident_*] fields track what currently
    occupies the budget. *)
type stats = {
  s_hits : int;
  s_misses : int;
  s_latch_waits : int;
      (** fetches that blocked on another domain's in-flight decode of
          the same block (always 0 with one evaluating domain) *)
  s_evictions : int;
  s_decoded_bytes : int;  (** total bytes ever charged by decodes *)
  s_blocks_skipped : int;  (** blocks pruned via headers, never decoded *)
  s_scan_inserts : int;  (** blocks admitted at the LRU tail ({!Tail}) *)
  s_invalidations : int;
      (** entries dropped by {!invalidate_container} / {!invalidate} —
          deliberately NOT counted as [s_evictions]: evictions measure
          capacity pressure, invalidations measure container churn *)
  s_prefetch_fills : int;
      (** always 0 (blocks are never read ahead); kept for
          [bench/e2e/layers.ml] *)
  s_prefetch_hits : int;  (** always 0, like [s_prefetch_fills] *)
  s_payload_bytes : int;
      (** compressed payload bytes actually decoded (same unit as
          [s_skipped_bytes], so decoded-vs-pruned ratios are meaningful;
          [s_decoded_bytes] by contrast is the in-memory charge) *)
  s_skipped_bytes : int;
      (** compressed payload bytes of header-pruned blocks *)
  s_resident_bytes : int;
  s_resident_blocks : int;
}

(** Current counter values (cheap: a brief lock for the resident
    fields, then one for the ledger totals). *)
val snapshot : unit -> stats

(** Set the pool's byte budget (the CLI's [--cache-mb]); evicts
    immediately if the pool is over the new budget. The most recently
    used block is never evicted, so one oversized block still works. *)
val set_budget : bytes:int -> unit

(** The current byte budget (default 64 MiB). *)
val budget_bytes : unit -> int

(** [fetch ~uid ~blk decode] returns the decoded block for container
    [uid], block index [blk] — from cache on a hit, via [decode] on a
    miss, or by waiting on the latch of a concurrent decode of the same
    block. [decode] runs outside the pool lock; if it raises, the
    exception propagates to this caller and is re-raised at every latch
    waiter. [?admission]
    (default {!Mru}) chooses where a miss-decoded block enters the LRU
    list; it has no effect on hits or latch waits. *)
val fetch :
  ?admission:admission ->
  uid:int ->
  blk:int ->
  (unit -> decoded) ->
  decoded

(** [invalidate_container ~uid] drops every resident block and pending
    decode of container [uid] (used when {!Repository.replace_container}
    swaps the container out), returning the number of entries removed.
    The drops are counted as [s_invalidations], never [s_evictions].
    In-flight decodes for [uid] complete but are not cached. *)
val invalidate_container : uid:int -> int

(** {!invalidate_container} ignoring the count. *)
val invalidate : uid:int -> unit

(** Drop all resident blocks (a "cold cache" for benchmarks). Does not
    reset the cumulative counters. In-flight decodes complete but are
    not cached. *)
val clear : unit -> unit

(** Zero the cumulative counters, the pool's fields of the ledger
    totals included (resident state is untouched). *)
val reset_stats : unit -> unit

(** Allocate a process-unique container id for pool keys (atomic). *)
val fresh_uid : unit -> int

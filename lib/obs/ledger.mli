(** Per-query cost ledger, held in the evaluating domain's [Domain.DLS],
    and the process totals: the one place where a block fetch, pool
    hit, miss, latch wait, eviction, decode, header skip, scan insert or
    block join is counted.

    [Engine.request] opens one ledger around a query's parse,
    evaluation and serialization ({!with_ledger}); nothing else in the
    program opens one. Every block a query reads decodes on the domain
    evaluating it, so the storage and executor sites charge the ledger
    in that domain's DLS: plain field writes, no atomics, and only the
    query's own work lands in it even when [serve] evaluates many
    queries at once.

    There is no second counter. The process-wide readings
    ([Buffer_pool.snapshot], [Executor.join_stats], and through them
    [/metrics] and [--stats]) read one totals ledger behind one mutex
    ({!with_totals}); per-container counts go to the {!row} each
    container owns, which {!Heat} reads. A closing ledger, also one
    whose query raised, is added into the totals and its per-container
    shares into those rows, so counters advance when a query's ledger
    closes, not while it runs. A charge made while no ledger is open
    (a build-time read, a compaction, a test poking a container) goes
    to the totals and the row directly, under that mutex.

    The query-log record, the watchdog's {!Watch.observe} and EXPLAIN's
    per-operator cache figures all read the open ledger.

    Limits: a ledger opened with {!limits} (a wall-clock and a
    decoded-bytes allowance, from the request) is checked against them
    at each block fetch, before it ({!note_fetch}) and after it
    ({!note_fetched}), so the fetch whose decode crosses the decode
    budget is the one that stops the query. Crossing one raises
    {!Exceeded} on the evaluating domain, which unwinds the query as an
    ordinary exception (no locks are held across block fetches);
    [xquec serve] maps it to a 408. Checks are block-grained: the
    overshoot is bounded by one block, and phases that fetch no block
    run to completion. *)

(** What tripped: [t_kind] is ["wall_ms"] or ["decode_bytes"]; the
    limit and the observed value share that unit (milliseconds or
    bytes, as floats for a uniform error body). *)
type trip = { t_kind : string; t_limit : float; t_observed : float }

(** Raised by {!note_fetch} and {!note_fetched} when the open ledger
    has crossed a limit. *)
exception Exceeded of trip

(** One container-resolved predicate observation of a single query —
    the vocabulary the query log records under ["predicates"] and the
    workload fingerprints ({!Profile.agg_add}) aggregate. *)
type obs = {
  ob_container : string;  (** container path *)
  ob_kind : string;  (** ["eq"], ["range"], ["wild"], ["exists"] or ["join"] *)
  ob_candidates : int;  (** records the predicate considered *)
  ob_matches : int;  (** records that matched *)
}

(** A container's counts: the lifetime row it owns, or one query's
    share of it. A touch is a block fetch with consecutive repeats of
    one block collapsed: the collapse state starts empty when the
    ledger opens. A touch starts a run unless it moves on to the next
    block of the container the previous touch read. *)
type container = {
  c_uid : int;  (** buffer-pool uid *)
  c_label : string;  (** container path *)
  c_blocks : int;  (** the container's block count *)
  mutable c_touches : int;
  mutable c_runs : int;  (** run-starting touches *)
  mutable c_block_touches : int array;
      (** touches by block index (grown on demand, may be shorter than
          the container) *)
  mutable c_decodes : int;  (** blocks decoded (pool misses) *)
  mutable c_header_skips : int;  (** blocks skipped on header min/max *)
  mutable c_bytes_decoded : int;  (** compressed payload bytes decoded *)
  mutable c_bytes_skipped : int;  (** compressed payload bytes skipped *)
}

(** A query's charges. The pool fields follow [Buffer_pool.stats]:
    every fetch is exactly one of [hits], [misses] or [latch_waits];
    [decoded_bytes] is the in-memory charge of the blocks this query
    decoded, [payload_decoded] / [payload_skipped] their compressed
    payload bytes and those of header-pruned blocks. The [join_*]
    fields follow [Executor.join_stats]. [containers] pairs each row a
    query charged with its share of it (empty in the totals). The
    limits mean nothing in the totals. *)
type t = {
  started_us : float;
  wall_limit_ms : float;  (** [infinity] = unlimited *)
  decode_limit : int;  (** [max_int] = unlimited *)
  mutable hits : int;
  mutable misses : int;
  mutable latch_waits : int;
  mutable evictions : int;
  mutable blocks_skipped : int;
  mutable scan_inserts : int;
  mutable decoded_bytes : int;
  mutable payload_decoded : int;
  mutable payload_skipped : int;
  mutable block_joins : int;
  mutable join_blocks_probed : int;
  mutable join_blocks_skipped : int;
  mutable join_skipped_bytes : int;
  mutable last_uid : int;  (** collapse state for touches *)
  mutable last_blk : int;
  containers : (int, container * container) Hashtbl.t;
  preds : (string * string, obs) Hashtbl.t;
  mutable pred_order : (string * string) list;  (** newest first *)
}

(** A query's allowances: [wall_ms] wall-clock milliseconds since its
    ledger opened and [decode_bytes] decoded bytes. Non-positive =
    unlimited. [xquec serve] takes them from [--query-wall-ms] and
    [--query-decode-mb]. *)
type limits = { wall_ms : float; decode_bytes : int }

(** No allowance checked. *)
val unlimited : limits

(** [with_ledger ~limits f] opens a fresh ledger on the calling domain,
    checked against [limits] (default {!unlimited}), runs [f] with it,
    restores the domain's previous ledger (if any) and adds the closed
    ledger into the totals, however [f] returns. *)
val with_ledger : ?limits:limits -> (t -> 'a) -> 'a

(** [with_totals f] applies [f] to the process totals under their
    mutex: how [Buffer_pool], [Executor] and {!Heat} read and reset
    their slices of them. [f] must not open a ledger or charge one. *)
val with_totals : (t -> 'a) -> 'a

(** Whether per-container rows (touches, runs, decodes, header skips)
    are counted; on by default. The pool and join fields are counted
    regardless. *)
val containers_enabled : unit -> bool

(** Turn per-container counting on or off. *)
val set_containers_enabled : bool -> unit

(** A fresh, zeroed row: the one a container owns for its lifetime. *)
val row : uid:int -> label:string -> blocks:int -> container

(** The calling domain's open ledger. *)
val current : unit -> t option

(** {2 Charges}

    Each charges the calling domain's open ledger, or, when none is
    open, the totals and the container's row under their mutex
    ({!note_pred} excepted). The per-container charges are no-ops
    while per-container counting is off ({!set_containers_enabled}),
    so a heat-off query reports no containers and adds to no row. *)

(** [charge f] applies [f] to the open ledger, else to the totals: how
    the pool and join sites count their events. *)
val charge : (t -> unit) -> unit

(** A fetch of block [blk] of the row's container: checks an open
    ledger's limits (raising {!Exceeded}), then counts the touch. *)
val note_fetch : container -> blk:int -> unit

(** The end of a block fetch: checks an open ledger's limits again
    (raising {!Exceeded}), now that the block's decoded bytes are
    charged. *)
val note_fetched : unit -> unit

(** A block decode of [bytes] compressed payload bytes. *)
val note_decode : container -> bytes:int -> unit

(** [blocks] blocks of one container skipped on their headers alone,
    [bytes] their payload bytes: counted into [blocks_skipped],
    [payload_skipped] and the container's row. *)
val note_skip : container -> blocks:int -> bytes:int -> unit

(** One container-resolved predicate observed during evaluation: a
    pushed-down value or textual filter, a tuple-at-a-time [where]
    comparison reading a container value, an existence test, or a
    compressed-domain join ([kind] and the counts as in
    {!obs}). Merged by (container, kind): per-tuple notes sum
    into one entry. Only an open ledger records them; the totals keep
    none. *)
val note_pred : container:string -> kind:string -> candidates:int -> matches:int -> unit

(** {2 Readings} *)

(** The containers the query touched, skipped headers of or decoded,
    sorted by label, then uid. *)
val containers : t -> container list

(** The predicate observations, in first-observation order. *)
val predicates : t -> obs list

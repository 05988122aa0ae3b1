(** Per-query cost ledger, held in the evaluating domain's [Domain.DLS].

    [Engine.query_serialized_logged] opens one ledger around a query's
    evaluation and serialization ({!with_ledger}). Every block a query
    reads decodes on the domain evaluating it, so the storage and
    executor sites that bump the process-wide counters ([Buffer_pool],
    [Executor]'s join counters, {!Heat}) also charge the ledger in
    that domain's DLS: plain field writes, no atomics, and only the
    query's own work lands in it even when [serve] evaluates many
    queries at once. With no ledger open every charge is one DLS load.

    The query-log record, the watchdog's {!Watch.observe} and EXPLAIN's
    per-operator cache figures all read the open ledger. The
    process-wide counters stay as they are for [/metrics], [--stats]
    and [/heat].

    Limits: {!set_limits} configures a wall-clock and a decoded-bytes
    allowance; every ledger opened afterwards is checked against them
    at each block fetch ({!note_fetch}). Crossing one raises
    {!Exceeded} on the evaluating domain, which unwinds the query as an
    ordinary exception (no locks are held across block fetches);
    [xquec serve] maps it to a 408. Checks are block-grained: the
    overshoot is bounded by one block, and phases that fetch no block
    run to completion. *)

(** What tripped: [t_kind] is ["wall_ms"] or ["decode_bytes"]; the
    limit and the observed value share that unit (milliseconds or
    bytes, as floats for a uniform error body). *)
type trip = { t_kind : string; t_limit : float; t_observed : float }

(** Raised by {!note_fetch} when the open ledger has crossed a limit. *)
exception Exceeded of trip

(** One container's share of a query. A touch is a block fetch, with
    consecutive repeats of one block collapsed as {!Heat} does, but
    per query: the collapse state starts empty when the ledger opens. *)
type container = {
  c_uid : int;  (** buffer-pool uid *)
  c_label : string;  (** container path *)
  mutable c_touches : int;
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
    fields follow [Executor.join_stats]. *)
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
  containers : (int, container) Hashtbl.t;
  preds : (string * string, Profile.obs) Hashtbl.t;
  mutable pred_order : (string * string) list;  (** newest first *)
}

(** Set the allowances checked by ledgers opened from now on: [wall_ms]
    wall-clock milliseconds since the ledger opened and [decode_bytes]
    decoded bytes. Non-positive or omitted = unlimited (the default).
    Startup-time configuration ([xquec serve]'s [--query-wall-ms] and
    [--query-decode-mb]). *)
val set_limits : ?wall_ms:float -> ?decode_bytes:int -> unit -> unit

(** The configured allowances, [0.0] / [0] when unlimited. *)
val limits : unit -> float * int

(** [with_ledger f] opens a fresh ledger on the calling domain, runs
    [f] with it and restores the domain's previous ledger (if any)
    however [f] returns. *)
val with_ledger : (t -> 'a) -> 'a

(** The calling domain's open ledger. *)
val current : unit -> t option

(** {2 Charges}

    Each charges the calling domain's open ledger and is a no-op when
    none is open. The per-container charges are also no-ops while
    {!Heat} is switched off, so a heat-off query reports no containers,
    as the heat table shows none. *)

(** [charge f] applies [f] to the open ledger: how the pool and join
    sites bump their counters. *)
val charge : (t -> unit) -> unit

(** A block fetch of block [blk] of container [uid]: checks the limits
    (raising {!Exceeded}), then counts the touch. *)
val note_fetch : uid:int -> label:string -> blk:int -> unit

(** A block decode of [bytes] compressed payload bytes. *)
val note_decode : uid:int -> label:string -> bytes:int -> unit

(** [blocks] header-skipped blocks of one container, [bytes] payload
    bytes. *)
val note_container_skip : uid:int -> label:string -> blocks:int -> bytes:int -> unit

(** One container-resolved predicate observed during evaluation: a
    pushed-down value or textual filter, a tuple-at-a-time [where]
    comparison reading a container value, an existence test, or a
    compressed-domain join side ([kind] and the counts as in
    {!Profile.obs}). Merged by (container, kind): per-tuple notes sum
    into one entry. *)
val note_pred : container:string -> kind:string -> candidates:int -> matches:int -> unit

(** {2 Readings} *)

(** The containers the query touched, skipped headers of or decoded,
    sorted by label, then uid. *)
val containers : t -> container list

(** The predicate observations, in first-observation order. *)
val predicates : t -> Profile.obs list

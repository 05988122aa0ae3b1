(** Per-container / per-block access heat: how the value containers
    are actually touched at query time (block fetches, block decodes,
    header-driven skips, bytes decoded and skipped, sequential-vs-random
    access runs), per container and per block.

    Heat counts nothing itself and keeps no table. Every event is
    counted once, in the evaluating query's {!Ledger}; a closed ledger
    adds its per-container rows into the row each container owns
    ({!Ledger.container}). A reading takes the rows to read
    ([Repository.heat_rows] gives a repository's), so it moves when a
    query's ledger closes and sums exactly to the query-log records of
    the queries that closed in between.

    In-process readers ({!Profile.recommend}, the watchdog's
    {!Watch.tick} and [/watch], serve's auto-compaction) take typed
    {!stat} readings. {!snapshot_json} is the [GET /heat] payload, and
    {!of_json} reads it back only for [xquec profile --heat FILE].

    Overhead: a block fetch is one DLS load and, for a touch that does
    not repeat the previous block, a few plain writes to the query's
    own ledger; there is no atomic, lock or process-wide state on the
    fetch path. Each query pays one fold into the totals, under their
    mutex, when its ledger closes. The per-container rows sit behind a
    switch ({!Ledger.set_containers_enabled}, default on; the bench gate's [heat] experiment proves the
    cost within 2 %), so the A/B in [bench heat] needs no rebuild. *)

(** Immutable per-container reading of one {!snapshot}. A {e touch} is
    a block fetch request with consecutive repeats of one
    block collapsed (a scan reading 500 records of a block touches it
    once). [hits] is derived as [touches - decodes] (clamped at 0: a
    block evicted and re-decoded between collapsed repeats can decode
    more often than it transitions): a touch that needed no decode was
    served from the buffer pool. [runs] counts run-starting touches,
    per query: a touch of a block other than the successor of the
    block the same query touched last, in this container (so each
    query's first touch of a container starts a run); [seq_touches] is
    the complement ([touches - runs], clamped at 0): touches that
    continued a sequential run. *)
type stat = {
  uid : int;  (** buffer-pool uid of the container *)
  label : string;  (** container path, e.g. ["/site/people/person/name/#text"] *)
  blocks : int;  (** the container's block count *)
  touches : int;  (** block fetch requests (hits + decodes) *)
  decodes : int;  (** blocks actually decoded (pool misses) *)
  hits : int;  (** [touches - decodes], clamped at 0 *)
  header_skips : int;  (** blocks skipped on header min/max alone *)
  bytes_decoded : int;  (** compressed payload bytes decoded *)
  bytes_skipped : int;  (** compressed payload bytes never decoded *)
  seq_touches : int;  (** touches continuing a sequential run *)
  runs : int;  (** non-sequential (run-starting) touches *)
}

(** The readings of [rows], sorted by label then uid, with their
    counters as of the last closed ledger (one consistent reading,
    taken under the totals' mutex). *)
val snapshot : Ledger.container list -> stat list

(** Zero the counters and per-block tallies of [rows]. *)
val reset : Ledger.container list -> unit

(** [hot_blocks row ~top] — the [top] most-touched blocks of a
    container as [(block, touches)], descending, ties by block index. *)
val hot_blocks : Ledger.container -> top:int -> (int * int) list

(** The readings of [rows] as JSON — the [GET /heat] payload:
    [{"enabled":bool, "containers":[{container,uid,blocks,touches,
    decodes,hits,header_skips,bytes_decoded,bytes_skipped,
    seq_touches,runs,hot_blocks:[{block,touches}]}]}].
    [top_blocks] bounds the per-container hot-block list (default 8,
    [0] drops the lists). *)
val snapshot_json : ?top_blocks:int -> Ledger.container list -> Json.t

(** The readings of a {!snapshot_json} payload, in its order: the
    inverse of {!snapshot_json} on every {!stat} field. A container
    entry without a ["container"] label is dropped and a missing count
    reads 0. [xquec profile --heat FILE] reads its file through this,
    the one place heat JSON is parsed back; in-process callers pass
    {!snapshot} readings instead. *)
val of_json : Json.t -> stat list

(** Fold the totals of [rows] into the {!Metrics} registry as
    [heat.containers], [heat.touches], [heat.decodes], [heat.hits],
    [heat.header_skips], [heat.bytes_decoded], [heat.bytes_skipped],
    [heat.seq_touches] and [heat.runs] — called by the server before a
    scrape, so [/metrics] carries the totals without a second
    accounting path. *)
val publish_metrics : Ledger.container list -> unit

(** Per-container / per-block access heat: how the value containers
    are actually touched at query time (block fetches, block decodes,
    header-driven skips, bytes decoded and skipped, sequential-vs-random
    access runs), per container and per block.

    Heat counts nothing itself. Every event is counted once, in the
    evaluating query's {!Ledger}, whose container rows carry the
    touches, runs and per-block touches; a closed ledger is added into
    the process totals, and this module reads their container rows. It
    keeps only what names them: each container's label and block count
    ({!register}), and which uids are live ({!unregister}). So a
    snapshot moves when a query's ledger closes, and it sums exactly to
    the query-log records of the queries that closed in between.

    Overhead: a block fetch is one DLS load and, for a touch that does
    not repeat the previous block, a few plain writes to the query's
    own ledger; there is no atomic, lock or process-wide state on the
    fetch path. Each query pays one fold into the totals, under their
    mutex, when its ledger closes. The per-container rows sit behind a
    switch (default on; the bench gate's [heat] experiment proves the
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
  blocks : int;  (** block count at registration (0 when unknown) *)
  touches : int;  (** block fetch requests (hits + decodes) *)
  decodes : int;  (** blocks actually decoded (pool misses) *)
  hits : int;  (** [touches - decodes], clamped at 0 *)
  header_skips : int;  (** blocks skipped on header min/max alone *)
  bytes_decoded : int;  (** compressed payload bytes decoded *)
  bytes_skipped : int;  (** compressed payload bytes never decoded *)
  seq_touches : int;  (** touches continuing a sequential run *)
  runs : int;  (** non-sequential (run-starting) touches *)
}

(** Turn per-container accounting on or off
    ({!Ledger.set_containers_enabled}; snapshot/reset work regardless). *)
val set_enabled : bool -> unit

(** [register ~uid ~label ~blocks] (re)announces a container: fixes
    the human label and block count shown in snapshots. Counters of an
    already-registered uid are preserved. A rebuilt container registers
    under its fresh uid. Called by the storage layer on build and load. *)
val register : uid:int -> label:string -> blocks:int -> unit

(** [unregister ~uid] drops a container's row, counters included.
    [Repository.replace_container] calls it for the uid it
    replaces, so the table holds one row per live container; a query
    still reading the old container adds to no row a reading shows. *)
val unregister : uid:int -> unit

(** Every registered container, sorted by label, with its counters as
    of the last closed ledger (one consistent reading, taken under the
    totals' mutex). *)
val snapshot : unit -> stat list

(** Zero every container's counters and per-block tallies, keeping
    registrations. *)
val reset : unit -> unit

(** [hot_blocks ~uid ~top] — the [top] most-touched blocks of a
    container as [(block, touches)], descending, ties by block index;
    empty for unknown or unregistered uids. *)
val hot_blocks : uid:int -> top:int -> (int * int) list

(** The whole table as JSON — the [GET /heat] payload:
    [{"enabled":bool, "containers":[{container,uid,blocks,touches,
    decodes,hits,header_skips,bytes_decoded,bytes_skipped,
    seq_touches,runs,hot_blocks:[{block,touches}]}]}].
    [top_blocks] bounds the per-container hot-block list (default 8,
    [0] drops the lists). *)
val snapshot_json : ?top_blocks:int -> unit -> Json.t

(** Fold aggregate totals into the {!Metrics} registry as
    [heat.containers], [heat.touches], [heat.decodes], [heat.hits],
    [heat.header_skips], [heat.bytes_decoded], [heat.bytes_skipped],
    [heat.seq_touches] and [heat.runs] — called by the server before a
    scrape, so [/metrics] carries the totals without a second
    accounting path. *)
val publish_metrics : unit -> unit

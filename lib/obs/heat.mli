(** Per-container / per-block access heat accounting.

    A process-wide, low-overhead tally of how the value containers are
    actually touched at query time: block fetches, block decodes
    (buffer-pool misses), header-driven skips, bytes decoded and
    skipped, and sequential-vs-random access runs. The storage layer
    calls the [note_*] hooks; everything else only reads snapshots.

    Overhead discipline: block fetches arrive once per record, so
    consecutive repeats of one (container, block) collapse into a
    single touch — the steady scan case is two plain loads and two
    compares against a process-wide last-touched pair, no atomic
    write, no domain lookup. Only block transitions pay an atomic
    increment of the per-block cell (the cells double as the touch
    counter; snapshots sum them) — no locks, no allocation on the hot
    path (the per-block tally array grows by CAS-publishing a larger
    array that shares the old cells, so concurrent bumps are never
    lost). The collapse gate is deliberately unsynchronized:
    interleaved decode workers flap it and count a few extra
    transitions, or lose a touch repeating another worker's last
    block — acceptable noise for a heat map. Run classification (did
    this transition continue a sequential run?) keeps one last-touched
    slot per domain, indexed by [Domain.self ()], so workers never
    contend on it. The whole subsystem sits behind its own atomic
    switch (default on — the bench gate proves the cost ≤ 2 %), so
    the A/B in [bench heat] and belt-and-braces opt-outs need no
    rebuild. *)

(** Immutable per-container reading of one {!snapshot}. A {e touch} is
    a block fetch request with consecutive repeats of one
    block collapsed (a scan reading 500 records of a block touches it
    once). [hits] is derived as [touches - decodes] (clamped at 0: a
    block evicted and re-decoded between collapsed repeats can decode
    more often than it transitions): a touch that needed no decode was
    served from the buffer pool. [runs] counts run-starting touches —
    a touch of a block other than the successor of the same domain's
    previously touched block of this container; [seq_touches] is the
    complement ([touches - runs], clamped at 0): touches that
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

(** Whether accounting is currently on. *)
val enabled : unit -> bool

(** Turn accounting on or off (snapshot/reset work regardless). *)
val set_enabled : bool -> unit

(** [register ~uid ~label ~blocks] (re)announces a container: fixes
    the human label and block count shown in snapshots. Counters of an
    already-registered uid are preserved. A rebuilt container registers
    under its fresh uid. Called by the storage layer on build and load. *)
val register : uid:int -> label:string -> blocks:int -> unit

(** [unregister ~uid] drops a container's row, counters included.
    [Repository.replace_container] calls it for the uid it
    replaces, so the table holds one row per live container. *)
val unregister : uid:int -> unit

(** Record a block fetch request. Consecutive repeats of the same
    block collapse into one touch; a transition
    classifies as sequential or run-starting and bumps the per-block
    tally. Like every [note_*] hook, it ignores a uid without a row
    (never registered, or unregistered since). *)
val note_touch : uid:int -> blk:int -> unit

(** Record an actual block decode of [bytes] compressed payload bytes
    (called from the buffer-pool miss path, on the querying domain). *)
val note_decode : uid:int -> bytes:int -> unit

(** Record [blocks] header-skipped blocks totalling [bytes] payload
    bytes the query never decoded. *)
val note_skip : uid:int -> blocks:int -> bytes:int -> unit

(** Consistent-enough reading of every registered container, sorted by
    label. (Counters are read one atomic at a time; a snapshot taken
    during a query may split that query's bumps across two
    snapshots — totals over quiescent points are exact.) *)
val snapshot : unit -> stat list

(** Zero every counter and per-block tally, keeping registrations, and
    forget per-domain run state. *)
val reset : unit -> unit

(** [hot_blocks ~uid ~top] — the [top] most-touched blocks of a
    container as [(block, touches)], descending, ties by block index;
    empty for unknown uids. *)
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

(** Background container compaction: re-block live containers toward a
    recommended block size and swap them into the owning repository
    without stopping query traffic.

    A compaction of one container is copy-on-write:
    {!Container.reblocked} builds a fresh container (new buffer-pool
    uid, compaction epoch + 1) holding the identical record sequence,
    the repository's container slot is overwritten with a single boxed
    pointer store — a concurrent reader sees either the old or the new
    container, and both answer every query byte-identically — and the
    old container's pool entries are then released via
    {!Buffer_pool.invalidate_container} (booked as invalidations, not
    capacity evictions). Readers still holding the old container keep
    using it safely.

    Passes are serialized by an internal mutex; the watchdog's entry
    point {!request} additionally refuses overlapping requests via a
    busy flag that [GET /compact] exposes. Triggered manually by
    [xquec compact] and automatically by [xquec serve] when the drift
    watchdog's [drift_sustained] alert fires. *)

(** Outcome of one container compaction. [c_block_size_before] /
    [c_blocks_before] describe the replaced container,
    [c_block_size_after] / [c_blocks_after] the fresh one;
    [c_invalidated] is the number of buffer-pool entries the swap
    released; [c_epoch] is the fresh container's compaction epoch. *)
type result = {
  c_path : string;
  c_id : int;
  c_records : int;
  c_block_size_before : int;
  c_block_size_after : int;
  c_blocks_before : int;
  c_blocks_after : int;
  c_invalidated : int;
  c_epoch : int;
  c_wall_ms : float;
}

(** Cumulative counters across all compactions this process ran. *)
type stats = { k_compactions : int; k_blocks_rewritten : int; k_bytes_rewritten : int }

(** Current counter values (atomic reads). *)
val snapshot : unit -> stats

(** Zero the cumulative counters and keep the recent-result ring (test
    isolation). *)
val reset_stats : unit -> unit

(** The most recent compaction results, newest first (bounded ring). *)
val recent : unit -> result list

(** [plan repo recommendations] turns [(container path, factor)] pairs —
    the shape {!Xquec_obs.Profile.recommend} emits — into concrete
    [(container id, new block size)] targets: the container's current
    block size scaled by the factor and clamped via
    {!Container.clamp_block_size}. Unknown paths, empty containers,
    non-positive factors and no-op sizes (clamped size = current size)
    are dropped. *)
val plan : Repository.t -> (string * float) list -> (int * int) list

(** [compact_container repo ~id ~block_size] synchronously re-blocks
    container [id] at [block_size] (clamped) and swaps the fresh
    container into [repo]. Safe while concurrent queries read the
    repository — see the copy-on-write protocol above. Raises
    [Invalid_argument] on an out-of-range id. *)
val compact_container : Repository.t -> id:int -> block_size:int -> result

(** Run {!compact_container} for each [(id, block_size)] target in
    order, returning the per-container results. *)
val compact : Repository.t -> targets:(int * int) list -> result list

(** Run {!compact} on the calling domain ([xquec serve] calls it from
    its watchdog domain, off the query path). Returns [false] — doing
    nothing — when [targets] is empty or a {!request} from another
    domain is still running; [true] means the pass ran. Failures
    inside the pass are swallowed; per-container outcomes appear in
    {!recent}. *)
val request : Repository.t -> targets:(int * int) list -> bool

(** Whether an asynchronous {!request} pass is currently running. *)
val busy : unit -> bool

(** Compactor status as JSON — the [GET /compact] payload:
    [{"busy":bool, "compactions":n, "blocks_rewritten":n,
    "bytes_rewritten":n, "recent":[...]}] with one object per
    {!result}, newest first. *)
val status_json : unit -> Xquec_obs.Json.t

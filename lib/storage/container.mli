(** Value containers (§2.2 of the paper): all data values reached by
    the same root-to-leaf path live together as records
    [<compressed value, parent pointer>], sorted lexicographically by
    compressed value — not document order — so equality and (for
    order-preserving codecs) range predicates run as binary searches in
    the compressed domain.

    Since repository format v2 the sorted sequence is physically split
    into fixed-budget compressed {e blocks} (~16 KiB of plaintext each
    by default). Each block header carries the record count and the
    min/max compressed value of its slice, so every access path below
    prunes whole blocks from headers alone and decodes — through the
    shared {!Buffer_pool} — only the blocks a predicate actually
    touches. *)

(** Containers hold either text nodes or attribute values. *)
type kind = Text | Attribute

(** One container record: the compressed value and the structure-tree id
    of the parent element (the "value pointer" inverse). *)
type record = { code : string; parent : int }

(** One compressed block: a contiguous slice of the sorted record
    sequence.

    Invariants: [b_min] is [<=] and [b_max] is [>=] every code in the
    block (conservative bounds capped at ~8 bytes, derived from the
    slice's first and last codes — pruning stays correct, headers stay
    tiny even for long-code codecs); [b_exact] records whether both
    bounds are the {e actual} boundary codes (it is false whenever a
    boundary code exceeded the cap, in which case [b_max]
    over-estimates and [b_min] under-estimates — overlap/pruning tests
    stay sound, but any consumer wanting equality or containment
    conclusions from the bounds must check the bit); consecutive blocks
    cover consecutive index ranges ([b_start] strictly increasing, next
    [b_start] = [b_start + b_count]); [b_payload] is a
    {!Compress.Codec.encode_block} image decoding to exactly [b_count]
    records. *)
type block = {
  b_start : int;
  b_count : int;
  b_min : string;
  b_max : string;
  b_exact : bool;
  b_plain : int;
  b_payload : string;
}

(** A built container. Immutable: every rebuild ({!of_values},
    {!reblocked}) returns a fresh container with a fresh [uid], which
    {!Repository.replace_container} swaps into the repository. *)
type t = {
  id : int;  (** repository-local container id (value pointers refer to it) *)
  uid : int;  (** process-unique identity, the buffer-pool key of its blocks *)
  path : string;  (** root-to-leaf path, e.g. ["/site/people/person/name/#text"] *)
  kind : kind;
  algorithm : Compress.Codec.algorithm;
  model : Compress.Codec.model;
  model_id : int;  (** containers sharing a source model share this id *)
  blocks : block array;
  n_records : int;
  plain_bytes : int;  (** total plaintext bytes (stats / cost model) *)
  distinct_parents : bool;
      (** no two records share a parent pointer. Precomputed at build
          time and stored in the v2 image (recomputed when loading v1),
          so bare-element existence predicates can take the
          header-pruned path instead of scanning every block to check
          distinctness. *)
  sorted_run : bool;
      (** the record sequence was verified sorted by (code, parent) —
          the precondition for the executor's block-interval merge join.
          Checked by an O(n) adjacent-pair scan at build / v1-load time
          and persisted in the v2 flags byte; v2 images written before
          the flag existed load as [false], conservatively keeping the
          block join off for them. *)
  block_size : int;
      (** target plaintext bytes per block this container was chunked
          with. Per container since the adaptive-sizing pass; persisted
          behind flags bit 3 of the wire image whenever it differs from
          the built-in 16384 default (or the epoch is non-zero), so
          pre-extension images re-save byte-identically. *)
  compaction_epoch : int;
      (** number of times the compactor has re-blocked this container
          ({!Compactor.compact_container}); 0 at build, persisted
          alongside [block_size]. *)
}

(** Header-only projection of one block: bounds, cardinality and stored
    payload size, with {e no} payload fetch and no buffer-pool traffic.
    [h_block] is the block's index; the other fields mirror the
    corresponding {!block} fields ([h_payload_bytes] is the stored
    payload's length — the bytes a decode would read). This is the view
    the executor's block-interval join plans from before deciding which
    blocks (if any) to decode. *)
type header = {
  h_block : int;
  h_start : int;
  h_count : int;
  h_min : string;
  h_max : string;
  h_exact : bool;
  h_payload_bytes : int;
}

(** [header t i] is the header-only view of block [i]. *)
val header : t -> int -> header

(** All block headers in block order. Pure projection: never decodes a
    payload. Because blocks are contiguous slices of the sorted record
    sequence, the [h_min] and [h_max] sequences are both non-decreasing,
    which is what makes a two-pointer interval merge over two sides'
    headers sound. *)
val headers : t -> header array

(** Number of records (across all blocks). *)
val length : t -> int

(** Number of physical blocks. *)
val block_count : t -> int

(** Set the target plaintext bytes per block for subsequently built
    containers (the benchmark's block-size sweep). Raises
    [Invalid_argument] on a non-positive size. *)
val set_default_block_size : int -> unit

(** Current block-size target in bytes (initially 16384). *)
val default_block_size : unit -> int

(** Declared access pattern of a container, the input of
    {!pick_block_size}: dominated by scans/wildcards ([Seq_heavy]),
    dominated by selective point predicates ([Random_selective]), or
    anything in between ([Mixed]). *)
type access_pattern = Seq_heavy | Random_selective | Mixed

(** [pick_block_size ~plain_bytes ~n_records ~access] is the build-time
    per-container sizing heuristic: sequential-heavy containers get 4×
    the {!default_block_size} (per-block costs amortize over big
    blocks), selective-random ones get ¼ (an eq predicate decodes
    little), mixed keeps the default — floored at 8 average values per
    block and clamped to {!clamp_block_size}'s [1 KiB, 256 KiB] range.
    Deterministic: depends only on its arguments and the configured
    default. *)
val pick_block_size : plain_bytes:int -> n_records:int -> access:access_pattern -> int

(** Clamp a proposed block size into the supported [1024, 262144] byte
    range (used by every adaptive path: build-time sizing, profile-seeded
    sizes, compaction plans). *)
val clamp_block_size : int -> int

(** Does nothing: blocks are never read ahead. Kept for the
    benchmark's [bench/e2e/workloads.ml] and [bench/e2e/layers.ml]. *)
val set_prefetch_depth : int -> unit

(** [of_values ~id ~path ~kind ~algorithm ~model ~model_id pairs]
    encodes each [(value, parent)] pair with [model], sorts the records
    on (code, parent, input position) and chunks them into blocks of
    [?block_size] (default {!default_block_size}) plaintext bytes. It
    returns the container and the permutation input position -> record
    index, with which callers point value pointers at the records. The
    container's epoch is 0. Every container built from values is built
    here: by the loader, and by {!Partitioner.apply} when it re-encodes
    with a shared model. *)
val of_values :
  ?block_size:int ->
  id:int ->
  path:string ->
  kind:kind ->
  algorithm:Compress.Codec.algorithm ->
  model:Compress.Codec.model ->
  model_id:int ->
  (string * int) list ->
  t * int array

(** All [(plaintext, parent)] pairs in record (compressed-value) order;
    decompresses every value. *)
val dump : t -> (string * int) list

(** [read_block t i] is block [i]'s codes and parents, in record order,
    decoded straight from its payload on every call: no {!Buffer_pool}
    admission or counter, no {!Xquec_obs.Heat} touch or decode, no
    budget charge. For build-time readers (the cost model's sampler,
    {!read_all}, {!reblocked}) that must leave the query cache and its accounting as
    they found them. Raises [Invalid_argument] for a block index out of
    range. *)
val read_block : t -> int -> string array * int array

(** {!dump} through {!read_block}: every [(plaintext, parent)] pair in
    record order, read outside the buffer pool. The partitioner's
    shared-model rebuild reads each container once with it. *)
val read_all : t -> (string * int) list

(** [reblocked t ~block_size] is a {e fresh} container (new pool uid,
    same [compaction_epoch]) holding the same record sequence
    re-chunked at [block_size]; [t] is left unchanged, so in-flight
    readers keep using it. [t]'s blocks are read with {!read_block},
    outside the buffer pool and its accounting. Callers swap the result in with
    {!Repository.replace_container}; {!Compactor.compact_container}
    also bumps its epoch. Raises [Invalid_argument] on a non-positive
    size. *)
val reblocked : t -> block_size:int -> t

(** ContScan: every record in compressed-value order. Decodes all
    blocks (the pruning access paths below exist to avoid this). Decoded
    blocks are admitted at the buffer pool's LRU tail
    ({!Buffer_pool.Tail}), so a full scan cannot flush the pool's hot
    working set. *)
val scan : t -> record array

(** [fetch_blocks t ~b0 ~b1] decodes blocks [b0..b1] (inclusive) on
    the calling domain and returns their images in block order — the
    block access path behind {!scan}, {!lookup_range} and {!dump}.
    Each block is a {!Buffer_pool} hit, a
    miss decoded here, or a latch wait on another domain's decode of
    it. Empty ranges ([b1 < b0]) yield [[||]]. [?admission] (default
    {!Buffer_pool.Mru}) is the pool admission policy for miss-decoded
    blocks.

    Each fetch and decode is charged to the calling domain's open
    {!Xquec_obs.Ledger} (if any), whose limits are checked at each
    block fetch: an exhausted one raises
    {!Xquec_obs.Ledger.Exceeded} out of this call. *)
val fetch_blocks :
  ?admission:Buffer_pool.admission -> t -> b0:int -> b1:int -> Buffer_pool.decoded array

(** [get t i] is record [i] (0-based, in compressed-value order);
    decodes at most the one block holding it. Raises [Invalid_argument]
    out of bounds. *)
val get : t -> int -> record

(** Index of the block holding record [i] (0-based; [i] must be in
    range). One binary search over the block headers. *)
val block_of_index : t -> int -> int

(** An interval bound on compressed codes: [`Incl c] admits [c] itself,
    [`Excl c] does not. *)
type bound = [ `Incl of string | `Excl of string ]

(** Account [blocks] blocks of the container, [bytes] bytes of stored
    payload, as skipped from headers alone: to the buffer pool's
    [blocks_skipped]/[payload_skipped], the container's heat row and
    the calling domain's ledger. Every access path that prunes blocks
    (an interval lookup, a block merge join) reports through it. *)
val note_skipped : t -> blocks:int -> bytes:int -> unit

(** ContAccess with an interval criterion on compressed codes: the
    records whose code is at or above [lo] and at or below [hi], each
    bound inclusive or exclusive ([None] = unbounded), in record order.
    Candidate blocks are chosen from the headers alone and only they
    are decoded (admitted at the pool's MRU end); the others are
    counted as pruned. Any bounds select on code order, so they mean
    value order only for order-preserving algorithms. *)
val lookup_range : t -> ?lo:bound -> ?hi:bound -> unit -> record list

(** ContAccess with an equality criterion: [lookup_range] with [code]
    as both inclusive bounds. Valid whenever the algorithm supports
    [`Eq]. *)
val lookup_eq : t -> string -> record list

(** Decompress one record's value with the container's model. *)
val decompress_record : t -> record -> string

(** Compress a query constant against this container's source model, so
    predicates can be evaluated in the compressed domain. *)
val compress_constant : t -> string -> string

(** Total bytes of the stored block payloads (the container's share of
    the repository's value area). *)
val compressed_bytes : t -> int

(** Append the v2 wire image (block headers + verbatim payloads — a
    save/load/save cycle is byte-exact). The container flags byte
    carries bit 0 = [distinct_parents], bit 1 = [sorted_run], bit 2 =
    "per-block flags byte present" (bit 0 of which is [b_exact]), and
    bit 3 = "adaptive-sizing extension present": two varints
    [<block_size, compaction_epoch>] directly after the flags byte,
    emitted only when the block size differs from the built-in 16384 or
    the epoch is non-zero (pre-extension images and their re-saves stay
    byte-identical; old readers reject bit 3 rather than misparse).
    Images written before bits 1–2 existed load with [sorted_run] and
    every [b_exact] false. The model itself is serialized once per
    [model_id] by {!Repository}. *)
val serialize : Buffer.t -> t -> unit

(** Parse a v2 container image at [pos]; [models] maps [model_id] to
    the already-deserialized shared models. Returns the container and
    the first position past it. *)
val deserialize :
  models:(int, Compress.Codec.model) Hashtbl.t -> string -> int -> t * int

(** Parse a legacy v1 (record-at-a-time) container image, re-blocking
    its records with sizes estimated from the container average. *)
val deserialize_v1 :
  models:(int, Compress.Codec.model) Hashtbl.t -> string -> int -> t * int

(** Compressed repository: the name dictionary, structure tree, value
    containers, shared source models and structure summary for one
    document, with byte-level serialization for the size experiments. *)

(** What {!Compactor}, its only writer, keeps about the passes it ran
    on one repository: [pass] serializes them, [busy] is
    {!Compactor.request}'s flag, the counters are cumulative, and
    [recent] holds the last results as [GET /compact] lists them,
    newest first. *)
type compactions = {
  pass : Mutex.t;
  busy : bool Atomic.t;
  count : int Atomic.t;
  blocks_rewritten : int Atomic.t;
  bytes_rewritten : int Atomic.t;
  recent : Xquec_obs.Json.t list Atomic.t;
}

(** A log of no passes: how a built or restored repository starts. *)
val no_compactions : unit -> compactions

(** A loaded repository. [containers] is indexed by container id;
    [original_size] is the source document's byte size (denominator of
    the compression factor); [compactions] is its compaction log. *)
type t = {
  dict : Name_dict.t;
  tree : Structure_tree.t;
  containers : Container.t array;
  summary : Summary.t;
  source_name : string;
  original_size : int;
  compactions : compactions;
}

(** Container by id. Raises [Invalid_argument] if out of range. *)
val container : t -> int -> Container.t

(** Container whose assignment path equals the argument, if any. *)
val find_container_by_path : t -> string -> Container.t option

(** [replace_container t fresh] swaps [fresh] into the slot of the
    container with its id, then drops the old container's buffer-pool
    entries ({!Buffer_pool.invalidate_container}) and returns how many
    entries it dropped. The old heat row leaves with the old container.
    The one way a repository's container changes after load: the
    compactor (every block-size change) rebuilds a fresh container and
    swaps it in here. Safe while other domains read the repository: they see the
    old or the new container, which answer every query identically. *)
val replace_container : t -> Container.t -> int

(** The live containers' heat rows, for {!Xquec_obs.Heat}'s readings. *)
val heat_rows : t -> Xquec_obs.Ledger.container list

(** Distinct source models (shared-model containers count once). *)
val models : t -> (int * Compress.Codec.model) list

(** Serialized byte size per component (the §2.2 storage layout). *)
type size_breakdown = {
  name_dict_bytes : int;
  tree_bytes : int;
      (** the succinct (BP bitvector + wavelet tags, v4) tree encoding
          actually stored *)
  containers_bytes : int;
  models_bytes : int;
  summary_bytes : int;
  index_bytes : int;
      (** the charge for the navigation directories (rank/select +
          min-excess blocks) an on-storage succinct layout would carry,
          computed from the node count and tag width — the v4
          counterpart of the old B+ page index. Nothing builds them: in
          memory the tree navigates flat pre-order arrays. *)
  total_bytes : int;
  essential_bytes : int;
      (** without access structures: values + models + dictionary +
          a forward-only structure tree *)
}

(** Measure the serialized size of each repository component. *)
val size_breakdown : t -> size_breakdown

(** 1 - cs/os, as defined in the paper's §5. *)
val compression_factor : t -> float

(** Serialize to the on-disk format v4, the only one written: magic
    "XQC\x04", a format-flags byte with bit 1 set (succinct structure
    tree), then the v2 section layout with block-structured containers.
    A save/load/save cycle is byte-exact. *)
val serialize : t -> string

(** Parse a serialized repository. Accepts exactly four headers: v4
    (magic "XQC\x04" + flags byte 2, succinct tree), v3 (magic
    "XQC\x03" + flags byte 1, packed tree), v2 (magic "XQC\x02", no
    flags byte, block-structured containers, plain-varint tree) and the
    legacy v1 record-wise format (no magic); v1 containers are
    re-blocked on load. Raises {!Corrupt} on anything else: a message
    starting ["repository: unsupported format"] for any other image that
    starts with "XQC", the failing section parser's message for input
    that is not an image or not a whole one. *)
val deserialize : string -> t

(** The one error {!deserialize} raises: the input is not a valid
    image. Damage inside blocks, which decode lazily, surfaces at query
    time instead. *)
exception Corrupt of string

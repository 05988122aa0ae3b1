(** Structure tree (§2.2), succinct edition. On disk the document shape
    is a balanced-parentheses bitvector and the tag codes a wavelet
    tree; in memory both are flat pre-order arrays built at load (tags,
    parents, subtree ends). The value pointers and text-marker positions
    are flat pre-order arrays too (CSR: per-node offsets into
    value-aligned arrays of packed container id and record index, and
    of marker position); every value of a node lives in one container,
    its summary node's. Ids are pre-order ranks. Child entries
    interleave element/attribute node ids (>= 0) with text markers
    (< 0, marker [-(slot+1)] standing for the node's value [slot]) so
    documents reconstruct in exact order. *)

(** The structure tree; node ids are pre-order ranks. The shape, tags
    and markers are fixed once built. The value pointers change only in
    place, and only once in a tree's life: {!set_containers} fills in
    the container ids of a tree read from an image. *)
type t

(** Number of element/attribute nodes. *)
val node_count : t -> int

(** Name-dictionary code of a node's tag. *)
val tag : t -> int -> int

(** Parent node id; -1 at the root. *)
val parent : t -> int -> int

(** Number of values a node points at: an element's immediate text
    children, an attribute node's value (0 or 1). *)
val value_count : t -> int -> int

(** The container all of a node's values live in; -1 for a node
    without values. *)
val value_container : t -> int -> int

(** [value_index t node slot]: record index of value [slot] (slot
    order is document order) in {!value_container}. Raises
    [Invalid_argument] unless [0 <= slot < value_count t node]. *)
val value_index : t -> int -> int -> int

(** [fold_entries t node f acc] folds [f] over the node's child entries
    in document order, allocating nothing: child node ids (>= 0) and
    text markers [-(slot+1)]. *)
val fold_entries : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** Child element/attribute node ids only. *)
val child_nodes : t -> int -> int list

(** Nodes in a node's subtree, itself included. *)
val subtree_size : t -> int -> int

(** Strict-ancestor test by pre-order interval containment. *)
val is_ancestor : t -> ancestor:int -> descendant:int -> bool

(** [children_with_tag t node tag]: child node ids carrying [tag],
    document order. *)
val children_with_tag : t -> int -> int -> int list

(** Descendants of a node occupy the pre-id range (id, last_descendant]. *)
val last_descendant : t -> int -> int

(** All proper descendants of a node, document order. *)
val descendants : t -> int -> int list

(** [descendants_with_tag t node tag]: proper descendants carrying
    [tag], document order, by one scan of the tag array over the
    subtree's pre-order interval. *)
val descendants_with_tag : t -> int -> int -> int list

(** [set_containers t conts ~records] makes [conts.(id)] the container
    of node [id]'s values, in place, checking each value's record index
    against [records.(conts.(id))], that container's record count;
    entries of nodes without values are ignored. A tree read from an
    image has container -1 everywhere until {!Repository.deserialize}
    resolves the ids from the structure summary and sets them here.
    Raises [Invalid_argument] unless [conts] has one entry per node, and
    [Failure] if a node with values names no container or an index is
    out of range. *)
val set_containers : t -> int array -> records:int array -> unit

(** {2 Document-order construction} *)

(** Accumulates nodes as the SAX loader walks the document. *)
type builder

(** Fresh empty builder. *)
val builder : unit -> builder

(** Register a node at element open; returns its (pre-order) id. *)
val open_node : builder -> tag:int -> int

(** The id the next {!open_node} will return. *)
val next_id : builder -> int

(** Freeze into the succinct tree. [rev_children] and [rev_values] hold
    each node's child entries and (container id, record index) value
    pointers in reverse document order (as accumulated by the loader).
    Raises [Failure] if child ids are not pre-order ranks, text markers
    are not sequential, or one node's values span two containers. *)
val finish :
  builder -> rev_children:int list array -> rev_values:(int * int) list array -> t

(** [deserialize_v2 s pos] parses a legacy (repository v1 and v2) tree
    at offset [pos], returning it with the offset past it. Per node:
    tag, parent delta, child-entry codes and value record indices, all
    plain varints. Raises [Failure] on corrupt input. *)
val deserialize_v2 : string -> int -> t * int

(** Parse a packed (repository v3) tree: the v2 node record with the
    child-entry codes and value record indices stored as zigzag
    delta+varint sequences ({!Compress.Ipack.read_deltas}). Raises
    [Failure] on corrupt input. *)
val deserialize_v3 : string -> int -> t * int

(** Append the succinct (repository v4) form: node count, the raw BP
    bitvector, the wavelet tag levels (re-encoded from the flat array
    at the width the tree was built or loaded with), then per node its delta-packed
    value record indices, marker count (only when it has values) and
    explicit marker positions (only for mixed content). No parent
    pointers, child lists, post ranks or page index are stored. *)
val serialize_succinct : Buffer.t -> t -> unit

(** Invert {!serialize_succinct}, decoding the wavelet levels to the
    flat tag array and the per-node records straight into the value and
    marker arrays; container ids are left at -1 (see
    {!set_containers}). Raises [Failure] on corrupt input, including a
    marker count above the node's value count and marker positions that
    decrease or exceed the node's child count. *)
val deserialize_succinct : string -> int -> t * int

(** Forward-only tree bytes for the essential-size experiment: shape
    bits + tag levels + marker info, no parent support, no value
    back-pointers, no rank directories. *)
val forward_only_bytes : t -> int

(** The charge for the navigation directories (rank/select and
    min-excess blocks over the BP bits and tag levels) that an
    on-storage succinct layout would carry — the v4 counterpart of the
    old B+ page index in the §2.2 breakdown. Nothing builds them: it is
    computed from the node count and tag width alone. *)
val index_bytes : t -> int

(** In-memory bytes of the navigation arrays built at load — the flat
    tag array and the per-node parents and subtree ends. Not part of
    the image, so not part of {!index_bytes}. *)
val nav_array_bytes : t -> int

(** In-memory bytes of the value arrays: the per-node offsets and the
    per-value packed pointers and marker positions. Not part of the
    image either. *)
val value_array_bytes : t -> int

(** Profiled physical plans ("EXPLAIN ANALYZE"): the executor builds a
    tree of operator nodes while it runs, each annotated with inclusive
    wall time, output cardinality, and how many predicate evaluations
    ran on compressed codes vs. decompress-then-compare (the
    distinction the paper's §3 cost model prices).

    The profile is an explicit object threaded through the evaluation
    context, so profiling works independently of the global
    {!Xquec_obs.set_enabled} switch (and costs nothing when no profile
    is attached). It is not thread-safe — one profile belongs to one
    evaluation on one domain. *)

(** One operator of the profiled plan tree. *)
type node = {
  op : string;  (** operator label, e.g. "child::item", "hash join $p" *)
  kind : string;  (** operator class for metric keys, e.g. "step", "hash_join" *)
  mutable attrs : (string * string) list;
  mutable wall_us : float;  (** inclusive wall time *)
  mutable rows : int;  (** output cardinality; -1 = not applicable *)
  mutable cmp_compressed : int;
      (** predicate evaluations decided on compressed codes at this node *)
  mutable cmp_decompressed : int;
      (** predicate evaluations that had to decompress values *)
  mutable cache_hits : int;  (** buffer-pool hits, inclusive of children *)
  mutable cache_misses : int;  (** buffer-pool misses (block decodes) *)
  mutable cache_waits : int;
      (** buffer-pool latch waits: fetches that blocked on another
          domain's in-flight decode of the same block *)
  mutable blocks_skipped : int;  (** blocks pruned via headers, never decoded *)
  mutable decoded_bytes : int;  (** bytes charged to the pool by this subtree *)
  mutable skipped_bytes : int;
      (** compressed payload bytes of the pruned blocks *)
  mutable rev_children : node list;  (** children, newest first (see {!children}) *)
}

(** An open profile: the root node plus the stack of open operators. *)
type t = { root : node; mutable stack : node list }

(** Fresh profile whose root operator is labelled [op]. *)
val create : ?attrs:(string * string) list -> string -> t

(** Run [f] as a child operator of the current node; [f] receives the
    fresh node so it can set rows / attach attributes. Wall time is
    inclusive of children. *)
val with_op : t -> kind:string -> string -> (node -> 'a) -> 'a

(** Set a node's output cardinality. *)
val set_rows : node -> int -> unit

(** Append attributes known only once the operator has run (e.g. the
    block fetches it made). *)
val add_attrs : node -> (string * string) list -> unit

(** Attribute [n] predicate evaluations to the innermost open operator. *)
val note_cmp : t -> compressed:bool -> int -> unit

(** Stamp a node's buffer-pool activity (hits/misses/latch waits/pruned
    blocks/bytes decoded, plus optionally the payload bytes of the
    pruned blocks). Like [wall_us] this is inclusive of the node's
    children: the executor records the delta of the process-wide pool
    counters around the operator's whole evaluation. *)
val set_cache :
  node ->
  ?skipped_bytes:int ->
  hits:int ->
  misses:int ->
  waits:int ->
  skipped:int ->
  decoded_bytes:int ->
  unit ->
  unit

(** Close the profile: stamp the root's wall time and cardinality and
    return the tree. *)
val finish : t -> wall_us:float -> rows:int -> node

(** Pre-order fold over a plan tree. *)
val fold : ('a -> node -> 'a) -> 'a -> node -> 'a

(** Tree-wide predicate-evaluation totals. *)
type totals = { operators : int; compressed : int; decompressed : int }

(** Sum operator count and predicate evaluations over a tree. *)
val totals : node -> totals

(** Render the tree as the indented text EXPLAIN ANALYZE prints. *)
val render : node -> string

(** The decisions the executor recorded while it ran: one line per
    operator with attributes, in pre-order. Those are a path answered
    from the summary ([summary_nodes], on its last step the summary
    answered), a batched path ([bindings],
    [est_rows], [fetches]), a pushdown ([containers], or
    [summary_paths] for an existence test), a hash join or sorted probe
    ([keys=codes|values]), a block merge join ([blocks_probed],
    [blocks_skipped]) and a decorrelation ([op], [keys]). Each line is
    the operator's label and its attributes; a step's label is prefixed
    with ["summary access"]. *)
val strategy : node -> string list

(** The EXPLAIN ANALYZE report: the [strategy:] section ({!strategy};
    omitted when empty), the [profiled plan:] ({!render}) and a
    totals line. *)
val report : node -> string

(** Compact single-line plan shape built from operator kinds, e.g.
    ["root(step(step,predicate))"] — a stable fingerprint for grouping
    query-log records by plan. *)
val shape : node -> string

(** Compact per-operator profile for the query log: one object per
    node with only op/kind/rows/wall_ms/cmp counts (children nested),
    a fraction of the size of the full node record. *)
val summary_json : node -> Json.t

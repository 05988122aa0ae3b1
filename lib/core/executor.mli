(** XQueC query executor (§4): evaluates the XQuery subset directly over
    the compressed repository.

    Paths resolve against the structure summary; value predicates push
    into containers and run on compressed codes whenever the codec
    supports the comparison class; uncorrelated FOR/LET sources evaluate
    once; paths rooted at a FOR variable evaluate once for all of its
    bindings, by a pre-order interval merge over the summary; value joins hash/probe compressed codes when both sides share
    a source model; single-conjunct-correlated nested FLWORs (the XMark
    Q8/Q9/Q10 pattern) decorrelate into build-once join tables; values
    decompress only on output. *)

open Storage

(** A result item. Values stay compressed ([Cval]) until serialization. *)
type item =
  | Node of int  (** structure-tree node id *)
  | Cval of { cont : Container.t; code : string }  (** compressed value *)
  | Att of string * item  (** attribute node: name + value *)
  | Str of string
  | Num of float
  | Bool of bool
  | Elem of Xmlkit.Tree.t  (** constructed element *)

(** A sequence with summary provenance; the [All_*] forms are symbolic
    "every instance under these summary nodes" and avoid materializing
    whole paths (Fig. 4). *)
type seqv =
  | Mat of item list
  | All_nodes of Summary.node list
  | All_values of Summary.node list

(** Where a binding sits in a binding set: the items one variable ranges
    over, shared by every tuple binding it. A path rooted at a member of
    a set is evaluated once for the whole set, and each tuple takes its
    run (set-at-a-time paths). *)
type origin

(** What a variable is bound to: its sequence, the summary nodes its
    items are instances of (provenance for later path steps), and its
    place in a binding set, if any. *)
type binding = { seq : seqv; snodes : Summary.node list; origin : origin }

(** Evaluation context threaded through every operator. *)
type ctx = {
  repo : Repository.t;
  prof : Xquec_obs.Explain.t option;  (** attached EXPLAIN profile, if any *)
  prof_ops : bool;  (** open operator nodes in the profile *)
}

(** A plain evaluation context (no profile attached). *)
val mk_ctx : Repository.t -> ctx

(** Variable environment: name (with leading ["$"]) to binding. *)
type env = (string * binding) list

(** Raised on semantic errors (unknown document, unbound variable, type
    mismatch in a comparison, …). *)
exception Eval_error of string

(** {2 Entry points} *)

(** Evaluate a parsed query against a repository. *)
val run : Repository.t -> Xquery.Ast.expr -> item list

(** Parse then {!run}. *)
val run_string : Repository.t -> string -> item list

(** Evaluate with per-operator profiling: results plus the root of the
    annotated plan tree (inclusive wall time, output cardinalities, and
    compressed-domain vs. decompress-then-compare predicate counts, and
    per-operator buffer-pool figures read from the calling domain's
    open {!Xquec_obs.Ledger}, opened around the evaluation when there
    is none). Independent of the global {!Xquec_obs.set_enabled}
    switch. *)
val run_profiled : Repository.t -> Xquery.Ast.expr -> item list * Xquec_obs.Explain.node

(** Serialize results, decompressing — the Decompress + XMLSerialize
    tail of every plan (§4, Fig. 5). *)
val serialize : Repository.t -> item list -> string

(** {2 Building blocks used by the physical algebra, plans and the
    optimizer} *)

(** Wrap an already-materialized list as a binding (no provenance). *)
val mat : item list -> binding

(** Force a binding to a concrete item list, expanding the symbolic
    [All_*] forms by walking the structure tree. *)
val materialize : ctx -> binding -> item list

(** Cardinality of a binding; counts [All_*] forms from the summary's
    per-snode instance counts without materializing. *)
val count : ctx -> binding -> int

(** Atomized string value of an item (decompresses a [Cval]). *)
val atom_string : ctx -> item -> string

(** Atomized numeric value, or [None] if the item is not a number. *)
val atom_number : ctx -> item -> float option

(** Evaluate an expression under an environment — the executor's core
    recursion, exposed for the physical algebra and EXPLAIN. *)
val eval : ctx -> env -> Xquery.Ast.expr -> binding

(** Reconstruct the XML subtree rooted at a node id. *)
val reconstruct : ctx -> int -> Xmlkit.Tree.t

(** String value of an element (all descendant text, attributes
    excluded). *)
val node_string_value : ctx -> int -> string

(** One summary step relative to a set of summary nodes. *)
val advance_snodes : ctx -> Summary.node list -> Xquery.Ast.step -> Summary.node list

(** {2 Predicate pushdown analysis} *)

(** A constant comparison operand. *)
type const_operand = Cstr of string | Cnum of float

(** Recognize a literal (string or number) as a constant operand. *)
val const_of_expr : Xquery.Ast.expr -> const_operand option

(** Predicate shapes the executor can push into container scans: a value
    comparison against a constant, a textual predicate, or a bare
    existence test — each with the context-relative path to the value. *)
type pushable =
  | P_value of Xquery.Ast.cmp_op * Xquery.Ast.step list * const_operand
  | P_textual of [ `Contains | `Starts_with ] * Xquery.Ast.step list * string
  | P_exists of Xquery.Ast.step list

(** Match a [where]-clause conjunct against the {!pushable} shapes. *)
val recognize_pushable : Xquery.Ast.expr -> pushable option

(** Resolve a context-relative value path to (container, hops to the
    candidate element) pairs, or [None] when unresolvable (or when the
    container records would not be semantically exact for the predicate:
    bare-element comparisons and — under [concat_semantics], used for
    contains/starts-with — multi-text instances). *)
val resolve_value_path :
  ?concat_semantics:bool ->
  ctx ->
  Summary.node list ->
  Xquery.Ast.step list ->
  (Container.t * int) list option

(** Containers a value-producing expression statically resolves to. *)
val static_value_containers : ctx -> env -> Xquery.Ast.expr -> Container.t list option

(** {2 Join key typing} *)

(** A hash-join key: a compressed code, or an atomized number/string. *)
type join_key = Kcode of string | Knum of float | Kstr of string

(** How both join sides will be keyed. *)
type key_mode =
  | Mode_code of int * Container.t
      (** both sides share this source model: probe compressed codes *)
  | Mode_atom

(** Choose the key mode for a join of two value expressions: compressed
    codes when both sides resolve to containers sharing one source
    model, else atomized values. *)
val join_key_mode : ctx -> env -> Xquery.Ast.expr -> Xquery.Ast.expr -> key_mode

(** {2 Block-interval merge join}

    The compressed-domain join fast path: when both key sides of an
    equality join resolve to sorted containers under one source model,
    the executor intersects the two sides' block bound intervals from
    headers alone, decodes only the overlapping blocks, and merges equal
    codes record-wise — values are never decompressed and
    non-overlapping blocks are never fetched. *)

(** Static applicability for the block merge join of the FOR variable
    [var]: both key expressions are single-variable value paths (the
    right side rooted at [var]) resolving to containers that share one
    [`Eq]-capable source model and are verified [sorted_run]s. Returns
    the (container, hops-to-variable) resolutions of the left and right
    sides. Shared with the optimizer's EXPLAIN, which pairs the sides'
    headers through {!Cost_model.block_join_estimate}. *)
val block_join_sides :
  ctx ->
  env ->
  var:string ->
  Xquery.Ast.expr ->
  Xquery.Ast.expr ->
  ((Container.t * int) list * (Container.t * int) list) option

(** Process-wide block-join counters, maintained as atomics (so they
    accumulate with telemetry off, like the buffer-pool stats):
    executions, blocks decoded, blocks skipped from headers alone, and
    the stored payload bytes those skipped blocks would have read. *)
type join_stats = {
  j_block_joins : int;
  j_blocks_probed : int;
  j_blocks_skipped : int;
  j_skipped_bytes : int;
}

(** Snapshot the cumulative block-join counters. *)
val join_stats : unit -> join_stats

(** Zero the block-join counters (benchmark / test isolation). *)
val reset_join_stats : unit -> unit

(** Enable or disable the block merge join (enabled by default); when
    off, equality joins always take the hash-join path — the
    differential tests and the bench's skip-ratio experiment toggle
    this. *)
val set_block_join : bool -> unit


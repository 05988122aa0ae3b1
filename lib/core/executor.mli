(** XQueC query executor (§4): evaluates the XQuery subset directly over
    the compressed repository. This module is the recursive core; §4's
    physical operators are modules of their own:
    {!Summary_access} (StructureSummaryAccess: paths resolve against the
    summary, and paths rooted at a FOR variable evaluate once for all of
    its bindings, by a pre-order interval merge), {!Cont_access}
    (ContAccess: value predicates push into containers, on codes only
    where one check says codes decide the comparison exactly, else on
    decompressed values, compared as numbers when both sides parse as
    numbers and as strings otherwise), {!Value_join} (hash joins and
    block merge joins on codes when both sides share a source model;
    single-conjunct-correlated nested FLWORs, the XMark Q8/Q9/Q10
    pattern, decorrelate into build-once join tables) and
    {!Value_access} (values decompress only on output); {!Exec_base}
    holds what they share. Uncorrelated FOR/LET sources evaluate once. *)

open Storage

(** A result item. Values stay compressed ([Cval]) until serialization. *)
type item = Exec_base.item =
  | Node of int  (** structure-tree node id *)
  | Cval of { cont : Container.t; code : string }  (** compressed value *)
  | Att of string * item  (** attribute node: name + value *)
  | Str of string
  | Num of float
  | Bool of bool
  | Elem of Xmlkit.Tree.t  (** constructed element *)

(** Raised on semantic errors (unknown document, unbound variable, type
    mismatch in a comparison, …). *)
exception Eval_error of string

(** {2 Entry points} *)

(** Evaluate a parsed query against a repository. *)
val run : Repository.t -> Xquery.Ast.expr -> item list

(** Evaluate with per-operator profiling: results plus the root of the
    annotated plan tree (inclusive wall time, output cardinalities, and
    compressed-domain vs. decompress-then-compare predicate counts, and
    per-operator buffer-pool figures read from the calling domain's
    open {!Xquec_obs.Ledger}, opened around the evaluation when there
    is none). Each operator that embodies a planning decision records
    it in its attributes as the decision is made: [summary_nodes] on
    the last step of a path that the summary answered (once per path),
    [containers] on a pushdown,
    [keys=codes|values] on a hash join, sorted probe or decorrelation
    (with the decorrelation's [op]), [blocks_probed]/[blocks_skipped]
    on a block merge join. {!Xquec_obs.Explain.strategy} lists them.
    Independent of the global {!Xquec_obs.set_enabled} switch. *)
val run_profiled : Repository.t -> Xquery.Ast.expr -> item list * Xquec_obs.Explain.node

(** Serialize results, decompressing — the Decompress + XMLSerialize
    tail of every plan (§4, Fig. 5). *)
val serialize : Repository.t -> item list -> string

(** {2 Block-interval merge join}

    The compressed-domain join fast path: when both key sides of an
    equality join resolve to sorted containers under one source model,
    the executor intersects the two sides' block bound intervals from
    headers alone, decodes only the overlapping blocks, and merges equal
    codes record-wise — values are never decompressed and
    non-overlapping blocks are never fetched. *)

(** Process-wide block-join counters, maintained as atomics (so they
    accumulate with telemetry off, like the buffer-pool stats):
    executions, blocks decoded, blocks skipped from headers alone, and
    the stored payload bytes those skipped blocks would have read. *)
type join_stats = Value_join.join_stats = {
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


(** Value joins (§4): the join keys; the build-once index behind the
    hash join, the sorted probe and the decorrelated nested FLWOR; and
    the block-interval merge join, which joins two sorted containers on
    their codes. *)

open Storage
open Exec_base

(** {2 Join keys and the build-side index} *)

(** A join key: a compressed code, or a value as a number or a string. *)
type join_key

(** How a join keys its sides: codes of one shared source model (the
    container is one of that model's, for re-compressing atoms), or
    decompressed values. *)
type key_mode = Mode_code of Container.t | Mode_atom

(** How a join or decorrelation keyed its sides, for their EXPLAIN rows. *)
val keys_attr : key_mode -> string * string

(** Observe a join for the workload fingerprint: a code-keyed join is
    container-resolved, so it notes a ["join"] predicate on its
    container ({!Xquec_obs.Ledger.note_pred}); a join on values has no
    container and notes nothing. [candidates] is the build side's size,
    [matches] the pairs it produced. *)
val note_join : key_mode -> candidates:int -> matches:int -> unit

(** The build side of a join, built once and probed per outer row: the
    hash join and the decorrelated nested FLWOR both use it. [inner]
    holds each inner row's keys and payload, in inner order. The
    returned probe takes an outer row's keys and yields the distinct
    payloads for which [outer op inner] holds on some key pair, in inner
    order: an equality probe looks keys up in a hash table, an
    inequality probe binary-searches a key-sorted array for the
    satisfying range. *)
val join_index : Xquery.Ast.cmp_op -> (join_key list * 'a) list -> join_key list -> 'a list

(** Codes key only an equality join. An inequality probe sorts its keys,
    and code order is not value order: Huffman codes carry none, and
    order-preserving codes compare numbers as strings. So an inequality
    keys on decompressed atoms, numbers compared as numbers. *)
val join_key_mode :
  ctx -> env -> Xquery.Ast.cmp_op -> Xquery.Ast.expr -> Xquery.Ast.expr -> key_mode

(** An item's keys under a key mode. *)
val join_key : ctx -> key_mode -> item -> join_key list

(** Find a consumable join conjunct between the new variable [var] and the
    already-bound variables. Removes it from [pending] when found. *)
val find_join :
  var:string ->
  bound:Analysis.Sset.t ->
  base_vars:Analysis.Sset.t ->
  Xquery.Ast.expr list ref ->
  (Xquery.Ast.cmp_op * Xquery.Ast.expr * Xquery.Ast.expr) option

(** {2 Block-interval merge join} *)

(** Process-wide block-join counters (re-exported as
    [Executor.join_stats]): the join fields of the
    {!Xquec_obs.Ledger} totals. *)
type join_stats = {
  j_block_joins : int;
  j_blocks_probed : int;
  j_blocks_skipped : int;
  j_skipped_bytes : int;
}

(** The cumulative block-join counters of every closed ledger. *)
val join_stats : unit -> join_stats

(** Zero the block-join fields of the ledger totals. *)
val reset_join_stats : unit -> unit

(** Enable or disable the block merge join (enabled by default). *)
val set_block_join : bool -> unit

(** A decided block merge join. *)
type block_plan

(** Decide whether the Eq join binding [var] can run as a block merge
    join, and if so build the full plan. Applicability is checked from
    block headers and the summary only — no payload is decoded here:
    - both key expressions are value paths rooted at a single variable,
      the right side at [var] itself, the left side at an already-bound
      variable with known provenance;
    - both sides resolve through {!Cont_access.resolve_value_path} to containers
      sharing one source model whose codec supports [`Eq], so equal
      plaintexts have equal codes and the merge compares compressed;
    - every container is a verified [sorted_run] (the precondition for
      the header interval sweep);
    - every source item is a distinct tree node and every tuple binds
      the left variable to a single node, so matched records map back
      through parent pointers to output positions;
    - the header-overlap estimate ({!Cost_model.prefer_block_join})
      favors the block join over the hash join. *)
val block_join_plan :
  ctx ->
  base:env ->
  typing_env:env ->
  var:string ->
  source:binding ->
  tuples:env list ->
  Xquery.Ast.expr ->
  Xquery.Ast.expr ->
  block_plan option

(** The block merge join row's record of its plan. *)
val block_join_attrs : block_plan -> (string * string) list

(** Execute a decided block merge join: account the skipped blocks,
    decode the probed ones, merge equal codes within each overlapping block pair, map
    matched records to (left node, right item) pairs through parent
    pointers, and emit per tuple in source-item order — exactly the
    output the hash join produces, without decompressing any value.
    It observes the join as the hash join does ({!note_join} under
    [mode], the join's {!join_key_mode}), so a query fingerprints the
    same whichever join method runs it. *)
val exec_block_join : ctx -> mode:key_mode -> var:string -> block_plan -> env list

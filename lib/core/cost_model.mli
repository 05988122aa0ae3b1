(** Cost model for compression configurations (§3.2): a weighted sum of
    measured container storage, source-model storage, and the
    decompression the workload would incur (the section's three cases:
    different algorithms / different source models / unsupported
    predicate class). *)

open Storage

(** A candidate partitioning: each set lists the container ids it merges
    and the compression algorithm the merged set would use. *)
type configuration = { sets : (int list * Compress.Codec.algorithm) list }

(** Relative importance of the three cost terms (§3.2's alpha/beta/gamma). *)
type weights = { w_storage : float; w_model : float; w_decompression : float }

(** Equal weighting of storage, model and decompression cost. *)
val default_weights : weights

(** An evaluator bound to one document's values and a workload; caches
    per-container samples so repeated {!cost} calls during the greedy
    search are cheap. *)
type t

(** [create values workload] builds an evaluator; [values id] is
    container [id]'s plain values in record order ({!Loader.values}).
    A container's values are read and sampled once, the first time an
    estimate names it. *)
val create : ?weights:weights -> (int -> string array) -> Workload.t -> t

(** (storage cost, model cost) estimate for one partition set, measured
    on samples under a model trained on the merged sample; infinite when
    the algorithm cannot represent the values: all of them, not only the
    sampled ones. *)
val estimate_set : t -> int list -> Compress.Codec.algorithm -> float * float

(** Total weighted cost of a configuration (lower is better). *)
val cost : t -> configuration -> float

(** {2 Block-interval join estimation}

    Header-only cost analysis for the executor's block merge join: given
    the block headers of two containers sorted on the same code domain,
    decide which block pairs can possibly hold equal codes and what the
    join would have to decode. Everything here reads bounds from headers
    — no payload is fetched. *)

(** The outcome of intersecting two sides' block bound intervals.
    [bj_pairs] lists every (left block, right block) pair whose
    [min,max] code intervals overlap; [bj_probe_left]/[bj_probe_right]
    flag the blocks appearing in at least one pair (the ones a block
    join decodes — all others are skipped outright). Byte totals split
    each side's stored payload into probed vs skipped;
    [bj_skip_fraction] is skipped blocks over total blocks on both
    sides. [bj_exact] is true when every probed block's bounds carry the
    [h_exact] bit — with capped (inexact) bounds the overlap test is
    still conservative, only potentially probing more than needed. *)
type block_join_estimate = {
  bj_pairs : (int * int) list;
  bj_probe_left : bool array;
  bj_probe_right : bool array;
  bj_left_probed_bytes : int;
  bj_left_skipped_bytes : int;
  bj_right_probed_bytes : int;
  bj_right_skipped_bytes : int;
  bj_probed_blocks : int;
  bj_skipped_blocks : int;
  bj_skip_fraction : float;
  bj_exact : bool;
}

(** [block_join_estimate left_headers right_headers] enumerates the
    overlapping block pairs of the two sides with a two-pointer sweep
    (sound because each side's [h_min] and [h_max] sequences are
    non-decreasing; complete even though blocks of one side may overlap
    each other). O(pairs + blocks), header-only. *)
val block_join_estimate :
  Container.header array -> Container.header array -> block_join_estimate

(** [prefer_block_join ests ~tuples] compares the estimated decode cost
    of a block merge join (probed payload bytes on both sides, summed
    over the container pairings [ests]) against a hash join keying
    [tuples] outer tuples: the full right-side payload plus up to one
    left block per tuple. True when the block join is no more
    expensive. *)
val prefer_block_join : block_join_estimate list -> tuples:int -> bool

(** The three cost terms of a configuration before weighting, plus their
    weighted total. *)
type cost_breakdown = { storage : float; model : float; decompression : float; total : float }

(** Per-term decomposition of {!cost} for the same configuration. *)
val breakdown : t -> configuration -> cost_breakdown

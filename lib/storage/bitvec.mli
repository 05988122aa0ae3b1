(** Succinct bitvector with two-level rank/select directories — the
    substrate of the balanced-parentheses structure tree (repository
    format v4). Only the raw bits are serialized; the directories
    (cumulative popcounts per 512-bit superblock, per-64-bit-block
    counts) are rebuilt at load time. *)

(** An immutable bitvector with rank/select support. *)
type t

(** Length in bits. *)
val length : t -> int

(** Number of set bits. *)
val ones : t -> int

(** Number of clear bits. *)
val zeros : t -> int

(** [get t i] is bit [i] (0-based). Raises [Invalid_argument] out of
    range. *)
val get : t -> int -> bool

(** [of_bytes ~len data] wraps [len] bits packed LSB-first, 8 per byte.
    Takes ownership of [data] ([(len+7)/8] bytes; padding bits are
    zeroed) and builds the rank directories. *)
val of_bytes : len:int -> Bytes.t -> t

(** [init len f] builds a bitvector with bit [i] set iff [f i]. *)
val init : int -> (int -> bool) -> t

(** [rank1 t i]: number of set bits in positions [0, i). Defined for
    [0 <= i <= length t]. *)
val rank1 : t -> int -> int

(** [rank0 t i]: number of clear bits in positions [0, i). *)
val rank0 : t -> int -> int

(** [select1 t k]: position of the [k]-th set bit, 1-based. Raises
    [Invalid_argument] unless [1 <= k <= ones t]. *)
val select1 : t -> int -> int

(** [select0 t k]: position of the [k]-th clear bit, 1-based. *)
val select0 : t -> int -> int

(** Bytes of raw bit data (what {!serialize} writes past the length). *)
val data_bytes : t -> int

(** Compact on-storage footprint of the rank directory (4 B per
    superblock + 2 B per block) — charged to the occupancy breakdown
    even though the in-memory arrays are rebuilt wider at load. *)
val overhead_bytes : t -> int

(** Append the varint bit length followed by the packed bytes. *)
val serialize : Buffer.t -> t -> unit

(** [deserialize s pos] inverts {!serialize}, returning the vector and
    the position past it. Raises [Failure] on truncated input. *)
val deserialize : string -> int -> t * int

(** Wavelet tree over an integer-code sequence: the on-disk encoding of
    the structure tree's tag array, [width] level bitvectors of [n] bits
    in the pointerless levelwise layout. It is only built, written, read
    and decoded back to a flat array; navigation never queries it. *)
module Wavelet : sig
  (** An encoded code sequence (the raw level bits, no directories). *)
  type t

  (** Number of codes in the sequence. *)
  val length : t -> int

  (** Bits per code. *)
  val width : t -> int

  (** Smallest width (>= 1) that represents [max_code]. *)
  val width_for : int -> int

  (** [build ~width codes] encodes the sequence; every code must fit in
      [width] bits. *)
  val build : width:int -> int array -> t

  (** The codes back as a flat array, in O(n * width): one sequential
      sweep per level, with two scratch permutations reused across
      levels. [decode (build ~width a) = a]. *)
  val decode : t -> int array

  (** Compact rank-directory footprint of [width] levels of [n] bits —
      what an on-storage design would charge for access support. *)
  val overhead_bytes : n:int -> width:int -> int

  (** Append varint [length], varint [width], then each level's packed
      bits. *)
  val serialize : Buffer.t -> t -> unit

  (** [deserialize s pos] inverts {!serialize}, returning the tree and
      the position past it. Raises [Failure] on corrupt input. *)
  val deserialize : string -> int -> t * int
end

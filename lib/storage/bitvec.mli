(** Packed bitvector: the on-disk substrate of the balanced-parentheses
    structure tree and of the wavelet tag levels (repository format
    v4). Only the raw bits exist; the structure tree reads them once at
    load into flat pre-order arrays, so no rank or select directory is
    built. *)

(** An immutable bitvector. *)
type t

(** Length in bits. *)
val length : t -> int

(** Number of set bits. *)
val ones : t -> int

(** [byte t i]: bits [8i] .. [8i + 7] as one byte value, bit [8i] in
    the least significant place (padding bits past the length are 0).
    Raises [Invalid_argument] out of range. *)
val byte : t -> int -> int

(** [of_bytes ~len data] wraps [len] bits packed LSB-first, 8 per byte.
    Takes ownership of [data] ([(len+7)/8] bytes; padding bits are
    zeroed). *)
val of_bytes : len:int -> Bytes.t -> t

(** [init len f] builds a bitvector with bit [i] set iff [f i]. *)
val init : int -> (int -> bool) -> t

(** [overhead_bytes_for len]: compact footprint of the two-level rank
    directory an on-storage succinct layout would carry over [len] bits
    (4 B per 512-bit superblock + 2 B per 64-bit block). Nothing builds
    it; the occupancy breakdown charges it. *)
val overhead_bytes_for : int -> int

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

  (** The codes back as a flat array, in O(n * width): a few
      sequential passes per level, splitting each run of equal prefix
      into its zeros and its ones. [decode (build ~width a) = a]. *)
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

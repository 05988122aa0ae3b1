(** Bit-level I/O shared by all codecs.

    Bits are written most-significant-first within each byte, so the
    byte-string comparison of two zero-padded bit streams coincides with
    the bit-sequence comparison — the property all order-preserving
    codecs in this library rely on. Multi-bit reads and writes move up
    to a byte's worth of bits per step, with output identical to
    bit-at-a-time I/O. *)

(** Append-only bit stream. *)
module Writer : sig
  (** A growable bit buffer. *)
  type t

  (** Fresh writer; [size] is the initial byte capacity. *)
  val create : ?size:int -> unit -> t

  (** Append a single bit. *)
  val add_bit : t -> bool -> unit

  (** [add_bits w v width] writes the [width] low bits of [v] (at most
      62), most significant first, emitting whole bytes where it can. *)
  val add_bits : t -> int -> int -> unit

  (** Number of bits written so far. *)
  val bit_length : t -> int

  (** Zero-pad to a byte boundary and return the bytes. *)
  val contents : t -> string
end

(** Sequential bit-stream consumer. *)
module Reader : sig
  (** A cursor over an immutable byte string. *)
  type t

  (** Raised when reading past the end of the stream. *)
  exception Out_of_bits

  (** Reader positioned at the string's first bit. *)
  val of_string : string -> t

  (** Bits left before {!Out_of_bits}. *)
  val bits_remaining : t -> int

  (** Consume one bit. *)
  val read_bit : t -> bool

  (** [read_bits r width] consumes [width] bits (at most 62), most
      significant first, a byte's worth per step. Raises {!Out_of_bits},
      consuming nothing, when fewer than [width] bits remain. *)
  val read_bits : t -> int -> int
end

(** Number of bits needed to represent values in [0, n-1]; at least 1. *)
val width_for : int -> int

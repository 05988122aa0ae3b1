(** Classical Huffman coding (Huffman 1952) over bytes, with an explicit
    end-of-string symbol so individually compressed values are
    self-delimiting.

    Codes are canonical, so the source model serializes as a bare array
    of code lengths. With a shared source model, equality of plaintexts
    coincides with equality of compressed byte strings, and a plaintext
    prefix compresses to a bit-prefix of the compressed value — the
    [eq] and [wild] properties of the paper's §3.2. Order is NOT
    preserved. *)

(** The source model: a canonical Huffman code. *)
type model

(** Raised when decompressing bytes no model run produced. *)
exception Corrupt of string

(** 256 byte symbols + the end-of-string symbol. *)
val symbol_count : int

(** Build a canonical-code model from code lengths. Raises {!Corrupt}
    when the lengths cannot form a prefix code (their Kraft sum exceeds
    1) or one exceeds {!max_code_len}. *)
val of_lengths : int array -> model

(** The longest code length a model may have: 56 bits, what the
    decoder's accumulator is guaranteed to hold. {!train} cannot reach
    it, as a 57-bit code needs more than 10{^11} input symbols. *)
val max_code_len : int

(** Train on values; every byte keeps a floor frequency of 1 so unseen
    values still compress. *)
val train : string list -> model

(** Train for raw-stream mode (no end-of-string symbol). *)
val train_raw : string -> model

(** Encode one value, terminated by the end-of-string symbol. *)
val compress : model -> string -> string

(** Invert {!compress}. Raises {!Corrupt} on invalid input, including a
    value that runs out of bits before its end-of-string symbol.

    Decoding is table-driven: 12 bits of a byte-refilled accumulator
    index a table of up to two symbols per entry, and longer codes
    resolve from the same accumulator by the canonical search. The table
    (4096 ints) is a pure function of the code lengths; it is built on a
    model's first decode, not by {!of_lengths}, so models that are
    trained but never decoded do not pay for it. Domains that race to
    build it build the same table. *)
val decompress : model -> string -> string

(** Encode a byte sequence of externally known length (no EOS). *)
val compress_raw : model -> string -> string

(** Invert {!compress_raw} given the original byte count, through the
    same decoder as {!decompress}. Raises {!Corrupt} when the stream
    holds fewer than [count] symbols or an end-of-string symbol. *)
val decompress_raw : model -> count:int -> string -> string

(** Equality in the compressed domain (both sides under one model). *)
val equal_compressed : string -> string -> bool

(** Bits of a plaintext prefix, for wildcard (prefix) matching. *)
val compress_prefix : model -> string -> string * int

(** Does [compressed] start with the given compressed prefix bits? *)
val matches_prefix : prefix_bits:string * int -> string -> bool

(** Serialize the code lengths for the repository. *)
val serialize_model : model -> string

(** Invert {!serialize_model}. Raises {!Corrupt} on invalid input,
    including length tables {!of_lengths} rejects. *)
val deserialize_model : string -> model

(** Serialized size in bytes (counted into the repository total). *)
val model_size : model -> int

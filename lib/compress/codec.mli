(** Uniform codec layer: every algorithm is described by the paper's
    §3.2 tuple <d_c, c_s(F), c_a(F), eq, ineq, wild> and exposes
    train / compress / decompress over a shared source model. It also
    frames container blocks: {!encode_block} and {!decode_block}, whose
    decode parses the payload in place into a codes array and a parents
    array (the block format itself is unchanged since v2). *)

(** The per-container compression algorithms the optimizer chooses
    among. *)
type algorithm =
  | Huffman_alg
  | Alm_alg
  | Arith_alg
  | Hu_tucker_alg
  | Bzip_alg
  | Numeric_alg

(** Every algorithm, in a fixed enumeration order. *)
val all_algorithms : algorithm list

(** Stable lowercase name ("huffman", "alm", ...), used in CLI flags and
    the repository format. *)
val algorithm_name : algorithm -> string

(** Invert {!algorithm_name}. Raises [Invalid_argument] on an unknown
    name. *)
val algorithm_of_name : string -> algorithm

(** Which predicate classes evaluate in the compressed domain. *)
type properties = { eq : bool; ineq : bool; wild : bool }

(** The <eq, ineq, wild> classification of the paper's §3.2. *)
val properties : algorithm -> properties

(** d_c: relative cost of decompressing one container record, the
    paper's §3.2 constants, kept so partitions and images do not change
    (they are not measurements; [codec_costs] in bench/main.ml measures
    the decoders). *)
val decompression_cost : algorithm -> float

(** A trained source model, tagged by algorithm (bzip is model-free). *)
type model =
  | M_huffman of Huffman.model
  | M_alm of Alm.model
  | M_arith of Arith.model
  | M_hu_tucker of Hu_tucker.model
  | M_bzip
  | M_numeric of Ipack.model

(** Raised when an algorithm cannot represent the values or the
    requested compressed-domain operation. *)
exception Unsupported of string

(** The algorithm a model was trained for. *)
val algorithm_of_model : model -> algorithm

(** Train a source model on container values; raises {!Unsupported}
    when the algorithm cannot represent them. *)
val train : algorithm -> string list -> model

(** Compress one value under the model. *)
val compress : model -> string -> string

(** Invert {!compress}, appending the value to a buffer. Each
    algorithm has this one decoder, so a value is decompressed straight
    into the buffer a result is serialized into, without a string of
    its own (the §4 Decompress + XMLSerialize tail). *)
val decompress_into : model -> string -> Buffer.t -> unit

(** Invert {!compress}: {!decompress_into} a fresh buffer. *)
val decompress : model -> string -> string

(** [encode_block records] packs a run of already-compressed container
    records [(code, parent)] into one block payload: varint framing plus
    an opportunistic LZSS second stage (chosen per block, whichever is
    smaller). The input order is preserved; containers rely on this to
    keep blocks code-sorted. *)
val encode_block : (string * int) array -> string

(** [decode_block ~count payload] inverts {!encode_block}, returning the
    codes and the parents as two parallel arrays. [count] must be the
    exact record count the block was encoded with (containers carry it
    in the block header). Codes come back still individually compressed
    — decoding a block does not decompress values. The body is parsed in
    place (no copy of the payload), through {!Lzss.decompress_at} for
    the LZSS stage. Raises [Failure] — never returning a partial array —
    on an empty payload, an unknown stage flag, a damaged LZSS stage, or
    a body shorter than [count] records. *)
val decode_block : count:int -> string -> string array * int array

(** Serialized model size in bytes (the c_s(F) storage cost). *)
val model_size : model -> int

(** Does the algorithm evaluate the given predicate class in the
    compressed domain? (Projection of {!properties}.) *)
val supports : algorithm -> [ `Eq | `Ineq | `Wild ] -> bool

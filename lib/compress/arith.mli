(** Static arithmetic coding (integer Witten-Neal-Cleary) — the third
    order-preserving candidate of the paper's §2.1.

    The cumulative-frequency table lists symbols in alphabetical order
    (end-of-string first), so the code maps strings to disjoint
    sub-intervals of [0,1) in lexicographic order: byte comparison of
    zero-padded code strings coincides with plaintext comparison. *)

(** The source model: a cumulative byte-frequency table. *)
type model

(** Raised when decompressing bytes no model run produced. *)
exception Corrupt of string

(** 257: the 256 byte values plus the end-of-string symbol. *)
val symbol_count : int

(** Model from raw symbol frequencies ({!symbol_count} entries, each
    forced to at least 1). *)
val of_freqs : int array -> model

(** Model from the byte frequencies of the training values. *)
val train : string list -> model

(** Encode a plaintext value. Order-preserving: [String.compare] on two
    codes orders them as their plaintexts. *)
val compress : model -> string -> string

(** Invert {!compress}. Raises {!Corrupt} on invalid input. *)
val decompress : model -> string -> string

(** Serialize the frequency table for the repository. *)
val serialize_model : model -> string

(** Invert {!serialize_model}. Raises {!Corrupt} on invalid input. *)
val deserialize_model : string -> model

(** Serialized size in bytes (counted into the repository total). *)
val model_size : model -> int

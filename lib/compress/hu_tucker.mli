(** Hu-Tucker optimal alphabetic (order-preserving) binary codes
    (Hu & Tucker 1971) — the order-preserving baseline ALM was compared
    against in the paper (§2.1). *)

(** The source model: an alphabetic canonical code. *)
type model

(** Raised when decompressing bytes no model run produced. *)
exception Corrupt of string

(** Model from the byte frequencies of the training values. *)
val train : string list -> model

(** Encode a plaintext value. Order-preserving: the alphabetic code,
    the end-of-string symbol sorting first and zero padding make
    [String.compare] on two codes order them as their plaintexts. *)
val compress : model -> string -> string

(** Invert {!compress}: {!decompress_into} a fresh buffer. Raises
    {!Corrupt} on invalid input. *)
val decompress : model -> string -> string

(** {!decompress}, appending the value to a buffer: the one value
    decoder. *)
val decompress_into : model -> string -> Buffer.t -> unit

(** Serialize the code lengths for the repository. *)
val serialize_model : model -> string

(** Invert {!serialize_model}. Raises {!Corrupt} on invalid input. *)
val deserialize_model : string -> model

(** Serialized size in bytes (counted into the repository total). *)
val model_size : model -> int

(** [combine weights] is the code length of each symbol: its leaf's
    depth in the Hu-Tucker combination of [weights] (each merge joins
    the lightest pair with no original leaf between them, leftmost on
    ties). At least one weight. *)
val combine : int array -> int array

(** Order-preserving packing for numeric containers (<type, pe>
    containers with an elementary numeric type, paper §1.1).

    Values are validated at training time (canonical integers, or
    fixed-point decimals with a uniform number of fraction digits) and
    packed as variable-length big-endian integers whose byte comparison
    coincides with numeric comparison. Round-trips the exact source
    text. *)

(** Value shape: canonical integers, or decimals with a fixed number of
    fraction digits. *)
type variant = Int | Decimal of int

(** The (tiny) source model is just the detected variant. *)
type model = { variant : variant }

(** Raised by {!train} when values are not uniformly numeric. *)
exception Unsupported of string

(** Raised when unpacking bytes no model run produced. *)
exception Corrupt of string

(** Raises {!Unsupported} when the values are not uniformly numeric. *)
val train : string list -> model

(** Pack one value's source text. Order-preserving: [String.compare]
    on two codes orders them as their numbers. *)
val compress : model -> string -> string

(** Invert {!compress}, reproducing the exact source text:
    {!decompress_into} a fresh buffer. Raises {!Corrupt} on invalid
    input. *)
val decompress : model -> string -> string

(** {!decompress}, appending the text to a buffer: the one decoder. It
    writes the digits itself, with no intermediate string. *)
val decompress_into : model -> string -> Buffer.t -> unit

(** Packed bound for comparing stored values against an arbitrary float
    constant: [`Ceil] gives the smallest representable value >= the
    constant, [`Floor] the largest <= it. *)
val pack_bound : model -> dir:[ `Ceil | `Floor ] -> float -> string

(** Packed code equal to the constant, when exactly representable. *)
val pack_exact : model -> float -> string option

(** {2 Delta + varint sequence packing}

    Generic helpers for packing integer sequences as consecutive
    zigzag-varint deltas (first element differenced against 0). Used by
    the packed structure-tree format: sequences whose neighbours are
    close — child-entry codes, ascending record indices — shrink to
    one byte per element regardless of magnitude. *)

(** [add_deltas buf len get] appends the sequence [get 0] ..
    [get (len - 1)]: [len] as a varint, then each element as the zigzag
    varint of its difference from the previous one (the first from
    0). *)
val add_deltas : Buffer.t -> int -> (int -> int) -> unit

(** Invert the zigzag mapping of {!add_deltas} (0 -> 0, 1 -> -1,
    2 -> 1, 3 -> -2, ...), for readers that take the varints one at a
    time ({!Rle.take_varint}). *)
val unzigzag : int -> int

(** [read_deltas s pos] inverts {!add_deltas}, returning the sequence
    and the offset past it. *)
val read_deltas : string -> int -> int array * int

(** Serialize the variant tag for the repository. *)
val serialize_model : model -> string

(** Invert {!serialize_model}. Raises {!Corrupt} on invalid input. *)
val deserialize_model : string -> model

(** Serialized size in bytes (counted into the repository total). *)
val model_size : model -> int

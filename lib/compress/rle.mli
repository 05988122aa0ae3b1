(** Zero-run-length coding for post-MTF streams, plus the varint
    primitives shared by the storage serializers. *)

(** Append an unsigned LEB128 varint to the buffer. *)
val add_varint : Buffer.t -> int -> unit

(** [read_varint s pos] returns the value and the position after it. *)
val read_varint : string -> int -> int * int

(** [take_varint s pos] returns the varint at byte [!pos] and advances
    [pos] past it, allocating nothing. Raises [Failure] when [s] ends
    inside the varint or its value overflows an int. *)
val take_varint : string -> int ref -> int

(** Collapse zero runs (bzip2's RUNA/RUNB-style bijective counting). *)
val encode : string -> string

(** Invert {!encode}. *)
val decode : string -> string

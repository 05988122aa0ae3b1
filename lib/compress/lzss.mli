(** LZSS (LZ77 family) with a 4 KiB window and hash-chain match finder —
    stands in for the gzip second pass of the XMill baseline. *)

(** Compress arbitrary bytes (self-framing; no model needed). *)
val compress : string -> string

(** Invert {!compress}. Raises [Failure] on invalid input: a truncated
    stream, a back-reference before the start of the output, or a match
    running past the declared length. *)
val decompress : string -> string

(** [decompress_at s off] is [decompress (String.sub s off ...)] without
    the copy: it decodes the stream starting at byte [off] of [s] into a
    string of exactly the declared length. Raises [Failure] like
    {!decompress}. *)
val decompress_at : string -> int -> string

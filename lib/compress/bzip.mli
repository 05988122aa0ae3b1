(** bzip2-like block compressor: BWT + MTF + zero-RLE + Huffman — the
    "generic compression algorithm (e.g. bzip)" of the paper's §3.3 and
    the per-container back end of the XMill baseline. Self-framing;
    multi-block above 256 KiB; tiny inputs skip the Huffman stage. *)

(** Raised when decompressing a malformed stream. *)
exception Corrupt of string

(** Plaintext bytes per BWT block (256 KiB). *)
val block_size : int

(** Compress arbitrary bytes (self-framing; no model needed). *)
val compress : string -> string

(** Invert {!compress}: {!decompress_into} a fresh buffer. Raises
    {!Corrupt} on invalid input. *)
val decompress : string -> string

(** {!decompress}, appending the bytes to a buffer: the one decoder. *)
val decompress_into : string -> Buffer.t -> unit

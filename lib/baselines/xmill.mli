(** XMill-like compressor (Liefke & Suciu, SIGMOD'00) — the
    compression-ratio baseline of Fig. 6. Containers are coalesced and
    compressed as whole chunks (BWT pipeline + LZSS), so individual
    values are NOT accessible: querying requires full decompression. *)

type t

val compress : string -> t

val compression_factor : t -> float

(** Full decompression — the only way to read an XMill archive.
    Whitespace-only text is not preserved; compare parsed trees. *)
val decompress : t -> string

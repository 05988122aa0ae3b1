(** XGrind-like compressor (Tolani & Haritsa, ICDE'02): homomorphic —
    dictionary-coded tags, values Huffman-compressed in place with
    per-path models. Querying is a fixed top-down scan of the whole
    stream supporting only exact/prefix matching in the compressed
    domain (§1.2 of the XQueC paper). *)

type t

val compress : string -> t

val compression_factor : t -> float

type event =
  | Start of string * int  (** tag, depth *)
  | End of string * int
  | Value of string * int * string  (** path, pool id, compressed code *)

(** Scan the whole compressed stream (the fixed top-down strategy). *)
val scan : t -> f:(event -> unit) -> unit

(** Exact-match query in the compressed domain: text values at
    [target_path] whose sibling value at [pred_path] equals [value];
    paths are slash-joined with [#text] / [@name] leaves. *)
val query_exact : t -> target_path:string -> pred_path:string -> value:string -> string list

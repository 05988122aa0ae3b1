(** ALM (Antoshenkov-Lomet-Murray) dictionary-based order-preserving
    string compression — the paper's key ingredient (§2.1, Fig. 2).

    The string space is partitioned into disjoint lexicographic
    intervals, each associated with a dictionary token (a prefix of every
    string in the interval) and a fixed-width code assigned in interval
    order. Byte comparison of compressed values coincides with plaintext
    comparison, so equality AND inequality predicates run in the
    compressed domain. A token that prefixes longer tokens receives
    several codes, one per gap between the longer tokens' regions —
    exactly the paper's Fig. 2. *)

(** The source model: an interval dictionary with code assignments. *)
type model

(** Raised when decompressing bytes no model run produced. *)
exception Corrupt of string

(** [mine_tokens ?max_tokens ?sample_bytes values] is the dictionary
    token list a model is built from, best first. The token set fixes a
    container's compressed bytes, so every rule below is part of the
    on-disk format:
    - {b Sample.} The values are taken in order while the byte budget
      [sample_bytes] (default 1 MiB) is still positive; each taken value
      spends its full length, so the last one may overrun it.
    - {b Candidates.} Every substring of a sampled value whose length is
      one of 2, 3, 4, 5, 6, 8, 10, 12, 16, 20 or 24 bytes. Substrings
      never span two values.
    - {b Cap.} The scan visits values in order, offsets left to right
      and, at each offset, lengths shortest first. Only the first 2{^18}
      distinct candidates it meets are counted; later ones are dropped.
    - {b Selection.} A candidate seen at least 3 times with count [c]
      and length [l] scores [c * (2l - 3) - 2l]. The result is the first
      [max_tokens] (default 512) candidates ordered by score, highest
      first.
    - {b Ties.} Equal scores order by [Hashtbl.hash tok land (b - 1)],
      highest first, and then by first occurrence. [b] is the smallest
      [4096 * 2{^k}] with [n <= 2b], for [n] distinct candidates
      counted: the bucket count a [Hashtbl.create 4096] reaches after
      [n] adds.
    The result depends on nothing else, not even on [OCAMLRUNPARAM=R].
    Counting allocates nothing per candidate; a string is built only for
    candidates seen at least 3 times. *)
val mine_tokens : ?max_tokens:int -> ?sample_bytes:int -> string list -> string list

(** Build a model from an explicit token set. The 256 single bytes are
    always included, guaranteeing total coverage; tokens shorter than
    two bytes and repeats are dropped. The tokens are sorted, and one
    pass over them, with the single bytes merged in, emits the intervals
    in code order; each interval ends where the next begins. *)
val of_tokens : string list -> model

(** Train on container values; the dictionary budget adapts to the
    container size so the source model never dwarfs the data. *)
val train : ?max_tokens:int -> ?sample_bytes:int -> string list -> model

(** Encode a plaintext value as a code-sequence byte string. Each code
    is found by a binary search of the interval bounds against the rest
    of the value, compared in place. *)
val compress : model -> string -> string

(** Invert {!compress}. Raises {!Corrupt} on invalid input. Codes are
    read from an accumulator refilled 48 bits at a time, and each code's
    token is copied, as 8-byte words, from one table of all the tokens
    into a buffer of the calling domain. The result is copied out of it
    at its exact length; it is a decode's only allocation unless it
    nears the buffer's 4 KiB. *)
val decompress : model -> string -> string

(** Bits per code. *)
val code_width : model -> int

(** The token each code stands for: element [c - 1] for code [c]
    (code 0 is padding). A fresh copy. *)
val code_tokens : model -> string array

(** The inclusive lower bound of each code's interval, in the order of
    {!code_tokens}; each interval ends at the next one's bound, and the
    last is unbounded. A fresh copy. *)
val code_bounds : model -> string array

(** Compressed bounds for a prefix wildcard [p*]: matching values are
    exactly those in [fst, snd) of the result (an extension beyond the
    paper's wild=false classification). *)
val prefix_range : model -> string -> string * string option

(** The mined (multi-byte) dictionary tokens, in increasing order; the
    model is a pure function of this list. *)
val model_tokens : model -> string list

(** Serialize the model (its token list) for the repository. *)
val serialize_model : model -> string

(** Invert {!serialize_model}. Raises {!Corrupt} on invalid input: a
    body shorter than its token count says, a token shorter than 2
    bytes, or tokens not strictly increasing. *)
val deserialize_model : string -> model

(** Serialized size in bytes (counted into the repository total),
    computed from the token lengths. *)
val model_size : model -> int

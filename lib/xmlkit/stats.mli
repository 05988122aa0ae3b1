(** Document statistics: the figures the paper quotes (value share of
    70-80%, element counts, depth) for Table 1 and §2.2. *)

type t = {
  elements : int;
  attributes : int;
  text_nodes : int;
  distinct_tags : int;
  max_depth : int;
  text_bytes : int;
  markup_bytes : int;
  serialized_bytes : int;
}

val value_share : t -> float

val of_document : Tree.document -> t

(** DOM parser built on the SAX layer. *)

exception Malformed of string * int

val parse_string : string -> Tree.document

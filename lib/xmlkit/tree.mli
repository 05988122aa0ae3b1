(** In-memory XML tree: elements with attributes and children, and text
    nodes. *)

type t =
  | Element of string * (string * string) list * t list
  | Text of string

type document = { root : t }

val text : string -> t

val tag : t -> string option

val children : t -> t list

val attr : t -> string -> string option

val is_text : t -> bool

(** Concatenation of all descendant text, document order. *)
val text_content : t -> string

(** Immediate text children only. *)
val immediate_text : t -> string

val descendants_with_tag : t -> string -> t list

val equal : t -> t -> bool

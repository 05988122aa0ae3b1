(** Structure summary (§2.2): the tree of all distinct paths in the
    document. Each summary node reachable by path p stores the document
    nodes reachable by p (document order); value-bearing paths point to
    their containers. This is the redundant access structure that lets
    queries skip parsing the structure tree (§2.3, Fig. 4). *)

type node = {
  tag : int;  (** name-dictionary code; -1 at the (document) root *)
  path : string;
  mutable kids : node list;
  mutable rev_ids : int list;  (** build-time accumulator *)
  mutable ids : int array;  (** instances, document order (after seal) *)
  mutable text_container : int option;
}

(** A summary; [root] represents the document node (tag -1). *)
type t = { root : node }

(** Fresh summary holding only the root. *)
val create : unit -> t

(** Child of the node with the given tag code, created (with path
    extended by [name]) if absent. *)
val child_or_create : node -> tag:int -> name:string -> node

(** Append a document node id to the node's instances (build time). *)
val add_id : node -> int -> unit

(** Freeze accumulated ids into arrays, recursively. *)
val seal_t : t -> unit

(** Child with the given tag code, if present. *)
val find_child : node -> int -> node option

(** All summary nodes in the subtree rooted at the argument (inclusive),
    prepended to the accumulator. *)
val descend_all : node -> node list -> node list

(** One navigation step over the summary: child/descendant axis, by tag
    code or wildcard. *)
type step = [ `Child of int | `Desc of int | `Child_any | `Desc_any ]

(** Apply one step relative to the given nodes. [is_attr] classifies tag
    codes so wildcard steps skip attribute paths. *)
val step_from : ?is_attr:(int -> bool) -> node list -> step -> node list

(** Match steps from the document root. *)
val match_steps : ?is_attr:(int -> bool) -> t -> step list -> node list

(** Document-order ids reachable through any of the given nodes. *)
val merged_ids : node list -> int array

(** Number of summary nodes (distinct paths, root included). *)
val node_count : t -> int

(** Append the summary's serialized form to the buffer. *)
val serialize : Buffer.t -> t -> unit

(** [deserialize ~dict s pos] parses a summary at offset [pos] (paths
    are rebuilt via [dict]), returning it with the offset past it.
    Raises [Failure] on corrupt input. *)
val deserialize : dict:Name_dict.t -> string -> int -> t * int

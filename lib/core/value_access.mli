(** Value access (§4's TextContent, Decompress and XMLSerialize): the
    values attached to tree nodes, read one at a time or a block at a
    time; the items of a binding; and the decompression of values and
    subtrees that ends every plan. *)

open Storage
open Exec_base

(** The values attached directly to a node, in slot order: an
    element's immediate text children, an attribute node's value. *)
val node_text_values : ctx -> int -> item list

(** A value reader for a pass over many value pointers (a batched
    path, a whole path's values) and its count of block fetches: each
    block it touches is fetched once, through one
    [Container.fetch_blocks], and codes are read straight from the
    decoded block. *)
val block_reader : ctx -> (int * int -> item) * int ref

(** The value of an attribute node. *)
val attr_node_value : ctx -> int -> item option

(** Decompress one code of a container. *)
val decompress_cval : Container.t -> string -> string

(** The string value of an element: all descendant text in document
    order (attributes excluded), decompressed. *)
val node_string_value : ctx -> int -> string

(** Reconstruct the XML subtree rooted at a node id (the document for
    {!doc_node_id}): the XMLSerialize + Decompress tail of a plan (§4,
    Fig. 5). *)
val reconstruct : ctx -> int -> Xmlkit.Tree.t

(** The id the virtual document node materializes as. *)
val doc_node_id : int

(** A binding's items, in document order. *)
val materialize : ctx -> binding -> item list

(** A binding's item count, without materializing summary-answered
    node sequences. *)
val count : ctx -> binding -> int

(** One binding per item, in order. Items of a batched path's run
    become members of the set the runs form, so paths rooted at the
    variable they bind are batched in turn. *)
val item_bindings : ctx -> binding -> binding list

(** An item's string value, decompressing compressed values. *)
val atom_string : ctx -> item -> string

(** An item's number, if its string value parses as one. *)
val atom_number : ctx -> item -> float option

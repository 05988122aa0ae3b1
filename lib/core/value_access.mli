(** Value access (§4's TextContent, Decompress and XMLSerialize): the
    values attached to tree nodes, read one at a time or a block at a
    time; the items of a binding; and the one result writer that ends
    every plan, which decompresses each value straight into the
    answer. *)

open Storage
open Exec_base

(** The values attached directly to a node, in slot order: an
    element's immediate text children, an attribute node's value, read
    through the context's held blocks. *)
val node_text_values : ctx -> int -> item list

(** [read_value ctx cid idx] is record [idx] of container [cid], still
    compressed, read through the context's held blocks
    ({!Exec_base.blocks}): a block is fetched through one
    [Container.fetch_blocks] unless the evaluation holds it already, and
    codes are read straight from the decoded block. Every value read of
    an evaluation goes through here; batched paths count their fetches
    off [ctx.values.fetches]. *)
val read_value : ctx -> int -> int -> item

(** The value of an attribute node. *)
val attr_node_value : ctx -> int -> item option

(** Decompress one code of a container. *)
val decompress_cval : Container.t -> string -> string

(** {2 The result writer}

    The Decompress + XMLSerialize tail of a plan (§4, Fig. 5), and the
    string values of nodes and constructed elements. A stored node is
    written by walking its pre-order interval over the structure tree:
    tags and attributes from the tag array, each value decompressed by
    {!Compress.Codec.decompress_into} straight onto the output buffer
    and escaped there. A constructed element ({!Exec_base.elem}) writes
    the stored subtrees and compressed values it holds the same way.
    Values are read through the context's held blocks
    ({!Exec_base.ctx} [values]), so a block an evaluation's string
    values, or a serialization, touches is fetched once while the held
    blocks stay under a quarter of the pool's budget. The bytes are
    those {!Xmlkit.Printer} prints for the same tree. *)

(** A writer appending to a buffer. *)
type writer

(** A writer onto [buf], reading through the context's held blocks. *)
val writer : ctx -> Buffer.t -> writer

(** Append a result item as the answer shows it: nodes and constructed
    elements as XML, an attribute as [name="value"] (escaped), any
    other item as its string value, unescaped. *)
val add_item : writer -> item -> unit

(** Append the XML of a stored node (the document, wrapped in a
    [#document] element, for {!doc_node_id}). [indent] lays it out as
    [Xmlkit.Printer]'s [~indent] does. *)
val add_node : ?indent:bool -> writer -> int -> unit

(** The string value of an element: all descendant text in document
    order (attributes excluded), decompressed. *)
val node_string_value : ctx -> int -> string

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

(** Items' string values joined by [sep], written into one buffer (a
    constructed text node's or attribute's value joins by a space). *)
val joined_string : ctx -> sep:string -> item list -> string

(** An item's number, if its string value parses as one. *)
val atom_number : ctx -> item -> float option

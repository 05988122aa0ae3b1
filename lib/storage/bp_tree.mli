(** Balanced-parentheses structure tree — repository format v4's
    pointer-free document shape: 2n bits ('(' = open, ')' = close,
    document order); node ids are pre-order ranks. The bits are the
    on-disk encoding only: {!of_bits} reads them once into a flat
    pre-order array (each node's parent and last descendant, one word
    per node), and every navigation step reads that array. *)

(** A validated parentheses sequence with its navigation arrays. *)
type t

(** [of_bits bits] validates a parentheses sequence and, in the same
    pass, records every node's parent and last descendant. Raises
    [Failure] if [bits] is not balanced (odd length, opens and closes
    out of balance, or a close before its open), or holds 2{^31} nodes
    or more (2{^15} on a 32-bit host). *)
val of_bits : Bitvec.t -> t

(** The underlying bitvector (what the v4 image serializes). *)
val bits : t -> Bitvec.t

(** Number of nodes (half the bit length). *)
val node_count : t -> int

(** [parent t i]: parent node id, or [-1] for the root. *)
val parent : t -> int -> int

(** [fold_children t i f acc] folds [f] over [i]'s children in
    document order, by pre-order arithmetic (the child after [c] is
    [last_descendant c + 1]). *)
val fold_children : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** All children of [i] in document order. *)
val children : t -> int -> int list

(** Number of children of [i]. *)
val degree : t -> int -> int

(** Largest node id in [i]'s subtree ([i] itself for a leaf). *)
val last_descendant : t -> int -> int

(** Nodes in [i]'s subtree, including [i]. *)
val subtree_size : t -> int -> int

(** [is_ancestor t ~ancestor ~descendant]: strict ancestorship, by
    pre-order interval containment. *)
val is_ancestor : t -> ancestor:int -> descendant:int -> bool

(** Compact directory footprint an on-storage succinct layout would
    carry to navigate the bits in place: the rank directory
    ({!Bitvec.overhead_bytes_for}) plus 2 B of minimum excess per
    256-bit block. Charged to the occupancy breakdown; never built. *)
val overhead_bytes : t -> int

(** In-memory bytes of the per-node parent and last-descendant array
    (built at load, never stored). *)
val nav_bytes : t -> int

(* Balanced-parentheses structure tree (repository format v4): the
   document shape as 2n bits — '(' on element open, ')' on close, in
   document order — with no per-node pointers on disk. Node ids are
   pre-order ranks, i.e. the rank of each node's open paren.

   Navigation never searches the bits. [of_bits] reads them once, with
   an open-node stack, into a flat pre-order array holding each node's
   parent (the stack top when it opens) and its last descendant (the
   last id opened when it closes). Pre-order ids make every step
   arithmetic on that array: node i's subtree is the id interval
   [i, last i], its first child is i+1, and the sibling after child c
   is last c + 1. *)

(* Positions per block of the minimum-excess directory an on-storage
   layout would add (see [overhead_bytes]). *)
let block_bits = 256

(* A node's cell packs its last descendant (itself for a leaf) into the
   low [id_bits] bits and its parent + 1 (0 at the root) above them: one
   array instead of two keeps the parent from adding a word per node to
   every resident tree. *)
let id_bits = (Sys.int_size - 1) / 2
let id_mask = (1 lsl id_bits) - 1

type t = {
  bits : Bitvec.t;  (* 2n bits; bit set = '(' *)
  n : int;  (* node count *)
  cells : int array;  (* per node: parent + 1 and last descendant, packed *)
}

let bits t = t.bits

let node_count t = t.n

let of_bits (bits : Bitvec.t) : t =
  let len = Bitvec.length bits in
  if len land 1 <> 0 then failwith "Bp_tree.of_bits: odd length";
  let n = len / 2 in
  if Bitvec.ones bits <> n then failwith "Bp_tree.of_bits: unbalanced";
  if n > id_mask then failwith "Bp_tree.of_bits: too many nodes";
  (* The parent links double as the open-node stack: a close pops back
     to the closing node's parent and fills in its last descendant. *)
  let cells = Array.make n 0 in
  let top = ref (-1) and next_id = ref 0 in
  for i = 0 to ((len + 7) / 8) - 1 do
    let byte = Bitvec.byte bits i in
    for k = 0 to min 7 (len - 1 - (8 * i)) do
      if byte lsr k land 1 = 1 then begin
        cells.(!next_id) <- (!top + 1) lsl id_bits;
        top := !next_id;
        incr next_id
      end
      else begin
        if !top < 0 then failwith "Bp_tree.of_bits: close before open";
        let v = !top in
        top := (cells.(v) lsr id_bits) - 1;
        cells.(v) <- cells.(v) lor (!next_id - 1)
      end
    done
  done;
  if !top >= 0 then failwith "Bp_tree.of_bits: unbalanced";
  { bits; n; cells }

let parent t i = (t.cells.(i) lsr id_bits) - 1

let last_descendant t i = t.cells.(i) land id_mask

let subtree_size t i = last_descendant t i - i + 1

let fold_children t i f acc =
  let stop = last_descendant t i in
  let rec go c acc = if c > stop then acc else go (last_descendant t c + 1) (f acc c) in
  go (i + 1) acc

let children t i =
  let stop = last_descendant t i in
  let[@tail_mod_cons] rec from c = if c > stop then [] else c :: from (last_descendant t c + 1) in
  from (i + 1)

let degree t i = fold_children t i (fun k _ -> k + 1) 0

let is_ancestor t ~ancestor ~descendant =
  ancestor < descendant && last_descendant t ancestor >= descendant

(* The directory an on-storage succinct layout would carry to navigate
   the bits in place: the bitvector's rank directory plus 2 bytes of
   block-minimum excess per 256-bit block (at least one block). It
   depends on the node count alone. *)
let overhead_bytes t =
  let len = 2 * t.n in
  Bitvec.overhead_bytes_for len + (2 * max 1 ((len + block_bits - 1) / block_bits))

let nav_bytes t = Array.length t.cells * (Sys.word_size / 8)

(* Balanced-parentheses succinct tree (repository format v4): the
   document shape as 2n bits — '(' on element open, ')' on close, in
   document order — so node i's identity is the position of the i-th
   open paren and every navigation primitive (parent, first child, next
   sibling, subtree size, depth, post rank) is answered by rank/select
   plus excess search over the bitvector, with no per-node pointers.

   Excess search uses a one-level range-min directory (the practical
   core of the rmM-tree of Navarro & Sadakane): the minimum excess per
   256-bit block, with a segment tree over the block minima to locate
   the nearest block that can contain the sought excess, then a bit
   scan inside that block. All searches here look for an excess value
   strictly below every excess on the skipped prefix/suffix, so block
   minima alone decide containment (the excess walk is ±1-continuous:
   a block whose minimum is <= the target and which is entered above
   the target must cross it).

   Pre-order ids make every downward step arithmetic once each node's
   last descendant is known: node i's subtree is the id interval
   [i, last i], its first child is i+1, and the sibling after child c is
   last c + 1. [of_bits] records those ends in the same pass that builds
   the directory, so children, subtree sizes and ancestor tests read an
   array; only upward and positional queries (parent, depth, post rank,
   findopen/findclose) run the rank/select and excess searches. *)

let block_bits = 256

type t = {
  bits : Bitvec.t;  (* 2n bits; bit set = '(' *)
  n : int;  (* node count *)
  block_min : int array;  (* min excess E(j) per block of positions *)
  seg : int array;  (* 1-based segment tree over block minima *)
  seg_size : int;  (* leaf count (power of two) *)
  ends : int array;  (* per node: its last descendant (itself for a leaf) *)
}

let bits t = t.bits

let node_count t = t.n

(* E(j): number of opens minus closes in positions [0, j]. E(-1) = 0. *)
let excess t j = (2 * Bitvec.rank1 t.bits (j + 1)) - (j + 1)

let of_bits (bits : Bitvec.t) : t =
  let len = Bitvec.length bits in
  if len land 1 <> 0 then failwith "Bp_tree.of_bits: odd length";
  let n = len / 2 in
  if Bitvec.ones bits <> n then failwith "Bp_tree.of_bits: unbalanced";
  let nblocks = (len + block_bits - 1) / block_bits in
  let block_min = Array.make (max nblocks 1) max_int in
  (* While a node is open, its [ends] cell links to the enclosing open
     node, so the cells double as the open-node stack; the close
     overwrites the link with the last id opened so far. *)
  let ends = Array.make n 0 in
  let top = ref (-1) and next_id = ref 0 in
  let e = ref 0 in
  for j = 0 to len - 1 do
    if Bitvec.get bits j then begin
      incr e;
      ends.(!next_id) <- !top;
      top := !next_id;
      incr next_id
    end
    else begin
      decr e;
      if !e < 0 then failwith "Bp_tree.of_bits: close before open";
      let v = !top in
      top := ends.(v);
      ends.(v) <- !next_id - 1
    end;
    let b = j / block_bits in
    if !e < block_min.(b) then block_min.(b) <- !e
  done;
  if len > 0 && !e <> 0 then failwith "Bp_tree.of_bits: unbalanced";
  let seg_size =
    let s = ref 1 in
    while !s < nblocks do
      s := !s * 2
    done;
    !s
  in
  let seg = Array.make (2 * seg_size) max_int in
  for b = 0 to nblocks - 1 do
    seg.(seg_size + b) <- block_min.(b)
  done;
  for i = seg_size - 1 downto 1 do
    seg.(i) <- min seg.(2 * i) seg.((2 * i) + 1)
  done;
  { bits; n; block_min; seg; seg_size; ends }

(* Leftmost block index >= [l] whose min excess is <= [target]; -1 if
   none. *)
let leftmost_block_le t ~l ~target =
  let rec go node lo hi =
    if hi <= l || t.seg.(node) > target then -1
    else if hi - lo = 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      let r = go (2 * node) lo mid in
      if r >= 0 then r else go ((2 * node) + 1) mid hi
    end
  in
  go 1 0 t.seg_size

(* Rightmost block index < [r] whose min excess is <= [target]; -1 if
   none. *)
let rightmost_block_le t ~r ~target =
  let rec go node lo hi =
    if lo >= r || t.seg.(node) > target then -1
    else if hi - lo = 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      let x = go ((2 * node) + 1) mid hi in
      if x >= 0 then x else go (2 * node) lo mid
    end
  in
  go 1 0 t.seg_size

(* Smallest j >= [from] with E(j) = [target]. Precondition (holds for
   every caller): target < E(from - 1), and the excess stays above
   [target] on [from-1, answer). Raises if there is no answer. *)
let fwd_search t ~from ~target =
  let len = Bitvec.length t.bits in
  let e = ref (excess t (from - 1)) in
  let j = ref from in
  let block_end = (((from / block_bits) + 1) * block_bits) - 1 in
  let result = ref (-1) in
  while !result < 0 && !j <= min block_end (len - 1) do
    e := !e + (if Bitvec.get t.bits !j then 1 else -1);
    if !e = target then result := !j else incr j
  done;
  if !result >= 0 then !result
  else begin
    match leftmost_block_le t ~l:((from / block_bits) + 1) ~target with
    | -1 -> failwith "Bp_tree.fwd_search: not found"
    | b ->
      let start = b * block_bits in
      let e = ref (excess t (start - 1)) in
      let j = ref start in
      while !result < 0 do
        e := !e + (if Bitvec.get t.bits !j then 1 else -1);
        if !e = target then result := !j else incr j
      done;
      !result
  end

(* Largest j < [from] with E(j) = [target], counting the virtual
   position -1 with E(-1) = 0. Precondition: the excess stays above
   [target] on (answer, from). [None] if there is no such j. *)
let bwd_search t ~from ~target =
  let scan_down ~j0 ~e0 ~stop =
    (* e0 = E(j0); walk j down to [stop], returning the first hit *)
    let e = ref e0 and j = ref j0 in
    let result = ref None in
    while !result = None && !j >= stop do
      if !e = target then result := Some !j
      else begin
        e := !e - (if Bitvec.get t.bits !j then 1 else -1);
        decr j
      end
    done;
    !result
  in
  let from_block = from / block_bits in
  let block_start = from_block * block_bits in
  match scan_down ~j0:(from - 1) ~e0:(excess t (from - 1)) ~stop:block_start with
  | Some j -> Some j
  | None -> (
    match rightmost_block_le t ~r:from_block ~target with
    | -1 -> if target = 0 then Some (-1) else None
    | b ->
      let last = ((b + 1) * block_bits) - 1 in
      scan_down ~j0:last ~e0:(excess t last) ~stop:(b * block_bits))

(* --- parenthesis-level operations ----------------------------------- *)

let pos_of_node t i =
  if i < 0 || i >= t.n then invalid_arg "Bp_tree.pos_of_node";
  Bitvec.select1 t.bits (i + 1)

let node_of_open t p = Bitvec.rank1 t.bits (p + 1) - 1

let findclose t p = fwd_search t ~from:(p + 1) ~target:(excess t p - 1)

let findopen t c =
  match bwd_search t ~from:c ~target:(excess t c) with
  | Some j -> j + 1
  | None -> failwith "Bp_tree.findopen: not a close"

let enclose t p =
  let d = excess t p in
  if d < 2 then None
  else
    match bwd_search t ~from:p ~target:(d - 2) with
    | Some j -> Some (j + 1)
    | None -> None

(* --- node-level operations (ids are pre-order ranks) ---------------- *)

let parent t i =
  match enclose t (pos_of_node t i) with None -> -1 | Some q -> node_of_open t q

let depth t i = excess t (pos_of_node t i) - 1

let last_descendant t i = t.ends.(i)

let subtree_size t i = t.ends.(i) - i + 1

let first_child t i = if i < t.ends.(i) then Some (i + 1) else None

(* The sibling after [i], if any, is [last i + 1]; it exists when that id
   still lies inside the parent's interval. *)
let next_sibling t i =
  let p = parent t i in
  let s = t.ends.(i) + 1 in
  if p >= 0 && s <= t.ends.(p) then Some s else None

let fold_children t i f acc =
  let stop = t.ends.(i) in
  let rec go c acc = if c > stop then acc else go (t.ends.(c) + 1) (f acc c) in
  go (i + 1) acc

let children t i =
  let stop = t.ends.(i) in
  let[@tail_mod_cons] rec from c = if c > stop then [] else c :: from (t.ends.(c) + 1) in
  from (i + 1)

let degree t i = fold_children t i (fun k _ -> k + 1) 0

let post_rank t i = Bitvec.rank0 t.bits (findclose t (pos_of_node t i) + 1) - 1

let is_ancestor t ~ancestor ~descendant =
  ancestor < descendant && t.ends.(ancestor) >= descendant

(* Compact directory footprint past the raw bits: the bitvector's rank
   directory plus 2 bytes of block-minimum per 256-bit block (the
   segment tree is rebuilt at load, as are all directories). *)
let overhead_bytes t = Bitvec.overhead_bytes t.bits + (2 * Array.length t.block_min)

let ends_bytes t = Array.length t.ends * (Sys.word_size / 8)

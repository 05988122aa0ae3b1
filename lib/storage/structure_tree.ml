(* Structure tree (§2.2), succinct edition (repository format v4): the
   node records of the paper (ID, tag code, children, parent). On disk
   the shape is a balanced-parentheses bitvector and the tag codes a
   wavelet tree ({!Bitvec.Wavelet}); in memory both are flat pre-order
   arrays built at load — the tags, and {!Bp_tree}'s parents and
   subtree ends. A save re-encodes the wavelet from the flat tags, at
   the width the image declared. IDs are pre-order ranks, so they
   coincide with document order and with the open-paren ranks of the
   BP sequence.

   The links from nodes to values are flat too, in compressed sparse
   row (CSR) form: one offsets array indexed by node id into two
   value-aligned arrays in pre-order, one holding each value's container
   id and record index packed in one word, the other its text-marker
   position. Nothing is allocated per node, on load or on access.

   Child entries interleave element/attribute node ids (>= 0) with text
   markers (< 0): marker -(slot+1) stands for the node's value [slot].
   Markers always reference slots 0, 1, ... in document order (the SAX
   loader emits them that way), so only the number of element children
   before each marker is recorded. *)

type t = {
  bp : Bp_tree.t;  (* shape: one '(' ')' pair per element/attribute *)
  tags : Bytes.t;  (* name-dictionary code per node, pre-order *)
  cell : int;
      (* bytes per [tags] entry, little-endian: 1 while every code fits
         in 8 bits, 2 up to 16, ceil(width/8) beyond *)
  tag_width : int;  (* bits per code in the on-disk wavelet encoding *)
  val_off : int array;
      (* n + 1 entries: node [id]'s values are entries [val_off.(id)] to
         [val_off.(id + 1) - 1] of the two arrays below, in slot order *)
  vals : int array;
      (* per value: (container id + 1) lsl [idx_bits] lor record index;
         container part 0 (id -1) until {!set_containers}. Rewritten in
         place by [set_containers] only. *)
  marks : int array;
      (* per value: the number of element children before its text
         marker, or -1 for a value without one (an attribute's value).
         Markers belong to a node's first slots, so the -1s come last;
         positions are non-decreasing and at most the child count. *)
}

(* Record indices take the low half of a value word, as in {!Bp_tree}'s
   cells; an image whose containers hold more records is refused. *)
let idx_bits = (Sys.int_size - 1) / 2
let idx_mask = (1 lsl idx_bits) - 1

let pack ~cont idx =
  if idx < 0 || idx > idx_mask then failwith "structure_tree: record index out of range";
  ((cont + 1) lsl idx_bits) lor idx

let node_count t = Bp_tree.node_count t.bp

let tag t id =
  match t.cell with
  | 1 -> Char.code (Bytes.get t.tags id)
  | 2 -> Bytes.get_uint16_le t.tags (2 * id)
  | k ->
    let v = ref 0 in
    for b = k - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.get t.tags ((k * id) + b))
    done;
    !v

(* Pack codes of at most [width] bits into the narrowest cells. *)
let pack_tags ~width (codes : int array) =
  let cell = (width + 7) / 8 in
  let tags = Bytes.create (cell * Array.length codes) in
  Array.iteri
    (fun id c ->
      for b = 0 to cell - 1 do
        Bytes.set tags ((cell * id) + b) (Char.unsafe_chr ((c lsr (8 * b)) land 0xff))
      done)
    codes;
  (tags, cell)

let tag_wavelet t =
  Bitvec.Wavelet.build ~width:t.tag_width (Array.init (node_count t) (tag t))

let parent t id = Bp_tree.parent t.bp id

let value_count t id = t.val_off.(id + 1) - t.val_off.(id)

let value_container t id =
  let j = t.val_off.(id) in
  if j = t.val_off.(id + 1) then -1 else (t.vals.(j) lsr idx_bits) - 1

let value_index t id slot =
  if slot < 0 || slot >= value_count t id then invalid_arg "Structure_tree.value_index";
  t.vals.(t.val_off.(id) + slot) land idx_mask

(** Child element/attribute node ids only, document order. *)
let child_nodes t id = Bp_tree.children t.bp id

(** Nodes in the subtree of [id], including [id]. *)
let subtree_size t id = Bp_tree.subtree_size t.bp id

let has_children t id = Bp_tree.last_descendant t.bp id > id

(* Text markers of a node: its first slots with a position. *)
let marker_count t id =
  let v0 = t.val_off.(id) and v1 = t.val_off.(id + 1) in
  let j = ref v0 in
  while !j < v1 && t.marks.(!j) >= 0 do
    incr j
  done;
  !j - v0

(** Child entries (node ids and text markers) in document order, by
    merging the BP children with the marker positions: a marker goes
    before the child whose rank equals its position, and after the last
    child when its position is the child count. *)
let fold_entries t id f acc =
  let v0 = t.val_off.(id) and v1 = t.val_off.(id + 1) in
  let stop = Bp_tree.last_descendant t.bp id in
  (* [c]: next child, [k]: children passed, [j]: next value's entry *)
  let rec go c k j acc =
    let marker = j < v1 && t.marks.(j) >= 0 in
    if marker && (c > stop || t.marks.(j) <= k) then go c k (j + 1) (f acc (v0 - j - 1))
    else if c > stop then acc
    else go (Bp_tree.last_descendant t.bp c + 1) (k + 1) j (f acc c)
  in
  go (id + 1) 0 v0 acc

(** Strict-ancestor test by pre-order interval containment. *)
let is_ancestor t ~ancestor ~descendant =
  Bp_tree.is_ancestor t.bp ~ancestor ~descendant

(** children with a given tag code, preserving document order. *)
let children_with_tag t id tag_code =
  List.rev
    (Bp_tree.fold_children t.bp id
       (fun acc c -> if tag t c = tag_code then c :: acc else acc)
       [])

(** Last descendant (pre id) of [id]: descendants are exactly the pre ids
    in (id, last_descendant id]. *)
let last_descendant t id = Bp_tree.last_descendant t.bp id

(** All descendants of [id] (excluding [id]), document order. *)
let descendants t id =
  let stop = last_descendant t id in
  List.init (stop - id) (fun i -> id + 1 + i)

(** Descendants of [id] carrying [tag_code], document order, by one
    scan of the tag array over the subtree's pre-order interval. *)
let descendants_with_tag t id tag_code =
  let acc = ref [] in
  for d = last_descendant t id downto id + 1 do
    if tag t d = tag_code then acc := d :: !acc
  done;
  !acc

let set_containers t conts ~records =
  let n = node_count t in
  if Array.length conts <> n then invalid_arg "Structure_tree.set_containers";
  for id = 0 to n - 1 do
    let a = t.val_off.(id) and b = t.val_off.(id + 1) in
    if b > a then begin
      let c = conts.(id) in
      if c < 0 || c >= Array.length records then failwith "structure_tree: value without container";
      for j = a to b - 1 do
        let idx = t.vals.(j) land idx_mask in
        if idx >= records.(c) then failwith "structure_tree: record index out of range";
        t.vals.(j) <- pack ~cont:c idx
      done
    end
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Shared assembly: turn explicit per-node arrays (from the builder or
   from a v1/v2/v3 image) into the succinct form, validating the
   pre-order and marker invariants the bitvector encoding relies on.
   [values] holds each node's record indices, [conts] its container. *)
let of_arrays ~(tags : int array) ~(children : int array array)
    ~(values : int array array) ~(conts : int array) : t =
  let n = Array.length tags in
  let val_off = Array.make (n + 1) 0 in
  for id = 0 to n - 1 do
    val_off.(id + 1) <- val_off.(id) + Array.length values.(id)
  done;
  let vals = Array.make val_off.(n) 0 and marks = Array.make val_off.(n) (-1) in
  Array.iteri
    (fun id entries ->
      Array.iteri (fun slot idx -> vals.(val_off.(id) + slot) <- pack ~cont:conts.(id) idx) values.(id);
      (* text-marker positions, checking markers are sequential per node *)
      let slot = ref 0 and ci = ref 0 in
      Array.iter
        (fun e ->
          if e >= 0 then incr ci
          else begin
            if -e - 1 <> !slot then failwith "structure_tree: non-sequential text markers";
            if !slot >= Array.length values.(id) then
              failwith "structure_tree: text marker without value";
            marks.(val_off.(id) + !slot) <- !ci;
            incr slot
          end)
        entries)
    children;
  (* balanced-parentheses bits by an explicit-stack DFS over the child
     lists, checking ids really are pre-order ranks *)
  let data = Bytes.make (((2 * n) + 7) / 8) '\000' in
  let pos = ref 0 in
  let emit_open () =
    Bytes.set data (!pos lsr 3)
      (Char.chr (Char.code (Bytes.get data (!pos lsr 3)) lor (1 lsl (!pos land 7))));
    incr pos
  in
  let next = ref 0 in
  let visit stack id =
    if id >= n || id <> !next then failwith "structure_tree: children not in pre-order";
    incr next;
    emit_open ();
    stack := (id, ref 0) :: !stack
  in
  if n > 0 then begin
    let stack = ref [] in
    visit stack 0;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (id, k) :: rest ->
        let entries = children.(id) in
        while !k < Array.length entries && entries.(!k) < 0 do
          incr k
        done;
        if !k < Array.length entries then begin
          let c = entries.(!k) in
          incr k;
          visit stack c
        end
        else begin
          incr pos (* close: bit stays 0 *);
          stack := rest
        end
    done;
    if !next <> n then failwith "structure_tree: disconnected nodes"
  end;
  let bp = Bp_tree.of_bits (Bitvec.of_bytes ~len:(2 * n) data) in
  let tag_width = Bitvec.Wavelet.width_for (Array.fold_left max 0 tags) in
  let tags, cell = pack_tags ~width:tag_width tags in
  { bp; tags; cell; tag_width; val_off; vals; marks }

type builder = {
  mutable b_tags : int list; (* reversed: id order *)
  mutable next_id : int;
}

let builder () = { b_tags = []; next_id = 0 }

(* The builder is driven in document order: open_node returns the fresh id.
   The loader accumulates child lists and value pointers itself (it knows
   them only as parsing proceeds) and hands them to [finish] as reversed
   per-node lists. *)
let open_node (b : builder) ~tag : int =
  let id = b.next_id in
  b.next_id <- id + 1;
  b.b_tags <- tag :: b.b_tags;
  id

let next_id (b : builder) = b.next_id

let finish (b : builder) ~(rev_children : int list array)
    ~(rev_values : (int * int) list array) : t =
  let tags = Array.of_list (List.rev b.b_tags) in
  let children = Array.map (fun l -> Array.of_list (List.rev l)) rev_children in
  let conts = Array.make (Array.length rev_values) (-1) in
  let values =
    Array.mapi
      (fun id l ->
        List.iter
          (fun (c, _) ->
            if conts.(id) < 0 then conts.(id) <- c
            else if conts.(id) <> c then
              failwith "structure_tree: values of one node in two containers")
          l;
        Array.of_list (List.rev_map snd l))
      rev_values
  in
  of_arrays ~tags ~children ~values ~conts

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* Succinct variant (repository format v4): the shape as the raw BP
   bitvector, tags as the wavelet tree's level bitvectors, then per
   node its value record indices (delta-packed), its marker count when
   it has values at all, and explicit marker positions only for mixed
   content (both markers and element children). Parent pointers, child
   lists, post ranks and the B+ page index are not stored — the load
   rebuilds the parent and subtree-end arrays and the flat tag
   array. *)
let serialize_succinct buf (t : t) =
  let add_varint = Compress.Rle.add_varint in
  let n = node_count t in
  add_varint buf n;
  Bitvec.serialize buf (Bp_tree.bits t.bp);
  Bitvec.Wavelet.serialize buf (tag_wavelet t);
  for id = 0 to n - 1 do
    let v0 = t.val_off.(id) in
    let k = t.val_off.(id + 1) - v0 in
    Compress.Ipack.add_deltas buf k (fun slot -> t.vals.(v0 + slot) land idx_mask);
    if k > 0 then begin
      let m = marker_count t id in
      add_varint buf m;
      if m > 0 && has_children t id then
        Compress.Ipack.add_deltas buf m (fun slot -> t.marks.(v0 + slot))
    end
  done

(* [a] with room for at least [need] entries, doubled when it grows. *)
let ensure (a : int array) need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* One pass over the per-node records, straight into the CSR arrays:
   varints are taken in place ({!Compress.Rle.take_varint}), so nothing
   is allocated per node. A value count larger than the bytes left, or
   a marker count larger than the value count, is rejected before
   anything is sized by it. *)
let deserialize_succinct (s : string) (pos : int) : t * int =
  let (n, pos) = Compress.Rle.read_varint s pos in
  let (bits, pos) = Bitvec.deserialize s pos in
  if Bitvec.length bits <> 2 * n then failwith "structure_tree: BP length mismatch";
  let bp = Bp_tree.of_bits bits in
  let (wavelet, pos) = Bitvec.Wavelet.deserialize s pos in
  if Bitvec.Wavelet.length wavelet <> n then failwith "structure_tree: tag count mismatch";
  let tag_width = Bitvec.Wavelet.width wavelet in
  let tags, cell = pack_tags ~width:tag_width (Bitvec.Wavelet.decode wavelet) in
  let val_off = Array.make (n + 1) 0 in
  let vals = ref (Array.make n 0) and marks = ref (Array.make n 0) in
  let len = String.length s and pos = ref pos in
  let take () = Compress.Rle.take_varint s pos in
  for id = 0 to n - 1 do
    let v0 = val_off.(id) in
    let k = take () in
    if k > len - !pos then failwith "structure_tree: truncated value pointers";
    val_off.(id + 1) <- v0 + k;
    if k > 0 then begin
      let vs = ensure !vals (v0 + k) and ms = ensure !marks (v0 + k) in
      vals := vs;
      marks := ms;
      let prev = ref 0 in
      for j = v0 to v0 + k - 1 do
        prev := !prev + Compress.Ipack.unzigzag (take ());
        vs.(j) <- pack ~cont:(-1) !prev
      done;
      let m = take () in
      if m > k then failwith "structure_tree: text marker without value";
      for j = v0 + m to v0 + k - 1 do
        ms.(j) <- -1
      done;
      (* positions are explicit only for mixed content; otherwise every
         marker precedes the (absent) element children *)
      if m > 0 && Bp_tree.last_descendant bp id > id then begin
        if take () <> m then failwith "structure_tree: marker count mismatch";
        let degree = Bp_tree.degree bp id in
        let prev = ref 0 in
        for j = v0 to v0 + m - 1 do
          let p = !prev + Compress.Ipack.unzigzag (take ()) in
          if p < !prev then failwith "structure_tree: marker positions decrease";
          if p > degree then failwith "structure_tree: marker position past the child count";
          ms.(j) <- p;
          prev := p
        done
      end
      else
        for j = v0 to v0 + m - 1 do
          ms.(j) <- 0
        done
    end
  done;
  let total = val_off.(n) in
  ( {
      bp;
      tags;
      cell;
      tag_width;
      val_off;
      vals = Array.sub !vals 0 total;
      marks = Array.sub !marks 0 total;
    },
    !pos )

(* Readers for the explicit-record trees of repository formats v1/v2
   and v3 (no longer written). Per node: tag, parent delta, child-entry
   codes (a child node c as the even code 2 * (c - id), text marker -k
   as the odd code 2k - 1) and value record indices; container ids are
   resolved by the repository loader. v2 stores
   codes and indices as plain varints, v3 as zigzag delta+varint
   sequences. Both share the array assembly in [of_arrays] and then
   check the stored parent pointers against the shape it built. *)
let with_parents_checked (t : t) (parents : int array) : t =
  Array.iteri
    (fun id p ->
      if Bp_tree.parent t.bp id <> p then failwith "structure_tree: parent pointer mismatch")
    parents;
  t

(* The per-node loop both formats share; [read_lists s pos] reads one
   node's child-entry codes and value record indices. *)
let deserialize_records read_lists (s : string) (pos : int) : t * int =
  let read_varint = Compress.Rle.read_varint in
  let (n, pos) = read_varint s pos in
  let tags = Array.make n 0 in
  let parents = Array.make n 0 in
  let children = Array.make n [||] in
  let values = Array.make n [||] in
  let pos = ref pos in
  for id = 0 to n - 1 do
    let (tag, p) = read_varint s !pos in
    let (pdelta, p) = read_varint s p in
    let (codes, idxs, p) = read_lists s p in
    tags.(id) <- tag;
    parents.(id) <- id - pdelta;
    children.(id) <-
      Array.map (fun d -> if d land 1 = 0 then id + (d / 2) else -((d + 1) / 2)) codes;
    values.(id) <- idxs;
    pos := p
  done;
  let conts = Array.make n (-1) in
  (with_parents_checked (of_arrays ~tags ~children ~values ~conts) parents, !pos)

let deserialize_v2 =
  (* a count, then that many plain varints *)
  let read_list s pos =
    let (k, pos) = Compress.Rle.read_varint s pos in
    let p = ref pos in
    let a =
      Array.init k (fun _ ->
          let (v, np) = Compress.Rle.read_varint s !p in
          p := np;
          v)
    in
    (a, !p)
  in
  deserialize_records (fun s pos ->
      let (codes, pos) = read_list s pos in
      let (idxs, pos) = read_list s pos in
      (codes, idxs, pos))

let deserialize_v3 =
  deserialize_records (fun s pos ->
      let (codes, pos) = Compress.Ipack.read_deltas s pos in
      let (idxs, pos) = Compress.Ipack.read_deltas s pos in
      (codes, idxs, pos))

(** Forward-only tree bytes for the essential-size experiment: shape
    bits, tag levels and text-marker info, without parent support or
    value back-pointers (and without any rank directory). *)
let forward_only_bytes (t : t) =
  let buf = Buffer.create 4096 in
  Compress.Rle.add_varint buf (node_count t);
  Bitvec.serialize buf (Bp_tree.bits t.bp);
  Bitvec.Wavelet.serialize buf (tag_wavelet t);
  for id = 0 to node_count t - 1 do
    let m = marker_count t id in
    Compress.Rle.add_varint buf m;
    if m > 0 && has_children t id then
      Compress.Ipack.add_deltas buf m (fun slot -> t.marks.(t.val_off.(id) + slot))
  done;
  Buffer.length buf

(** The charge for the directories an on-storage succinct layout would
    carry to navigate the BP bits and tag levels in place (rank/select
    and minimum-excess blocks) — the v4 counterpart of the old B+ page
    index for the §2.2 occupancy breakdown. Nothing builds them; the
    charge depends on the node count and tag width alone. *)
let index_bytes (t : t) =
  Bp_tree.overhead_bytes t.bp
  + Bitvec.Wavelet.overhead_bytes ~n:(node_count t) ~width:t.tag_width

(** In-memory bytes of the navigation arrays built at load (the flat
    tag array, the parents and the subtree ends); never stored. *)
let nav_array_bytes (t : t) = Bytes.length t.tags + Bp_tree.nav_bytes t.bp

(** In-memory bytes of the value arrays (the offsets, record indices,
    marker positions and container ids); never stored either. *)
let value_array_bytes (t : t) =
  (Sys.word_size / 8) * (Array.length t.val_off + Array.length t.vals + Array.length t.marks)

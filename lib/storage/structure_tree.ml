(* Structure tree (§2.2), succinct edition (repository format v4): the
   node records of the paper (ID, tag code, children, parent). On disk
   the shape is a balanced-parentheses bitvector and the tag codes a
   wavelet tree ({!Bitvec.Wavelet}); in memory both are flat pre-order
   arrays built at load — the tags, and {!Bp_tree}'s parents and
   subtree ends. A save re-encodes the wavelet from the flat tags, at
   the width the image declared. Only the value pointers and
   text-marker positions remain as per-node data. IDs are pre-order
   ranks, so they coincide with document order and with the open-paren
   ranks of the BP sequence.

   Child entries interleave element/attribute node ids (>= 0) with text
   markers (< 0): marker -(slot+1) points at the node's value pointer
   [slot]. Markers always reference slots 0, 1, ... in document order
   (the SAX loader emits them that way), so the succinct form only
   records how many element children precede each marker. *)

type t = {
  bp : Bp_tree.t;  (* shape: one '(' ')' pair per element/attribute *)
  tags : Bytes.t;  (* name-dictionary code per node, pre-order *)
  cell : int;
      (* bytes per [tags] entry, little-endian: 1 while every code fits
         in 8 bits, 2 up to 16, ceil(width/8) beyond *)
  tag_width : int;  (* bits per code in the on-disk wavelet encoding *)
  marks : int array array;
      (* per node: for text marker slot s, the number of child element
         entries before it in document order (non-decreasing) *)
  values : (int * int) array array; (* (container id, record index) per node *)
}

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
let value_pointers t id = t.values.(id)

(** Child element/attribute node ids only, document order. *)
let child_nodes t id = Bp_tree.children t.bp id

(** Nodes in the subtree of [id], including [id]. *)
let subtree_size t id = Bp_tree.subtree_size t.bp id

(** Raw child entries (node ids and text markers), document order —
    reconstructed by merging the BP children with the marker
    positions. *)
let child_entries t id =
  let kids = Array.make (Bp_tree.degree t.bp id) 0 in
  ignore
    (Bp_tree.fold_children t.bp id
       (fun k c ->
         kids.(k) <- c;
         k + 1)
       0);
  let mk = t.marks.(id) in
  let m = Array.length mk in
  if m = 0 then kids
  else begin
    let c = Array.length kids in
    let out = Array.make (c + m) 0 in
    let ci = ref 0 and oi = ref 0 in
    for s = 0 to m - 1 do
      while !ci < mk.(s) do
        out.(!oi) <- kids.(!ci);
        incr ci;
        incr oi
      done;
      out.(!oi) <- -(s + 1);
      incr oi
    done;
    while !ci < c do
      out.(!oi) <- kids.(!ci);
      incr ci;
      incr oi
    done;
    out
  end

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

(** Point one value slot at another container, keeping its index. *)
let set_value_container (t : t) ~node ~slot ~container =
  let (_, idx) = t.values.(node).(slot) in
  t.values.(node).(slot) <- (container, idx)

(** Rewrite value pointers after containers were rebuilt from their
    values (their records re-sorted): [remap cont_id] returns the
    old-to-new index permutation for that container, or None if it is
    unchanged. *)
let remap_values (t : t) (remap : int -> int array option) : unit =
  Array.iter
    (fun ptrs ->
      Array.iteri
        (fun slot (cont, idx) ->
          match remap cont with
          | Some perm -> ptrs.(slot) <- (cont, perm.(idx))
          | None -> ())
        ptrs)
    t.values

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Shared assembly: turn explicit per-node arrays (from the builder or
   from a v1/v2/v3 image) into the succinct form, validating the
   pre-order and marker invariants the bitvector encoding relies on. *)
let of_arrays ~(tags : int array) ~(children : int array array)
    ~(values : (int * int) array array) : t =
  let n = Array.length tags in
  (* text-marker positions, checking markers are sequential per node *)
  let marks =
    Array.mapi
      (fun id entries ->
        let m = Array.fold_left (fun acc e -> if e < 0 then acc + 1 else acc) 0 entries in
        if m > Array.length values.(id) then
          failwith "structure_tree: text marker without value";
        let mk = Array.make m 0 in
        let mi = ref 0 and ci = ref 0 in
        Array.iter
          (fun e ->
            if e >= 0 then incr ci
            else begin
              if -e - 1 <> !mi then failwith "structure_tree: non-sequential text markers";
              mk.(!mi) <- !ci;
              incr mi
            end)
          entries;
        mk)
      children
  in
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
  { bp; tags; cell; tag_width; marks; values }

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
  let values = Array.map (fun l -> Array.of_list (List.rev l)) rev_values in
  of_arrays ~tags ~children ~values

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
    Compress.Ipack.add_deltas buf (Array.map snd t.values.(id));
    if Array.length t.values.(id) > 0 then begin
      let m = Array.length t.marks.(id) in
      add_varint buf m;
      if m > 0 && Bp_tree.degree t.bp id > 0 then
        Compress.Ipack.add_deltas buf t.marks.(id)
    end
  done

let deserialize_succinct (s : string) (pos : int) : t * int =
  let read_varint = Compress.Rle.read_varint in
  let (n, pos) = read_varint s pos in
  let (bits, pos) = Bitvec.deserialize s pos in
  if Bitvec.length bits <> 2 * n then failwith "structure_tree: BP length mismatch";
  let bp = Bp_tree.of_bits bits in
  let (wavelet, pos) = Bitvec.Wavelet.deserialize s pos in
  if Bitvec.Wavelet.length wavelet <> n then failwith "structure_tree: tag count mismatch";
  let tag_width = Bitvec.Wavelet.width wavelet in
  let tags, cell = pack_tags ~width:tag_width (Bitvec.Wavelet.decode wavelet) in
  let values = Array.make n [||] in
  let marks = Array.make n [||] in
  let pos = ref pos in
  for id = 0 to n - 1 do
    let (idxs, p) = Compress.Ipack.read_deltas s !pos in
    pos := p;
    (* container ids are re-resolved against the structure summary by the
       repository loader; -1 is the placeholder *)
    values.(id) <- Array.map (fun idx -> (-1, idx)) idxs;
    if Array.length idxs > 0 then begin
      let (m, p) = read_varint s !pos in
      pos := p;
      if m > 0 && Bp_tree.degree bp id > 0 then begin
        let (mk, p) = Compress.Ipack.read_deltas s !pos in
        pos := p;
        if Array.length mk <> m then failwith "structure_tree: marker count mismatch";
        marks.(id) <- mk
      end
      else marks.(id) <- Array.make m 0
    end
  done;
  ({ bp; tags; cell; tag_width; marks; values }, !pos)

(* Readers for the explicit-record trees of repository formats v1/v2
   and v3 (no longer written). Per node: tag, parent delta, child-entry
   codes (a child node c as the even code 2 * (c - id), text marker -k
   as the odd code 2k - 1) and value record indices; the container id
   of each value is re-resolved by the repository loader. v2 stores
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
    values.(id) <- Array.map (fun idx -> (-1, idx)) idxs;
    pos := p
  done;
  (with_parents_checked (of_arrays ~tags ~children ~values) parents, !pos)

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
    let m = Array.length t.marks.(id) in
    Compress.Rle.add_varint buf m;
    if m > 0 && Bp_tree.degree t.bp id > 0 then Compress.Ipack.add_deltas buf t.marks.(id)
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

(* Succinct substrate of the v4 structure tree: the packed bitvector,
   the wavelet tag array, and the pre-order navigation arrays read from
   the balanced parentheses. Mostly differential tests against naive
   reference implementations, plus the edge shapes (empty, single node,
   deep right spine, wide flat fan-out). *)

open Storage

let rng = Random.State.make [| 0x5ecc; 0x7ee |]

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let bit bv i = Bitvec.byte bv (i / 8) lsr (i mod 8) land 1 = 1

let check_bitvec len =
  let bits = Array.init len (fun _ -> Random.State.bool rng) in
  let bv = Bitvec.init len (fun i -> bits.(i)) in
  Alcotest.(check int) (Printf.sprintf "len %d" len) len (Bitvec.length bv);
  Alcotest.(check int) (Printf.sprintf "ones %d" len)
    (Array.fold_left (fun k b -> if b then k + 1 else k) 0 bits)
    (Bitvec.ones bv);
  for i = 0 to len - 1 do
    Alcotest.(check bool) "get" bits.(i) (bit bv i)
  done;
  let buf = Buffer.create 16 in
  Bitvec.serialize buf bv;
  let (bv2, consumed) = Bitvec.deserialize (Buffer.contents buf) 0 in
  Alcotest.(check int) "consumed all" (Buffer.length buf) consumed;
  Alcotest.(check int) "roundtrip len" len (Bitvec.length bv2);
  for i = 0 to len - 1 do
    Alcotest.(check bool) "roundtrip bit" bits.(i) (bit bv2 i)
  done

let test_bitvec_roundtrip () =
  (* edge lengths straddle byte and word boundaries *)
  List.iter check_bitvec [ 0; 1; 7; 8; 63; 64; 65; 511; 512; 513; 1000; 5000; 20000 ]

(* ------------------------------------------------------------------ *)
(* Wavelet                                                             *)
(* ------------------------------------------------------------------ *)

let check_wavelet n sigma =
  let codes = Array.init n (fun _ -> Random.State.int rng sigma) in
  let width = Bitvec.Wavelet.width_for (sigma - 1) in
  let wt = Bitvec.Wavelet.build ~width codes in
  Alcotest.(check (array int)) "decode" codes (Bitvec.Wavelet.decode wt);
  let buf = Buffer.create 16 in
  Bitvec.Wavelet.serialize buf wt;
  let (wt2, consumed) = Bitvec.Wavelet.deserialize (Buffer.contents buf) 0 in
  Alcotest.(check int) "wavelet consumed all" (Buffer.length buf) consumed;
  Alcotest.(check int) "wavelet width" width (Bitvec.Wavelet.width wt2);
  Alcotest.(check (array int)) "wavelet roundtrip" codes (Bitvec.Wavelet.decode wt2);
  let buf2 = Buffer.create 16 in
  Bitvec.Wavelet.serialize buf2 (Bitvec.Wavelet.build ~width (Bitvec.Wavelet.decode wt2));
  Alcotest.(check string) "re-encode is byte-identical" (Buffer.contents buf) (Buffer.contents buf2)

let test_wavelet_differential () =
  List.iter
    (fun (n, sigma) -> check_wavelet n sigma)
    [ (0, 4); (1, 1); (1, 3); (100, 2); (500, 90); (3000, 7); (2000, 128); (2000, 300) ]

(* build -> serialize -> deserialize -> flat decode is the identity for
   every width a name dictionary can need in practice *)
let qcheck_wavelet_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wavelet decode roundtrip, widths 1-16" ~count:300
       QCheck2.Gen.(
         int_range 1 16 >>= fun width ->
         let code = int_range 0 ((1 lsl width) - 1) in
         (* skewed sequences too: a few distinct codes leave empty node
            intervals at every level *)
         let skewed =
           list_size (int_range 1 4) code >>= fun pool ->
           list_size (int_range 0 600) (oneofl pool)
         in
         pair (return width) (oneof [ list_size (int_range 0 600) code; skewed ]))
       (fun (width, codes) ->
         let codes = Array.of_list codes in
         let buf = Buffer.create 64 in
         Bitvec.Wavelet.serialize buf (Bitvec.Wavelet.build ~width codes);
         let (wt, consumed) = Bitvec.Wavelet.deserialize (Buffer.contents buf) 0 in
         consumed = Buffer.length buf
         && Bitvec.Wavelet.width wt = width
         && Bitvec.Wavelet.decode wt = codes))

(* ------------------------------------------------------------------ *)
(* Bp_tree                                                             *)
(* ------------------------------------------------------------------ *)

(* Differential check of every navigation op against a naive pointer
   tree described by a pre-order parent array. *)
let check_bp (parents : int array) =
  let n = Array.length parents in
  let children = Array.make (max n 1) [] in
  for i = n - 1 downto 1 do
    children.(parents.(i)) <- i :: children.(parents.(i))
  done;
  let bits = Array.make (2 * n) false in
  let pos = ref 0 in
  let rec emit i =
    bits.(!pos) <- true;
    incr pos;
    List.iter emit children.(i);
    incr pos
  in
  if n > 0 then emit 0;
  let bp = Bp_tree.of_bits (Bitvec.init (2 * n) (fun i -> bits.(i))) in
  Alcotest.(check int) "node count" n (Bp_tree.node_count bp);
  let last = Array.init (max n 1) (fun i -> i) in
  for i = n - 1 downto 1 do
    let p = parents.(i) in
    if last.(i) > last.(p) then last.(p) <- last.(i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check int) "parent" (if i = 0 then -1 else parents.(i)) (Bp_tree.parent bp i);
    Alcotest.(check (list int)) "children" children.(i) (Bp_tree.children bp i);
    Alcotest.(check (list int)) "fold_children" children.(i)
      (List.rev (Bp_tree.fold_children bp i (fun acc c -> c :: acc) []));
    Alcotest.(check int) "degree" (List.length children.(i)) (Bp_tree.degree bp i);
    Alcotest.(check int) "last_descendant" last.(i) (Bp_tree.last_descendant bp i);
    Alcotest.(check int) "subtree_size" (last.(i) - i + 1) (Bp_tree.subtree_size bp i)
  done;
  (* ancestorship against a walk up the reference parents *)
  let rec above a d = d > 0 && (parents.(d) = a || above a parents.(d)) in
  for _ = 1 to min 2000 (n * n) do
    let a = Random.State.int rng (max n 1) and d = Random.State.int rng (max n 1) in
    Alcotest.(check bool) "is_ancestor" (above a d)
      (Bp_tree.is_ancestor bp ~ancestor:a ~descendant:d)
  done

(* Random pre-order parent arrays: each node's parent is drawn from the
   rightmost path so ids stay pre-order ranks. *)
let random_preorder_parents ?(rng = rng) n =
  let parents = Array.make n (-1) in
  let stack = ref [ 0 ] in
  for i = 1 to n - 1 do
    let len = List.length !stack in
    let pops = if Random.State.bool rng then 0 else Random.State.int rng len in
    for _ = 1 to pops do
      stack := List.tl !stack
    done;
    parents.(i) <- List.hd !stack;
    stack := i :: !stack
  done;
  parents

let test_bp_edge_shapes () =
  check_bp [||];
  (* empty tree *)
  check_bp [| -1 |];
  (* single node *)
  check_bp [| -1; 0 |];
  check_bp [| -1; 0; 0 |];
  check_bp [| -1; 0; 1 |]

let test_bp_deep_spine () =
  (* right spine >= 10^4 nodes: the open-node stack grows to the whole
     tree before the first close *)
  check_bp (Array.init 12000 (fun i -> i - 1))

let test_bp_wide_flat () =
  (* one root with thousands of leaf children: the root's subtree spans
     the whole sequence, siblings chain through every subtree end *)
  check_bp (Array.init 5000 (fun i -> if i = 0 then -1 else 0))

let test_bp_random_trees () =
  List.iter (fun n -> check_bp (random_preorder_parents n)) [ 50; 200; 1000; 4000; 20000 ]

let test_bp_rejects_malformed () =
  let of_bools l =
    let a = Array.of_list l in
    Bitvec.init (Array.length a) (fun i -> a.(i))
  in
  List.iter
    (fun bits ->
      Alcotest.check_raises "malformed BP" (Failure "Bp_tree.of_bits: close before open")
        (fun () -> ignore (Bp_tree.of_bits (of_bools bits))))
    [ [ false; true ]; [ true; false; false; true ] ];
  Alcotest.check_raises "odd length" (Failure "Bp_tree.of_bits: odd length") (fun () ->
      ignore (Bp_tree.of_bits (of_bools [ true ])));
  Alcotest.check_raises "unbalanced" (Failure "Bp_tree.of_bits: unbalanced") (fun () ->
      ignore (Bp_tree.of_bits (of_bools [ true; true ])))

(* ------------------------------------------------------------------ *)
(* Succinct structure tree vs the explicit builder arrays              *)
(* ------------------------------------------------------------------ *)

let test_tree_differential_vs_pointer_semantics () =
  (* build a structure tree from an XMark document and check the
     succinct navigation against references computed from the child
     lists alone (the explicit pointer semantics of the v3 tree) *)
  let xml = Xmark.Xmlgen.generate ~scale:0.05 () in
  let repo = Xquec_core.Loader.load ~name:"a" xml in
  let tree = repo.Repository.tree in
  let n = Structure_tree.node_count tree in
  Alcotest.(check bool) "non-trivial" true (n > 1000);
  (* reference arrays from the raw child entries *)
  let kids = Array.init n (fun id -> Structure_tree.child_nodes tree id) in
  let parents = Array.make n (-1) in
  Array.iteri (fun id cs -> List.iter (fun c -> parents.(c) <- id) cs) kids;
  let last = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    if last.(i) > last.(parents.(i)) then last.(parents.(i)) <- last.(i)
  done;
  for id = 0 to n - 1 do
    Alcotest.(check int) "parent" parents.(id) (Structure_tree.parent tree id);
    Alcotest.(check int) "last_descendant" last.(id) (Structure_tree.last_descendant tree id);
    Alcotest.(check int) "subtree_size" (last.(id) - id + 1) (Structure_tree.subtree_size tree id);
    if id > 0 then
      Alcotest.(check bool) "parent is an ancestor" true
        (Structure_tree.is_ancestor tree ~ancestor:parents.(id) ~descendant:id)
  done;
  (* descendants_with_tag agrees with the filter-based definition for
     every tag that occurs *)
  let dict = repo.Repository.dict in
  List.iter
    (fun name ->
      match Storage.Name_dict.code dict name with
      | None -> ()
      | Some code ->
        let naive =
          Structure_tree.descendants tree 0
          |> List.filter (fun d -> Structure_tree.tag tree d = code)
        in
        Alcotest.(check (list int))
          ("descendants_with_tag " ^ name)
          naive
          (Structure_tree.descendants_with_tag tree 0 code))
    [ "site"; "people"; "person"; "name"; "@id"; "item"; "description" ]

(* Tag codes through the builder and a v4 save/load: one-byte cells up
   to code 255, two-byte cells up to 65535, wider cells beyond, each
   re-encoded byte for byte at the width it was loaded with. *)
let test_tree_tag_cells () =
  List.iter
    (fun max_code ->
      let n = 300 in
      let tag id = if id = n - 1 then max_code else id * 7919 mod (max_code + 1) in
      let parents = random_preorder_parents n in
      let b = Structure_tree.builder () in
      for id = 0 to n - 1 do
        ignore (Structure_tree.open_node b ~tag:(tag id))
      done;
      (* reversed document order, as the loader accumulates them *)
      let rev_children = Array.make n [] in
      for id = 1 to n - 1 do
        rev_children.(parents.(id)) <- id :: rev_children.(parents.(id))
      done;
      let t = Structure_tree.finish b ~rev_children ~rev_values:(Array.make n []) in
      let buf = Buffer.create 1024 in
      Structure_tree.serialize_succinct buf t;
      let image = Buffer.contents buf in
      let (t2, consumed) = Structure_tree.deserialize_succinct image 0 in
      Alcotest.(check int) "consumed all" (String.length image) consumed;
      for id = 0 to n - 1 do
        Alcotest.(check int) (Printf.sprintf "tag %d (max %d)" id max_code) (tag id)
          (Structure_tree.tag t2 id)
      done;
      let buf2 = Buffer.create 1024 in
      Structure_tree.serialize_succinct buf2 t2;
      Alcotest.(check string) "re-save is byte-identical" image (Buffer.contents buf2))
    [ 0; 255; 256; 65535; 65536; 1 lsl 40 ]

(* The v1-v3 readers take parent pointers from the image: a pointer
   that disagrees with the child lists is rejected. A two-node v2 tree
   (root 0 with child 1), per node: tag, parent delta, child codes
   (child c of node id as 2 * (c - id)), value indices. *)
let test_v2_parent_check () =
  let image ~child_pdelta =
    let buf = Buffer.create 16 in
    List.iter (Compress.Rle.add_varint buf)
      [ 2; (* node 0 *) 0; 1; 1; 2; 0; (* node 1 *) 1; child_pdelta; 0; 0 ];
    Buffer.contents buf
  in
  let t, _ = Structure_tree.deserialize_v2 (image ~child_pdelta:1) 0 in
  Alcotest.(check int) "parent read back" 0 (Structure_tree.parent t 1);
  Alcotest.check_raises "mismatched parent rejected"
    (Failure "structure_tree: parent pointer mismatch") (fun () ->
      ignore (Structure_tree.deserialize_v2 (image ~child_pdelta:0) 0))

(* ------------------------------------------------------------------ *)
(* Flat value arrays vs the builder's per-node lists                   *)
(* ------------------------------------------------------------------ *)

(* A node's child entries and (container, record index) value pointers,
   read through the allocation-free accessors; the storage and fuzz
   suites compare trees with them too. *)
let entries t id = List.rev (Structure_tree.fold_entries t id (fun acc e -> e :: acc) [])

let pointers t id =
  List.init (Structure_tree.value_count t id) (fun slot ->
      (Structure_tree.value_container t id, Structure_tree.value_index t id slot))

(* The first node on which two trees differ in tag, parent, child
   entries or value pointers (-1 for different node counts). *)
let first_difference t t' =
  let n = Structure_tree.node_count t in
  if Structure_tree.node_count t' <> n then Some (-1)
  else
    List.find_opt
      (fun id ->
        Structure_tree.tag t id <> Structure_tree.tag t' id
        || Structure_tree.parent t id <> Structure_tree.parent t' id
        || entries t id <> entries t' id
        || pointers t id <> pointers t' id)
      (List.init n Fun.id)

(* Random per-node lists in document order, shaped as the loader hands
   them to [finish]: children in pre-order; each node's values in one
   container; text markers -1 .. -m for the first m value slots,
   interleaved at random among the element children. *)
let random_lists rs n =
  let parents = random_preorder_parents ~rng:rs n in
  let kids = Array.make n [] in
  for id = n - 1 downto 1 do
    kids.(parents.(id)) <- id :: kids.(parents.(id))
  done;
  let values =
    Array.init n (fun _ ->
        let k = if Random.State.int rs 3 = 0 then 0 else Random.State.int rs 4 in
        let c = Random.State.int rs 5 in
        List.init k (fun _ -> (c, Random.State.int rs 1000)))
  in
  let children =
    Array.mapi
      (fun id ks ->
        let m = Random.State.int rs (List.length values.(id) + 1) in
        let rec merge ks s =
          if s > m then ks
          else
            match ks with
            | k :: rest when Random.State.bool rs -> k :: merge rest s
            | _ -> -s :: merge ks (s + 1)
        in
        merge ks 1)
      kids
  in
  (children, values)

let qcheck_flat_values_match_lists =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"flat value arrays = the builder's lists, through save/restore"
       ~count:300
       QCheck2.Gen.(pair (int_range 1 300) int)
       (fun (n, seed) ->
         let rs = Random.State.make [| seed |] in
         let children, values = random_lists rs n in
         let b = Structure_tree.builder () in
         for _ = 1 to n do
           ignore (Structure_tree.open_node b ~tag:(Random.State.int rs 20))
         done;
         let t =
           Structure_tree.finish b ~rev_children:(Array.map List.rev children)
             ~rev_values:(Array.map List.rev values)
         in
         let save t =
           let buf = Buffer.create 256 in
           Structure_tree.serialize_succinct buf t;
           Buffer.contents buf
         in
         let image = save t in
         let t2, _ = Structure_tree.deserialize_succinct image 0 in
         Structure_tree.set_containers t2
           (Array.init n (Structure_tree.value_container t))
           ~records:(Array.make 5 1000);
         List.for_all
           (fun id -> entries t id = children.(id) && pointers t id = values.(id))
           (List.init n Fun.id)
         && first_difference t t2 = None
         && String.equal image (save t2)))

(* Tree records no writer produces: marker positions must not decrease
   and must not pass the node's child count. Node 0 has two values and
   one child, its markers at positions [p0; p1]; node 1 has no value. *)
let test_marker_checks () =
  let image p0 p1 =
    let b = Structure_tree.builder () in
    ignore (Structure_tree.open_node b ~tag:0);
    ignore (Structure_tree.open_node b ~tag:1);
    let t =
      Structure_tree.finish b ~rev_children:[| [ -2; 1; -1 ]; [] |]
        ~rev_values:[| [ (0, 1); (0, 0) ]; [] |]
    in
    let buf = Buffer.create 16 in
    Structure_tree.serialize_succinct buf t;
    let s = Buffer.contents buf in
    (* ... m = 2, marker count 2, zigzag deltas 0 and +1; node 1: 0 *)
    let n = String.length s in
    Alcotest.(check string) "layout" "\002\002\000\002\000" (String.sub s (n - 5) 5);
    let zz d = if d >= 0 then 2 * d else (-2 * d) - 1 in
    String.sub s 0 (n - 3) ^ String.init 2 (fun i -> Char.chr (zz (if i = 0 then p0 else p1 - p0)))
    ^ "\000"
  in
  let t, _ = Structure_tree.deserialize_succinct (image 0 1) 0 in
  Alcotest.(check (list int)) "entries read back" [ -1; 1; -2 ] (entries t 0);
  Alcotest.check_raises "decreasing positions" (Failure "structure_tree: marker positions decrease")
    (fun () -> ignore (Structure_tree.deserialize_succinct (image 1 0) 0));
  Alcotest.check_raises "position past the children"
    (Failure "structure_tree: marker position past the child count") (fun () ->
      ignore (Structure_tree.deserialize_succinct (image 0 2) 0))

let suites =
  [
    ( "succinct",
      [
        Alcotest.test_case "bitvec get/serialize roundtrip" `Quick test_bitvec_roundtrip;
        Alcotest.test_case "wavelet differential" `Quick test_wavelet_differential;
        qcheck_wavelet_roundtrip;
        Alcotest.test_case "bp edge shapes" `Quick test_bp_edge_shapes;
        Alcotest.test_case "bp deep right spine" `Quick test_bp_deep_spine;
        Alcotest.test_case "bp wide flat tree" `Quick test_bp_wide_flat;
        Alcotest.test_case "bp random trees" `Quick test_bp_random_trees;
        Alcotest.test_case "bp rejects malformed input" `Quick test_bp_rejects_malformed;
        Alcotest.test_case "tree navigation differential" `Quick
          test_tree_differential_vs_pointer_semantics;
        Alcotest.test_case "tree tag cells of every width" `Quick test_tree_tag_cells;
        Alcotest.test_case "v2 reader checks parent pointers" `Quick test_v2_parent_check;
        qcheck_flat_values_match_lists;
        Alcotest.test_case "v4 reader checks marker positions" `Quick test_marker_checks;
      ] );
  ]

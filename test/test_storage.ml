(* Tests for the storage layer: name dictionary, containers, buffer
   pool, structure tree, summary and full-repository serialization,
   including the read compatibility of the committed v1, v2 and v3
   image fixtures. *)

open Storage

(* ------------------------------------------------------------------ *)
(* Name dictionary                                                     *)
(* ------------------------------------------------------------------ *)

let test_name_dict () =
  let d = Name_dict.create () in
  let a = Name_dict.intern d "site" in
  let b = Name_dict.intern d "person" in
  let a' = Name_dict.intern d "site" in
  Alcotest.(check int) "stable" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "name" "person" (Name_dict.name d b);
  Alcotest.(check (option int)) "code" (Some b) (Name_dict.code d "person");
  Alcotest.(check (option int)) "missing" None (Name_dict.code d "nope")

let test_name_dict_bits () =
  let d = Name_dict.create () in
  for i = 0 to 91 do
    ignore (Name_dict.intern d (Printf.sprintf "tag%d" i))
  done;
  (* the paper's example: 92 names fit on 7 bits *)
  Alcotest.(check int) "92 names on 7 bits" 7 (Name_dict.bits_per_code d)

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)
(* ------------------------------------------------------------------ *)

(* A text container built from [values] with a fresh [algorithm] model. *)
let build ?block_size ~id ~algorithm values =
  let model = Compress.Codec.train algorithm (List.map fst values) in
  fst
    (Container.of_values ?block_size ~id ~path:"/a/b/#text" ~kind:Container.Text ~algorithm
       ~model ~model_id:id values)

let sample_container algorithm =
  build ~id:0 ~algorithm
    [ ("delta", 1); ("alpha", 2); ("charlie", 3); ("bravo", 4); ("alpha", 5) ]

let test_container_sorted () =
  let c = sample_container Compress.Codec.Alm_alg in
  let codes = Array.to_list (Container.scan c) |> List.map (fun r -> r.Container.code) in
  Alcotest.(check bool) "sorted by code" true
    (List.sort String.compare codes = codes);
  (* order-preserving codec: code order = plaintext order *)
  let values = Array.to_list (Container.scan c) |> List.map (Container.decompress_record c) in
  Alcotest.(check (list string)) "plaintext order" [ "alpha"; "alpha"; "bravo"; "charlie"; "delta" ]
    values

let test_container_lookup_eq () =
  let c = sample_container Compress.Codec.Alm_alg in
  let hits = Container.lookup_eq c (Container.compress_constant c "alpha") in
  Alcotest.(check int) "two alphas" 2 (List.length hits);
  Alcotest.(check (list int)) "parents" [ 2; 5 ]
    (List.map (fun r -> r.Container.parent) hits |> List.sort compare);
  Alcotest.(check int) "no miss" 0
    (List.length (Container.lookup_eq c (Container.compress_constant c "zulu")))

let test_container_lookup_range () =
  let c = sample_container Compress.Codec.Alm_alg in
  let lo = Container.compress_constant c "b" in
  let hi = Container.compress_constant c "d" in
  let hits = Container.lookup_range c ~lo:(`Incl lo) ~hi:(`Excl hi) () in
  let values = List.map (Container.decompress_record c) hits in
  Alcotest.(check (list string)) "range [b,d)" [ "bravo"; "charlie" ] values;
  (* bounds on codes that occur: each end inclusive or exclusive *)
  let alpha = Container.compress_constant c "alpha" in
  let charlie = Container.compress_constant c "charlie" in
  let range lo hi =
    List.map (Container.decompress_record c) (Container.lookup_range c ?lo ?hi ())
  in
  Alcotest.(check (list string)) "[alpha,charlie]" [ "alpha"; "alpha"; "bravo"; "charlie" ]
    (range (Some (`Incl alpha)) (Some (`Incl charlie)));
  Alcotest.(check (list string)) "(alpha,charlie)" [ "bravo" ]
    (range (Some (`Excl alpha)) (Some (`Excl charlie)));
  Alcotest.(check (list string)) "(charlie,-)" [ "delta" ] (range (Some (`Excl charlie)) None);
  Alcotest.(check (list string)) "(-,alpha]" [ "alpha"; "alpha" ] (range None (Some (`Incl alpha)));
  Alcotest.(check (list string)) "(alpha,alpha)" [] (range (Some (`Excl alpha)) (Some (`Excl alpha)))

(* Re-encoding a container's pairs with another model through
   [of_values], whose permutation maps each input position to its
   record index. *)
let test_container_recompress () =
  let c = sample_container Compress.Codec.Alm_alg in
  let before = Container.dump c in
  let model = Compress.Codec.train Compress.Codec.Huffman_alg (List.map fst before) in
  let fresh, remap =
    Container.of_values ~id:0 ~path:c.Container.path ~kind:c.Container.kind
      ~algorithm:Compress.Codec.Huffman_alg ~model ~model_id:9 before
  in
  Alcotest.(check int) "remap size" 5 (Array.length remap);
  let after = Container.dump fresh in
  Alcotest.(check bool) "same multiset" true
    (List.sort compare before = List.sort compare after);
  Alcotest.(check (list (pair string int))) "the old container is unchanged" before
    (Container.dump c);
  (* the permutation maps old positions to the same (value, parent) *)
  let before_arr = Array.of_list before in
  Array.iteri
    (fun old_idx new_idx ->
      let r = (Container.scan fresh).(new_idx) in
      let (v, p) = before_arr.(old_idx) in
      Alcotest.(check string) "value follows remap" v (Container.decompress_record fresh r);
      Alcotest.(check int) "parent follows remap" p r.Container.parent)
    remap

(* ------------------------------------------------------------------ *)
(* Blocks and the buffer pool                                          *)
(* ------------------------------------------------------------------ *)

(* a container with many tiny values and a 1-byte block budget: every
   record lands in its own block *)
let blocky_container ?(n = 40) () =
  let values = List.init n (fun i -> (Printf.sprintf "v%03d" i, i + 1)) in
  build ~block_size:1 ~id:0 ~algorithm:Compress.Codec.Alm_alg values

let test_container_blocks () =
  let c = blocky_container () in
  Alcotest.(check int) "one record per block" 40 (Container.block_count c);
  (* headers partition the index space *)
  let next = ref 0 in
  Array.iter
    (fun (b : Container.block) ->
      Alcotest.(check int) "contiguous" !next b.Container.b_start;
      next := b.Container.b_start + b.Container.b_count)
    c.Container.blocks;
  Alcotest.(check int) "covers all records" (Container.length c) !next;
  (* random access agrees with a full scan *)
  let all = Container.scan c in
  for i = 0 to Container.length c - 1 do
    Alcotest.(check string) "get = scan" all.(i).Container.code (Container.get c i).Container.code
  done;
  (* interval decodes agree too *)
  let r =
    Container.lookup_range c ~lo:(`Incl all.(5).Container.code) ~hi:(`Excl all.(12).Container.code) ()
  in
  Alcotest.(check int) "range size" 7 (List.length r);
  List.iteri
    (fun k (r : Container.record) ->
      Alcotest.(check string) "range = scan slice" all.(5 + k).Container.code r.Container.code)
    r

let test_block_pruning () =
  let c = blocky_container () in
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  let hits = Container.lookup_eq c (Container.compress_constant c "v007") in
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one match" 1 (List.length hits);
  (* min/max pruning: at most a couple of the 40 blocks decode *)
  let decoded = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
  Alcotest.(check bool) "decodes at most 2 of 40 blocks" true (decoded <= 2);
  Alcotest.(check bool) "pruned most blocks" true
    (s1.Buffer_pool.s_blocks_skipped - s0.Buffer_pool.s_blocks_skipped >= 38);
  (* a range lookup is also pruned *)
  let s2 = Buffer_pool.snapshot () in
  let lo = Container.compress_constant c "v010" in
  let hi = Container.compress_constant c "v015" in
  let rs = Container.lookup_range c ~lo:(`Incl lo) ~hi:(`Excl hi) () in
  let s3 = Buffer_pool.snapshot () in
  Alcotest.(check int) "five in range" 5 (List.length rs);
  Alcotest.(check bool) "range pruned too" true
    (s3.Buffer_pool.s_blocks_skipped - s2.Buffer_pool.s_blocks_skipped >= 30)

let test_buffer_pool_hits_and_eviction () =
  let saved = Buffer_pool.budget_bytes () in
  Buffer_pool.clear ();
  let uid = Buffer_pool.fresh_uid () in
  let mk i =
    (* a decoded block charging exactly 100 bytes *)
    { Buffer_pool.codes = [| Printf.sprintf "c%d" i |]; parents = [| i |]; d_bytes = 100 }
  in
  let decodes = ref 0 in
  let fetch i =
    Buffer_pool.fetch ~uid ~blk:i (fun () -> incr decodes; mk i)
  in
  Fun.protect ~finally:(fun () ->
      Buffer_pool.set_budget ~bytes:saved;
      Buffer_pool.clear ())
  @@ fun () ->
  Buffer_pool.set_budget ~bytes:250;
  let s0 = Buffer_pool.snapshot () in
  ignore (fetch 0);
  ignore (fetch 0);
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "second fetch hits" 1 (s1.Buffer_pool.s_hits - s0.Buffer_pool.s_hits);
  Alcotest.(check int) "one decode" 1 !decodes;
  Alcotest.(check int) "byte accounting" 100 s1.Buffer_pool.s_resident_bytes;
  (* 250-byte budget holds two 100-byte blocks; the third evicts the LRU *)
  ignore (fetch 1);
  ignore (fetch 0) (* touch 0: block 1 becomes LRU *);
  ignore (fetch 2);
  let s2 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one eviction" 1 (s2.Buffer_pool.s_evictions - s1.Buffer_pool.s_evictions);
  Alcotest.(check int) "two resident" 2 s2.Buffer_pool.s_resident_blocks;
  (* block 1 was evicted (LRU), 0 and 2 still hit *)
  ignore (fetch 0);
  ignore (fetch 2);
  let s3 = Buffer_pool.snapshot () in
  Alcotest.(check int) "0 and 2 hit" 2 (s3.Buffer_pool.s_hits - s2.Buffer_pool.s_hits);
  ignore (fetch 1);
  let s4 = Buffer_pool.snapshot () in
  Alcotest.(check int) "1 re-decodes" 1 (s4.Buffer_pool.s_misses - s3.Buffer_pool.s_misses);
  (* invalidation drops the container's blocks *)
  Buffer_pool.invalidate ~uid;
  Alcotest.(check int) "invalidate empties" 0 (Buffer_pool.snapshot ()).Buffer_pool.s_resident_blocks

let test_scan_resistant_admission () =
  let saved = Buffer_pool.budget_bytes () in
  Buffer_pool.clear ();
  let uid = Buffer_pool.fresh_uid () in
  let mk i =
    { Buffer_pool.codes = [| Printf.sprintf "c%d" i |]; parents = [| i |]; d_bytes = 100 }
  in
  let fetch ?admission i = Buffer_pool.fetch ?admission ~uid ~blk:i (fun () -> mk i) in
  Fun.protect ~finally:(fun () ->
      Buffer_pool.set_budget ~bytes:saved;
      Buffer_pool.clear ())
  @@ fun () ->
  (* 250-byte budget: exactly the two-block hot set *)
  Buffer_pool.set_budget ~bytes:250;
  ignore (fetch 0);
  ignore (fetch 1);
  let s0 = Buffer_pool.snapshot () in
  (* a "scan" sweeps 5 cold blocks with Tail admission: each enters at
     the LRU end and is itself the first eviction victim, so the hot
     set never leaves the pool *)
  for i = 10 to 14 do
    ignore (fetch ~admission:Buffer_pool.Tail i)
  done;
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "scan inserts counted" 5
    (s1.Buffer_pool.s_scan_inserts - s0.Buffer_pool.s_scan_inserts);
  Alcotest.(check bool) "stays within budget" true (s1.Buffer_pool.s_resident_bytes <= 250);
  ignore (fetch 0);
  ignore (fetch 1);
  let s2 = Buffer_pool.snapshot () in
  Alcotest.(check int) "hot set survives the scan (hits)" 2
    (s2.Buffer_pool.s_hits - s1.Buffer_pool.s_hits);
  Alcotest.(check int) "hot set survives the scan (no re-decode)" 0
    (s2.Buffer_pool.s_misses - s1.Buffer_pool.s_misses);
  (* a hit on a tail-admitted block still promotes it to MRU *)
  Buffer_pool.set_budget ~bytes:350;
  ignore (fetch ~admission:Buffer_pool.Tail 10) (* resident: 1, 0, 10(tail) *);
  ignore (fetch 10) (* hit: promoted to MRU *);
  ignore (fetch 2) (* over budget: evicts the true LRU (block 0), not 10 *);
  let s3 = Buffer_pool.snapshot () in
  ignore (fetch 10);
  let s4 = Buffer_pool.snapshot () in
  Alcotest.(check int) "promoted scan block survives eviction" 1
    (s4.Buffer_pool.s_hits - s3.Buffer_pool.s_hits);
  ignore (fetch 0);
  let s5 = Buffer_pool.snapshot () in
  Alcotest.(check int) "unpromoted LRU block was the victim" 1
    (s5.Buffer_pool.s_misses - s4.Buffer_pool.s_misses)

let test_scan_admission_via_container () =
  let c = blocky_container () in
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  ignore (Container.scan c);
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "every scan decode is tail-admitted"
    (s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses)
    (s1.Buffer_pool.s_scan_inserts - s0.Buffer_pool.s_scan_inserts);
  Alcotest.(check bool) "payload bytes accounted" true
    (s1.Buffer_pool.s_payload_bytes - s0.Buffer_pool.s_payload_bytes > 0);
  (* a pruned point lookup charges the skipped blocks' payload bytes to
     the skipped counter, in the same (compressed payload) unit *)
  Buffer_pool.clear ();
  let s2 = Buffer_pool.snapshot () in
  ignore (Container.lookup_eq c (Container.compress_constant c "v007"));
  let s3 = Buffer_pool.snapshot () in
  Alcotest.(check bool) "pruning skipped blocks" true
    (s3.Buffer_pool.s_blocks_skipped - s2.Buffer_pool.s_blocks_skipped > 0);
  Alcotest.(check bool) "skipped payload bytes accounted" true
    (s3.Buffer_pool.s_skipped_bytes - s2.Buffer_pool.s_skipped_bytes > 0)

let test_executor_pruning_via_counters () =
  (* a selective pushed-down predicate must decode strictly less than the
     whole container (the acceptance criterion of the block design) *)
  let xml =
    "<r>"
    ^ String.concat ""
        (List.init 200 (fun i -> Printf.sprintf "<e a=\"key%03d\"/>" i))
    ^ "</r>"
  in
  let saved = Container.default_block_size () in
  Container.set_default_block_size 64;
  Fun.protect ~finally:(fun () -> Container.set_default_block_size saved)
  @@ fun () ->
  let repo = Xquec_core.Loader.load ~name:"t" xml in
  let k = Option.get (Repository.find_container_by_path repo "/r/e/@a") in
  Alcotest.(check bool) "container split into many blocks" true
    (Container.block_count k > 10);
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  let items =
    Xquec_core.Executor.run repo (Xquery.Parser.parse "document(\"t\")/r/e[@a = \"key123\"]")
  in
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one element matches" 1 (List.length items);
  let decoded = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
  Alcotest.(check bool) "decoded a strict subset of blocks" true
    (decoded > 0 && decoded < Container.block_count k);
  Alcotest.(check bool) "skipped blocks were counted" true
    (s1.Buffer_pool.s_blocks_skipped - s0.Buffer_pool.s_blocks_skipped > 0)

(* ------------------------------------------------------------------ *)
(* Concurrent readers of the thread-safe buffer pool                   *)
(* ------------------------------------------------------------------ *)

let read_fixture name =
  let path = Filename.concat "fixtures" name in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let record_list (rs : Container.record array) =
  Array.to_list rs |> List.map (fun (r : Container.record) -> (r.Container.code, r.Container.parent))

let test_scan_parity () =
  let c = blocky_container ~n:60 () in
  let expected = List.init 60 (fun i -> Printf.sprintf "v%03d" i) in
  let plain rs =
    List.map (fun (code, _) -> Compress.Codec.decompress c.Container.model code) rs
  in
  Buffer_pool.clear ();
  let cold = record_list (Container.scan c) in
  Alcotest.(check (list string)) "cold scan yields every value in order" expected (plain cold);
  let warm = record_list (Container.scan c) in
  Alcotest.(check bool) "warm scan identical to cold" true (warm = cold);
  (* the pruned access paths agree too *)
  Buffer_pool.clear ();
  let eq = Container.lookup_eq c (Container.compress_constant c "v007") in
  Alcotest.(check int) "lookup_eq" 1 (List.length eq);
  let code i = (Container.get c i).Container.code in
  let lo = code 5 and hi = code 35 in
  Buffer_pool.clear ();
  let r = Container.lookup_range c ~lo:(`Incl lo) ~hi:(`Excl hi) () in
  Alcotest.(check int) "range size" 30 (List.length r)

let test_parallel_latch_dedup () =
  (* N raw domains scanning the same cold container concurrently: the
     in-flight latches must dedup decodes, so the total number of misses
     (= decode thunk runs) stays <= the block count, and every domain
     sees the same records. *)
  let c = blocky_container ~n:50 () in
  Buffer_pool.clear ();
  let reference = record_list (Container.scan c) in
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  let scans = List.init 4 (fun _ -> Domain.spawn (fun () -> record_list (Container.scan c))) in
  let results = List.map Domain.join scans in
  let s1 = Buffer_pool.snapshot () in
  List.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "domain %d scan identical" i) true (r = reference))
    results;
  let misses = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
  Alcotest.(check bool) "each block decoded at most once" true
    (misses <= Container.block_count c);
  (* 4 scans x 50 blocks = 200 accesses, each exactly one of
     hit / miss / latch wait *)
  let hits = s1.Buffer_pool.s_hits - s0.Buffer_pool.s_hits in
  let waits = s1.Buffer_pool.s_latch_waits - s0.Buffer_pool.s_latch_waits in
  Alcotest.(check int) "accesses partition into hit/miss/wait"
    (4 * Container.block_count c)
    (hits + misses + waits)

let test_v1_fixture_answers () =
  (* one domain reading the v1 fixture: answers decoded on a cold pool
     equal the warm (all-hit) ones, and no fetch ever blocks on a latch
     (no other domain decodes) *)
  let data = read_fixture "v1_small.xqc" in
  let queries =
    [
      "document(\"v1_small.xml\")/site/people/person/name";
      "document(\"v1_small.xml\")/site/people/person[age > 30]/name";
      "document(\"v1_small.xml\")/site/people/person[@id = \"p2\"]";
    ]
  in
  Buffer_pool.clear ();
  let repo = Repository.deserialize data in
  let answers () =
    List.map
      (fun q -> Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo (Xquery.Parser.parse q)))
      queries
  in
  let s0 = Buffer_pool.snapshot () in
  let cold = answers () in
  let warm = answers () in
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check (list string)) "cold answers = warm answers" cold warm;
  Alcotest.(check int) "one decoding domain never waits on a latch" 0
    (s1.Buffer_pool.s_latch_waits - s0.Buffer_pool.s_latch_waits)

(* ------------------------------------------------------------------ *)
(* distinct_parents precompute                                         *)
(* ------------------------------------------------------------------ *)

let test_distinct_parents_bit () =
  let distinct = build ~id:0 ~algorithm:Compress.Codec.Alm_alg [ ("x", 1); ("y", 2); ("z", 3) ] in
  Alcotest.(check bool) "distinct parents detected" true distinct.Container.distinct_parents;
  let dup = build ~id:1 ~algorithm:Compress.Codec.Alm_alg [ ("x", 1); ("y", 1); ("z", 3) ] in
  Alcotest.(check bool) "duplicate parent detected" false dup.Container.distinct_parents;
  (* a rebuild under a shared model recomputes the bit *)
  let before = Container.dump dup in
  let model = Compress.Codec.train Compress.Codec.Huffman_alg (List.map fst before) in
  let rebuilt, _ =
    Container.of_values ~id:1 ~path:dup.Container.path ~kind:dup.Container.kind
      ~algorithm:Compress.Codec.Huffman_alg ~model ~model_id:9 before
  in
  Alcotest.(check bool) "recompress keeps the bit honest" false rebuilt.Container.distinct_parents

let container_bits (repo : Repository.t) =
  Array.to_list repo.Repository.containers
  |> List.map (fun (c : Container.t) -> (c.Container.path, c.Container.distinct_parents))
  |> List.sort compare

let test_distinct_parents_persisted () =
  (* the bit survives a v2 save/load, and is recomputed on v1 loads *)
  let xml = Xmark.Xmlgen.generate ~scale:0.03 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let repo' = Repository.deserialize (Repository.serialize repo) in
  Alcotest.(check bool) "v2 roundtrip preserves bits" true
    (container_bits repo = container_bits repo');
  let v1 = Repository.deserialize (read_fixture "v1_small.xqc") in
  let fresh = Xquec_core.Loader.load ~name:"v1_small.xml" (read_fixture "v1_small.xml") in
  Alcotest.(check bool) "v1 load recomputes the same bits" true
    (container_bits v1 = container_bits fresh)

let test_bare_element_predicate_pruned () =
  (* regression: bare-element predicates used to re-derive parent
     distinctness with a full Container.scan per query, decoding every
     block; with the precomputed bit they prune like attribute
     predicates *)
  let xml =
    "<r>"
    ^ String.concat ""
        (List.init 200 (fun i -> Printf.sprintf "<e><c>key%03d</c></e>" i))
    ^ "</r>"
  in
  let saved = Container.default_block_size () in
  Container.set_default_block_size 64;
  Fun.protect ~finally:(fun () -> Container.set_default_block_size saved)
  @@ fun () ->
  let repo = Xquec_core.Loader.load ~name:"t" xml in
  let k = Option.get (Repository.find_container_by_path repo "/r/e/c/#text") in
  Alcotest.(check bool) "container split into many blocks" true
    (Container.block_count k > 10);
  Alcotest.(check bool) "bit precomputed as distinct" true k.Container.distinct_parents;
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  let items =
    Xquec_core.Executor.run repo (Xquery.Parser.parse "document(\"t\")/r/e[c = \"key123\"]")
  in
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one element matches" 1 (List.length items);
  let decoded = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
  Alcotest.(check bool) "bare-element predicate decodes a strict subset" true
    (decoded > 0 && decoded < Container.block_count k)

(* ------------------------------------------------------------------ *)
(* Structure tree + summary via the loader                             *)
(* ------------------------------------------------------------------ *)

let small_repo () =
  Xquec_core.Loader.load ~name:"t"
    "<a><b id=\"1\"><c>x</c><c>y</c></b><b id=\"2\"><c>z</c></b><d/></a>"

let test_tree_navigation () =
  let repo = small_repo () in
  let tree = repo.Repository.tree in
  let dict = repo.Repository.dict in
  let code n = Option.get (Name_dict.code dict n) in
  Alcotest.(check int) "node count (a,2xb,3xc,d,2x@id)" 9 (Structure_tree.node_count tree);
  let bs = Structure_tree.children_with_tag tree 0 (code "b") in
  Alcotest.(check int) "two b children" 2 (List.length bs);
  let b1 = List.hd bs in
  Alcotest.(check int) "parent of b" 0 (Structure_tree.parent tree b1);
  let cs = Structure_tree.children_with_tag tree b1 (code "c") in
  Alcotest.(check int) "two c under first b" 2 (List.length cs);
  (* ancestors via pre-order intervals *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "b ancestor of c" true
        (Structure_tree.is_ancestor tree ~ancestor:b1 ~descendant:c);
      Alcotest.(check bool) "a ancestor of c" true
        (Structure_tree.is_ancestor tree ~ancestor:0 ~descendant:c))
    cs;
  let all_desc = Structure_tree.descendants tree 0 in
  Alcotest.(check int) "descendants of root" 8 (List.length all_desc)

let test_summary_matching () =
  let repo = small_repo () in
  let s = repo.Repository.summary in
  let dict = repo.Repository.dict in
  let code n = Option.get (Name_dict.code dict n) in
  let is_attr c = (Name_dict.name dict c).[0] = '@' in
  let m = Summary.match_steps ~is_attr s [ `Child (code "a"); `Child (code "b") ] in
  Alcotest.(check int) "one b snode" 1 (List.length m);
  Alcotest.(check int) "b instances" 2 (Array.length (List.hd m).Summary.ids);
  let m = Summary.match_steps ~is_attr s [ `Desc (code "c") ] in
  Alcotest.(check int) "desc c snode" 1 (List.length m);
  Alcotest.(check int) "c instances" 3 (Array.length (List.hd m).Summary.ids);
  let m = Summary.match_steps ~is_attr s [ `Child (code "a"); `Child_any ] in
  Alcotest.(check int) "any children of a: b and d" 2 (List.length m)

(* Disjoint ascending id arrays, one per node, merge into their sorted
   concatenation. *)
let prop_merged_ids =
  QCheck2.Test.make ~name:"summary merged ids = sorted concatenation" ~count:500
    QCheck2.Gen.(pair (int_range 0 8) (small_list (pair (int_bound 100_000) (int_bound 7))))
    (fun (k, assigned) ->
      let owned =
        List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) assigned
        |> List.filter (fun (_, node) -> node < k)
      in
      let node i =
        let ids = List.filter_map (fun (id, n) -> if n = i then Some id else None) owned in
        { Summary.tag = i; path = ""; kids = []; rev_ids = []; ids = Array.of_list ids;
          text_container = None }
      in
      Summary.merged_ids (List.init k node)
      = Array.of_list (List.sort Int.compare (List.map fst owned)))

let test_summary_node_count () =
  let repo = small_repo () in
  (* root + a + b + @id + c + c/#text? (text containers are not summary
     nodes) + d: the path tree is tiny compared to the document *)
  Alcotest.(check int) "summary nodes" 5 (Summary.node_count repo.Repository.summary - 1)

(* ------------------------------------------------------------------ *)
(* Repository serialization                                            *)
(* ------------------------------------------------------------------ *)

let test_repository_roundtrip () =
  let xml = Xmark.Xmlgen.generate ~scale:0.03 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let data = Repository.serialize repo in
  let repo' = Repository.deserialize data in
  Alcotest.(check int) "node count" (Structure_tree.node_count repo.Repository.tree)
    (Structure_tree.node_count repo'.Repository.tree);
  Alcotest.(check int) "containers" (Array.length repo.Repository.containers)
    (Array.length repo'.Repository.containers);
  (* queries give identical answers on the restored repository *)
  List.iter
    (fun (q : Xmark.Queries.query) ->
      let ast = Xquery.Parser.parse q.Xmark.Queries.text in
      let a = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo ast) in
      let b = Xquec_core.Executor.serialize repo' (Xquec_core.Executor.run repo' ast) in
      Alcotest.(check string) (q.Xmark.Queries.id ^ " identical after reload") a b)
    Xmark.Queries.all

let test_repository_byte_exact () =
  let xml = Xmark.Xmlgen.generate ~scale:0.03 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let data = Repository.serialize repo in
  Alcotest.(check string) "v4 magic" "XQC\x04" (String.sub data 0 4);
  let repo' = Repository.deserialize data in
  let data' = Repository.serialize repo' in
  Alcotest.(check bool) "save/load/save is byte-exact" true (String.equal data data')

(* Re-saving an image of an older format upgrades it to v4, which then
   round-trips byte-exactly; returns the v4 image. *)
let check_upgrades_to_v4 (repo : Repository.t) =
  let cur = Repository.serialize repo in
  Alcotest.(check string) "re-save upgrades to v4" "XQC\x04" (String.sub cur 0 4);
  Alcotest.(check bool) "upgraded image round-trips" true
    (String.equal cur (Repository.serialize (Repository.deserialize cur)));
  cur

let test_repository_v1_fixture () =
  (* a repository written by the pre-block (v1) format must still load *)
  let data = read_fixture "v1_small.xqc" in
  Alcotest.(check bool) "fixture is not v2" true (String.sub data 0 4 <> "XQC\x02");
  let repo = Repository.deserialize data in
  Alcotest.(check string) "source name" "v1_small.xml" repo.Repository.source_name;
  (* it answers queries like the freshly-loaded equivalent *)
  let fresh = Xquec_core.Loader.load ~name:"v1_small.xml" (read_fixture "v1_small.xml") in
  List.iter
    (fun q ->
      let a = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo (Xquery.Parser.parse q)) in
      let b = Xquec_core.Executor.serialize fresh (Xquec_core.Executor.run fresh (Xquery.Parser.parse q)) in
      Alcotest.(check string) (q ^ " matches fresh load") a b)
    [
      "document(\"v1_small.xml\")/site/people/person/name";
      "document(\"v1_small.xml\")/site/people/person[age > 30]/name";
      "document(\"v1_small.xml\")/site/people/person[@id = \"p2\"]";
    ];
  ignore (check_upgrades_to_v4 repo)

let test_size_breakdown_consistent () =
  let xml = Xmark.Xmlgen.generate ~scale:0.05 () in
  let repo = Xquec_core.Loader.load ~name:"a" xml in
  let sz = Repository.size_breakdown repo in
  Alcotest.(check bool) "total = sum of parts" true
    (sz.Repository.total_bytes
    = sz.Repository.name_dict_bytes + sz.Repository.tree_bytes
      + sz.Repository.containers_bytes + sz.Repository.models_bytes
      + sz.Repository.summary_bytes + sz.Repository.index_bytes);
  Alcotest.(check bool) "essential < total" true
    (sz.Repository.essential_bytes < sz.Repository.total_bytes)

(* Every field of the breakdown and the compression factor, exactly, on
   the scale-0.05 XMark document (1,102 nodes, 7-bit tags). [index_bytes]
   is the directory charge computed from the node count and tag width:
   over the 2,204 BP bits, 4 B per 512-bit superblock (5) + 2 B per
   64-bit block (35) + 2 B per 256-bit min-excess block (9) = 108; over
   the seven 1,102-bit tag levels, 7 * (4 * 3 + 2 * 18) = 336. *)
let test_size_breakdown_pinned () =
  let repo = Xquec_core.Loader.load ~name:"a" (Xmark.Xmlgen.generate ~scale:0.05 ()) in
  Alcotest.(check int) "node count" 1102 (Structure_tree.node_count repo.Repository.tree);
  let sz = Repository.size_breakdown repo in
  let field = Alcotest.(check int) in
  field "name_dict_bytes" 728 sz.Repository.name_dict_bytes;
  field "tree_bytes" 3799 sz.Repository.tree_bytes;
  field "containers_bytes" 37343 sz.Repository.containers_bytes;
  field "models_bytes" 5261 sz.Repository.models_bytes;
  field "summary_bytes" 2209 sz.Repository.summary_bytes;
  field "index_bytes" (108 + 336) sz.Repository.index_bytes;
  field "total_bytes" 49784 sz.Repository.total_bytes;
  field "essential_bytes" 35043 sz.Repository.essential_bytes;
  field "original_size" 46943 repo.Repository.original_size;
  Alcotest.(check (float 0.0)) "compression_factor" (1.0 -. (49784.0 /. 46943.0))
    (Repository.compression_factor repo)

(* The committed v2 and v3 fixtures were written from
   fixtures/v3_small.xml (mixed content included) by the writers of
   their day, which no longer exist. *)
let v3_small_queries =
  [
    "document(\"v3_small.xml\")/site/people/person/name";
    "document(\"v3_small.xml\")/site/people/person[age > 30]/bio";
    "document(\"v3_small.xml\")/site/people/person[@id = \"p2\"]";
    "document(\"v3_small.xml\")//item/price";
  ]

(* Answers of the v3_small queries on [repo], one per query. *)
let v3_small_answers (repo : Repository.t) =
  List.map
    (fun q -> Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo (Xquery.Parser.parse q)))
    v3_small_queries

(* A fixture image loads to exactly what a fresh load of v3_small.xml
   builds: the same structure tree field for field (the succinct tree
   must re-interleave text markers between element children) and the
   same answers. *)
let check_fixture_matches_fresh (repo : Repository.t) =
  Alcotest.(check string) "source name" "v3_small.xml" repo.Repository.source_name;
  let fresh = Xquec_core.Loader.load ~name:"v3_small.xml" (read_fixture "v3_small.xml") in
  let t = repo.Repository.tree and tf = fresh.Repository.tree in
  Alcotest.(check int) "node count" (Structure_tree.node_count tf) (Structure_tree.node_count t);
  Option.iter
    (Alcotest.failf "node %d differs from a fresh load")
    (Test_succinct.first_difference t tf);
  List.iter2
    (fun q (a, b) -> Alcotest.(check string) (q ^ " matches fresh load") b a)
    v3_small_queries
    (List.combine (v3_small_answers repo) (v3_small_answers fresh))

let test_repository_v2_read_compat () =
  (* a v2 image (block containers, legacy plain-varint tree, no flags
     byte) must still load *)
  let data = read_fixture "v2_small.xqc" in
  Alcotest.(check string) "fixture is v2" "XQC\x02" (String.sub data 0 4);
  let repo = Repository.deserialize data in
  check_fixture_matches_fresh repo;
  ignore (check_upgrades_to_v4 repo)

let test_repository_v3_fixture () =
  (* a v3 image (packed record tree) must still load *)
  let data = read_fixture "v3_small.xqc" in
  Alcotest.(check string) "fixture is v3" "XQC\x03" (String.sub data 0 4);
  let repo = Repository.deserialize data in
  check_fixture_matches_fresh repo;
  ignore (check_upgrades_to_v4 repo)

let test_v3_v4_query_identity () =
  (* the v3 fixture and its v4 re-save answer identically, and the
     succinct tree makes the v4 image the smaller one *)
  let v3_image = read_fixture "v3_small.xqc" in
  let v3 = Repository.deserialize v3_image in
  let v4_image = check_upgrades_to_v4 v3 in
  Alcotest.(check (list string)) "identical answers on v3 and v4" (v3_small_answers v3)
    (v3_small_answers (Repository.deserialize v4_image));
  Alcotest.(check bool) "v4 re-save below the v3 fixture" true
    (String.length v4_image < String.length v3_image)

(* Re-saving an image as v4 re-encodes the wavelet tag levels from the
   flat tag array decoded at load; these digests, recorded from the
   writer that kept the loaded levels verbatim, pin that the round trip
   changes no byte. v2 and v3 were written from v3_small.xml, so their
   re-save is the golden default-options image of that document. *)
let test_resave_digests () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (fixture, digest) ->
      let image = Repository.serialize (Repository.deserialize (read_fixture fixture)) in
      Alcotest.(check string) (fixture ^ " re-saved as v4") digest (md5 image))
    [
      ("v1_small.xqc", "0dd9b0b5f6a6ee260f7210ff08ee98b1");
      ("v2_small.xqc", "2f7c3d836dd5352af836a55a5b866479");
      ("v3_small.xqc", "2f7c3d836dd5352af836a55a5b866479");
    ];
  let xml = Xmark.Xmlgen.generate ~seed:1 ~scale:0.05 () in
  let image = Xquec_core.Engine.save (Xquec_core.Engine.load ~name:"auction.xml" xml) in
  Alcotest.(check string) "XMark 0.05 seed 1 image" "90b11f66c3df3a63915ee7db5784e868" (md5 image);
  Alcotest.(check string) "XMark 0.05 seed 1 restored and re-saved" (md5 image)
    (md5 (Repository.serialize (Repository.deserialize image)));
  (* the rebuild paths: a load tuned for Q1-Q20 (the partitioner's
     shared-model rebuild) and that image re-blocked by what running
     Q1-Q20 on it observed (the compactor's reblocked swap, as
     `xquec compress --adaptive-blocks` runs it). At scale 0.05 the one
     container the observed rule would shrink is a single block that
     fits the smaller size too, so nothing is re-blocked; at scale 1.25
     the same container spans two blocks at the smaller size. *)
  let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
  let reblock tuned =
    let targets =
      Xquec_core.Engine.block_targets tuned (Xquec_core.Engine.declared_fingerprint tuned workload)
    in
    List.map
      (fun (r : Storage.Compactor.result) ->
        (r.c_path, (r.c_block_size_before, r.c_block_size_after, r.c_blocks_after)))
      (Storage.Compactor.compact (Xquec_core.Engine.repo tuned) ~targets)
  in
  let reblocked_check = Alcotest.(list (pair string (triple int int int))) in
  let tuned = Xquec_core.Engine.load ~name:"auction.xml" ~workload xml in
  Alcotest.(check string) "XMark 0.05 seed 1 image tuned for Q1-Q20"
    "01329b069b3f10711b046a9e546118a2"
    (md5 (Xquec_core.Engine.save tuned));
  Alcotest.(check reblocked_check) "the observed rule re-blocks nothing" [] (reblock tuned);
  Alcotest.(check string) "the tuned image after the observed rule"
    "01329b069b3f10711b046a9e546118a2"
    (md5 (Xquec_core.Engine.save tuned));
  let tuned =
    Xquec_core.Engine.load ~name:"auction.xml" ~workload
      (Xmark.Xmlgen.generate ~seed:1 ~scale:1.25 ())
  in
  Alcotest.(check string) "XMark 1.25 seed 1 image tuned for Q1-Q20"
    "a00ce663df508ac74c7c0ddd1c118336"
    (md5 (Xquec_core.Engine.save tuned));
  Alcotest.(check reblocked_check) "the observed rule re-blocks one container into two blocks"
    [ ("/site/open_auctions/open_auction/bidder/personref/@person", (16384, 4096, 2)) ]
    (reblock tuned);
  Alcotest.(check string) "the tuned image after the observed re-blocking"
    "c99e6bd164ffd49fad55c1230ba8022c"
    (md5 (Xquec_core.Engine.save tuned))

(* More than 256 distinct names: tag codes no longer fit in a byte, so
   the flat tag array uses wider cells and the wavelet needs more than
   8 levels. 30 sections each hold 15 [e<k>] elements (k covering
   0..299), each with an [a] attribute, mixed text and an [x<k>] child:
   603 names in all. *)
let wide_xml =
  let b = Buffer.create 65536 in
  Buffer.add_string b "<top>";
  for s = 0 to 29 do
    Buffer.add_string b "<sec>";
    for k = 0 to 14 do
      let e = ((s * 10) + k) mod 300 in
      Printf.bprintf b "<e%d a=\"%d\">t%d_%d<x%d>u%d</x%d></e%d>" e s s k e k e e
    done;
    Buffer.add_string b "</sec>"
  done;
  Buffer.add_string b "</top>";
  Buffer.contents b

let test_wide_dictionary () =
  let fresh = Xquec_core.Loader.load ~name:"wide.xml" wide_xml in
  Alcotest.(check bool) "more than 256 names" true
    (Name_dict.size fresh.Repository.dict > 256);
  let image = Repository.serialize fresh in
  let restored = Repository.deserialize image in
  Alcotest.(check bool) "re-save is byte-identical" true
    (String.equal image (Repository.serialize restored));
  let t = restored.Repository.tree and tf = fresh.Repository.tree in
  let n = Structure_tree.node_count tf in
  Alcotest.(check int) "node count" n (Structure_tree.node_count t);
  Alcotest.(check bool) "codes past 255 in the tree" true
    (List.exists (fun id -> Structure_tree.tag tf id > 255) (List.init n Fun.id));
  for id = 0 to n - 1 do
    if Structure_tree.tag t id <> Structure_tree.tag tf id
       || Test_succinct.entries t id <> Test_succinct.entries tf id
       || Structure_tree.last_descendant t id <> Structure_tree.last_descendant tf id
    then Alcotest.failf "node %d differs from a fresh load" id
  done;
  let answers repo =
    List.map
      (fun q -> Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo (Xquery.Parser.parse q)))
  in
  let queries =
    [
      "document(\"wide.xml\")/top/sec/e250";
      "document(\"wide.xml\")//x299";
      "document(\"wide.xml\")//e7/x7";
      "document(\"wide.xml\")//e100/@a";
      "document(\"wide.xml\")/top/sec/*";
      "for $s in document(\"wide.xml\")/top/sec return count($s//x42)";
      "for $e in document(\"wide.xml\")//e260 return $e/*";
    ]
  in
  let expected = answers fresh queries in
  Alcotest.(check bool) "queries find nodes" true
    (List.for_all (fun a -> String.length a > 0) expected);
  Alcotest.(check (list string)) "restored answers match a fresh load" expected
    (answers restored queries)

let test_repository_header_check () =
  (* exactly four headers load; every other image starting with "XQC"
     is refused by name instead of misparsed *)
  let v4 = Repository.serialize (Repository.deserialize (read_fixture "v3_small.xqc")) in
  let body = String.sub v4 5 (String.length v4 - 5) in
  List.iter
    (fun (name, data, accepted) ->
      match Repository.deserialize data with
      | _ -> if not accepted then Alcotest.failf "%s: loaded" name
      | exception Repository.Corrupt msg when not accepted ->
        if not (String.starts_with ~prefix:"repository: unsupported format" msg) then
          Alcotest.failf "%s: unexpected failure %S" name msg)
    [
      ("v1", read_fixture "v1_small.xqc", true);
      ("v2", read_fixture "v2_small.xqc", true);
      ("v3", read_fixture "v3_small.xqc", true);
      ("v4", v4, true);
      ("XQC\\x05", "XQC\x05\x02" ^ body, false);
      ("XQC\\x09", "XQC\x09\x02" ^ body, false);
      ("bare XQC", "XQC", false);
      ("XQC\\x04 without flags", "XQC\x04", false);
      ("XQC\\x04 flags 0", "XQC\x04\x00" ^ body, false);
      ("XQC\\x04 flags 6", "XQC\x04\x06" ^ body, false);
      ("XQC\\x04 flags 3", "XQC\x04\x03" ^ body, false);
      ("XQC\\x03 flags 2", "XQC\x03\x02" ^ body, false);
    ]

(* Inputs that are not images, or not whole ones, raise the one typed
   error and nothing else: an XML document, and strict prefixes of an
   XMark image (evenly spaced, plus every one of the last 64 bytes). The
   v1-v3 fixtures still load. *)
let test_not_an_image_is_corrupt () =
  let xml = Xmark.Xmlgen.generate ~seed:1 ~scale:0.05 () in
  let image = Repository.serialize (Xquec_core.Loader.load ~name:"auction.xml" xml) in
  let n = String.length image in
  let expect_corrupt name data =
    match Repository.deserialize data with
    | _ -> Alcotest.failf "%s: loaded" name
    | exception Repository.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  expect_corrupt "xml document" xml;
  for i = 0 to 255 do
    let len = i * n / 256 in
    expect_corrupt (Printf.sprintf "prefix %d/%d" len n) (String.sub image 0 len)
  done;
  for len = n - 64 to n - 1 do
    expect_corrupt (Printf.sprintf "prefix %d/%d" len n) (String.sub image 0 len)
  done;
  ignore (Repository.deserialize image);
  List.iter
    (fun f -> ignore (Repository.deserialize (read_fixture f)))
    [ "v1_small.xqc"; "v2_small.xqc"; "v3_small.xqc" ]

let test_capped_bounds_conservative () =
  (* codes longer than the 8-byte header cap: the exact bit must clear
     and min/max pruning must stay conservative — equality lookups
     still find every value even though all bounds share one capped
     prefix *)
  let saved = Container.default_block_size () in
  Container.set_default_block_size 512;
  Fun.protect ~finally:(fun () -> Container.set_default_block_size saved)
  @@ fun () ->
  let values =
    List.init 100 (fun i ->
        (Printf.sprintf "a-very-long-shared-prefix-%04d-%020d" i i, i + 1))
  in
  let c = build ~id:0 ~algorithm:Compress.Codec.Alm_alg values in
  Alcotest.(check bool) "split into several blocks" true (Container.block_count c > 3);
  let hs = Container.headers c in
  Alcotest.(check bool) "long codes clear the exact bit" true
    (Array.exists (fun h -> not h.Container.h_exact) hs);
  Array.iter
    (fun h ->
      Alcotest.(check bool) "bounds capped at 8 bytes" true
        (String.length h.Container.h_min <= 8 && String.length h.Container.h_max <= 8))
    hs;
  (* every value still found through min/max pruning *)
  List.iter
    (fun (v, p) ->
      let hits = Container.lookup_eq c (Container.compress_constant c v) in
      Alcotest.(check (list int)) ("finds " ^ v) [ p ]
        (List.map (fun r -> r.Container.parent) hits))
    values;
  (* and a header-only join estimate over capped bounds reports itself
     inexact while still pairing every block with its equals *)
  let est = Xquec_core.Cost_model.block_join_estimate hs hs in
  Alcotest.(check bool) "estimate marked inexact" true
    (not est.Xquec_core.Cost_model.bj_exact);
  let paired_self =
    List.for_all
      (fun i -> List.mem (i, i) est.Xquec_core.Cost_model.bj_pairs)
      (List.init (Array.length hs) (fun i -> i))
  in
  Alcotest.(check bool) "every block pairs with itself" true paired_self;
  (* one-record blocks whose codes share a capped prefix: the headers
     cannot tell the blocks apart, so every block an interval admits is
     cut by its own codes, not only the first and last *)
  let n = 12 in
  let c =
    build ~block_size:1 ~id:0 ~algorithm:Compress.Codec.Huffman_alg
      (List.init n (fun i -> (String.make 100 'x' ^ Printf.sprintf "%02d" i, i)))
  in
  let all = Container.scan c in
  let codes = List.map (fun (r : Container.record) -> r.Container.code) in
  let slice lo hi = List.init (max 0 (hi - lo)) (fun k -> all.(lo + k).Container.code) in
  for i = 0 to n - 1 do
    let code = all.(i).Container.code in
    let check name expected lo hi =
      Alcotest.(check (list string)) name expected (codes (Container.lookup_range c ?lo ?hi ()))
    in
    check "incl lo" (slice i n) (Some (`Incl code)) None;
    check "excl lo" (slice (i + 1) n) (Some (`Excl code)) None;
    check "incl hi" (slice 0 (i + 1)) None (Some (`Incl code));
    check "excl hi" (slice 0 i) None (Some (`Excl code));
    Alcotest.(check (list string)) "eq" [ code ] (codes (Container.lookup_eq c code))
  done

(* Damaged value pointers and summary id lists are refused at restore,
   each with its check's message, instead of failing mid-query (a bad
   record index) or answering wrongly (a bad id list). Tree nodes in
   pre-order: a b c d c c e f; e holds text around f. *)
let test_damaged_pointers_are_corrupt () =
  let xml = "<a><b><c>x</c></b><d><c>y</c><c>z</c></d><e>p<f/>q</e></a>" in
  let expect name msg (r : Repository.t) =
    match Repository.deserialize (Repository.serialize r) with
    | _ -> Alcotest.failf "%s: loaded" name
    | exception Repository.Corrupt m -> Alcotest.(check string) name msg m
  in
  let damaged name msg f =
    let r = Xquec_core.Loader.load ~name:"d.xml" xml in
    let snode path =
      List.find
        (fun (n : Summary.node) -> n.Summary.path = path)
        (Summary.descend_all r.Repository.summary.Summary.root [])
    in
    f r snode;
    expect name msg r
  in
  ignore (Repository.deserialize (Repository.serialize (Xquec_core.Loader.load ~name:"d.xml" xml)));
  damaged "record index past its container" "structure_tree: record index out of range" (fun r _ ->
      (* the second c of d points at record 1 of a container left with one *)
      let c = Option.get (Repository.find_container_by_path r "/a/d/c/#text") in
      let shorter, _ =
        Container.of_values ~id:c.Container.id ~path:c.Container.path ~kind:c.Container.kind
          ~algorithm:c.Container.algorithm ~model:c.Container.model
          ~model_id:c.Container.model_id
          [ List.hd (Container.dump c) ]
      in
      ignore (Repository.replace_container r shorter));
  damaged "node listed twice" "repository: tree node listed twice in the summary" (fun _ snode ->
      let bc = snode "/a/b/c" and dc = snode "/a/d/c" in
      dc.Summary.ids <- Array.append bc.Summary.ids dc.Summary.ids);
  damaged "node not listed" "repository: summary does not cover the tree" (fun _ snode ->
      let dc = snode "/a/d/c" in
      dc.Summary.ids <- [| dc.Summary.ids.(0) |]);
  damaged "id past the tree" "repository: summary id out of range" (fun _ snode ->
      (snode "/a/e/f").Summary.ids <- [| 8 |]);
  damaged "tag mismatch" "repository: summary tag does not match the tree" (fun _ snode ->
      let b = snode "/a/b" and d = snode "/a/d" in
      let ids = b.Summary.ids in
      b.Summary.ids <- d.Summary.ids;
      d.Summary.ids <- ids);
  damaged "parent mismatch" "repository: summary parent does not match the tree" (fun _ snode ->
      let bc = snode "/a/b/c" and dc = snode "/a/d/c" in
      let ids = bc.Summary.ids in
      bc.Summary.ids <- dc.Summary.ids;
      dc.Summary.ids <- ids);
  (* marker positions of e (two values around one child): the image's
     tree section ends with e's marker count and zigzag position deltas
     0 and +1, then f's empty value list *)
  let r = Xquec_core.Loader.load ~name:"d.xml" xml in
  let image = Repository.serialize r in
  let tree =
    let buf = Buffer.create 64 in
    Structure_tree.serialize_succinct buf r.Repository.tree;
    Buffer.contents buf
  in
  let n = String.length tree in
  Alcotest.(check string) "tree tail" "\002\000\002\000" (String.sub tree (n - 4) 4);
  let at =
    let rec find i = if String.sub image i n = tree then i else find (i + 1) in
    find 0
  in
  List.iter
    (fun (name, tail, msg) ->
      let bad = Bytes.of_string image in
      Bytes.blit_string tail 0 bad (at + n - 3) 2;
      match Repository.deserialize (Bytes.to_string bad) with
      | _ -> Alcotest.failf "%s: loaded" name
      | exception Repository.Corrupt m -> Alcotest.(check string) name msg m)
    [
      ("markers decrease", "\002\001", "structure_tree: marker positions decrease");
      ("marker past the children", "\000\004", "structure_tree: marker position past the child count");
    ]

let suites =
  [
    ( "storage",
      [
        Alcotest.test_case "name dictionary" `Quick test_name_dict;
        Alcotest.test_case "name dictionary bits (paper example)" `Quick test_name_dict_bits;
        Alcotest.test_case "container is value-sorted" `Quick test_container_sorted;
        Alcotest.test_case "container equality lookup" `Quick test_container_lookup_eq;
        Alcotest.test_case "container range lookup" `Quick test_container_lookup_range;
        Alcotest.test_case "container recompression remap" `Quick test_container_recompress;
        Alcotest.test_case "block structure invariants" `Quick test_container_blocks;
        Alcotest.test_case "min/max block pruning" `Quick test_block_pruning;
        Alcotest.test_case "buffer pool LRU + accounting" `Quick test_buffer_pool_hits_and_eviction;
        Alcotest.test_case "scan-resistant tail admission" `Quick test_scan_resistant_admission;
        Alcotest.test_case "scan admission via container" `Quick test_scan_admission_via_container;
        Alcotest.test_case "executor pruning skips decodes" `Quick test_executor_pruning_via_counters;
        Alcotest.test_case "cold/warm scan parity" `Quick test_scan_parity;
        Alcotest.test_case "latch dedup under contention" `Quick test_parallel_latch_dedup;
        Alcotest.test_case "v1 fixture cold/warm parity" `Quick test_v1_fixture_answers;
        Alcotest.test_case "distinct_parents precompute" `Quick test_distinct_parents_bit;
        Alcotest.test_case "distinct_parents persisted / recomputed" `Quick test_distinct_parents_persisted;
        Alcotest.test_case "bare-element predicate pruned" `Quick test_bare_element_predicate_pruned;
        Alcotest.test_case "structure tree navigation" `Quick test_tree_navigation;
        Alcotest.test_case "summary matching" `Quick test_summary_matching;
        Alcotest.test_case "summary is small" `Quick test_summary_node_count;
        QCheck_alcotest.to_alcotest prop_merged_ids;
        Alcotest.test_case "repository roundtrip" `Slow test_repository_roundtrip;
        Alcotest.test_case "repository image byte-exact" `Quick test_repository_byte_exact;
        Alcotest.test_case "repository v1 fixture read" `Quick test_repository_v1_fixture;
        Alcotest.test_case "repository v2 read compat" `Quick test_repository_v2_read_compat;
        Alcotest.test_case "repository v3 fixture read" `Quick test_repository_v3_fixture;
        Alcotest.test_case "v3 vs v4 query identity" `Quick test_v3_v4_query_identity;
        Alcotest.test_case "v4 re-save digests" `Quick test_resave_digests;
        Alcotest.test_case "wide name dictionary" `Quick test_wide_dictionary;
        Alcotest.test_case "size breakdown consistent" `Quick test_size_breakdown_consistent;
        Alcotest.test_case "size breakdown pinned" `Quick test_size_breakdown_pinned;
        Alcotest.test_case "repository header check" `Quick test_repository_header_check;
        Alcotest.test_case "not an image is corrupt" `Quick test_not_an_image_is_corrupt;
        Alcotest.test_case "damaged pointers are corrupt" `Quick test_damaged_pointers_are_corrupt;
        Alcotest.test_case "capped bounds stay conservative" `Quick test_capped_bounds_conservative;
      ] );
  ]

(* Differential testing: the XQueC engine must agree with the naive
   Galax-like reference on every XMark query, across generator seeds,
   with and without workload-driven partitioning, and after a
   serialize/deserialize cycle. *)

let galax_result doc ast =
  Baselines.Galax_like.serialize (Baselines.Galax_like.run ~docs:[ ("auction.xml", doc) ] ast)

let xquec_result repo ast =
  Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo ast)

let check_all_queries ~name doc repo =
  List.iter
    (fun (q : Xmark.Queries.query) ->
      let ast = Xquery.Parser.parse q.Xmark.Queries.text in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s" name q.Xmark.Queries.id)
        (galax_result doc ast) (xquec_result repo ast))
    Xmark.Queries.all

let test_seed seed () =
  let xml = Xmark.Xmlgen.generate ~seed ~scale:0.04 () in
  let doc = Xmlkit.Parser.parse_string xml in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  check_all_queries ~name:(Printf.sprintf "seed%d" seed) doc repo

let test_partitioned () =
  let xml = Xmark.Xmlgen.generate ~seed:5 ~scale:0.05 () in
  let doc = Xmlkit.Parser.parse_string xml in
  let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
  let engine = Xquec_core.Engine.load ~name:"auction.xml" ~workload xml in
  check_all_queries ~name:"partitioned" doc (Xquec_core.Engine.repo engine)

let test_after_reload () =
  let xml = Xmark.Xmlgen.generate ~seed:9 ~scale:0.04 () in
  let doc = Xmlkit.Parser.parse_string xml in
  let engine = Xquec_core.Engine.load ~name:"auction.xml" xml in
  let engine = Xquec_core.Engine.restore (Xquec_core.Engine.save engine) in
  check_all_queries ~name:"reloaded" doc (Xquec_core.Engine.repo engine)

let test_huffman_everywhere () =
  (* force the order-agnostic codec as the string default: inequality
     predicates must fall back to scans yet stay correct *)
  let xml = Xmark.Xmlgen.generate ~seed:3 ~scale:0.04 () in
  let doc = Xmlkit.Parser.parse_string xml in
  let options =
    { Xquec_core.Loader.default_string_algorithm = Compress.Codec.Huffman_alg;
      detect_numeric = false }
  in
  let repo = Xquec_core.Loader.load ~options ~name:"auction.xml" xml in
  check_all_queries ~name:"huffman" doc repo

(* The block merge join is an optimization, never a semantics change:
   its answer must be byte-identical to the hash join's on randomized
   inputs (duplicate-heavy keys so equal runs straddle block
   boundaries), across block sizes from 1 KiB to 64 KiB and both join
   orientations. *)
let test_block_join_vs_hash () =
  let mk_doc ~items ~lookups ~keyspace ~seed =
    let buf = Buffer.create (items * 32) in
    let st = ref (seed * 7919 + 1) in
    let rand m =
      st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
      !st mod m
    in
    Buffer.add_string buf "<db><items>";
    for _ = 1 to items do
      Buffer.add_string buf (Printf.sprintf "<item><key>k%04d</key></item>" (rand keyspace))
    done;
    Buffer.add_string buf "</items><lookups>";
    for _ = 1 to lookups do
      Buffer.add_string buf (Printf.sprintf "<lookup><ref>k%04d</ref></lookup>" (rand keyspace))
    done;
    Buffer.add_string buf "</lookups></db>";
    Buffer.contents buf
  in
  let queries =
    [
      "for $l in doc('j.xml')/db/lookups/lookup for $i in doc('j.xml')/db/items/item \
       where $i/key = $l/ref return $i/key";
      "for $l in doc('j.xml')/db/lookups/lookup for $i in doc('j.xml')/db/items/item \
       where $l/ref = $i/key return $i/key";
    ]
  in
  let saved_bs = Storage.Container.default_block_size () in
  let block_joins = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Storage.Container.set_default_block_size saved_bs;
      Xquec_core.Executor.set_block_join true)
  @@ fun () ->
  List.iter
    (fun bs ->
      Storage.Container.set_default_block_size bs;
      List.iter
        (fun seed ->
          let xml = mk_doc ~items:600 ~lookups:25 ~keyspace:200 ~seed in
          let eng = Xquec_core.Engine.load ~name:"j.xml" ~workload:queries xml in
          List.iter
            (fun q ->
              Xquec_core.Executor.set_block_join false;
              let hash = Xquec_core.Engine.query_serialized eng q in
              Xquec_core.Executor.set_block_join true;
              Xquec_core.Executor.reset_join_stats ();
              let block = Xquec_core.Engine.query_serialized eng q in
              let s = Xquec_core.Executor.join_stats () in
              block_joins := !block_joins + s.Xquec_core.Executor.j_block_joins;
              Alcotest.(check string) (Printf.sprintf "bs=%d seed=%d" bs seed) hash block)
            queries)
        [ 1; 2; 3 ])
    [ 1024; 4096; 65536 ];
  Alcotest.(check bool) "block join exercised at least once" true (!block_joins > 0)

(* A decorrelated inner FLWOR runs through the same clause pipeline as
   any other FLWOR: its ORDER BY must order each probe's matches, and
   its own joins may take the block merge join. Both queries must agree
   with the naive reference with the block join on and off. *)
let test_decorrelated_order_by () =
  let doc_ref = "document(\"auction.xml\")" in
  let queries =
    [
      ( "inner order by descending",
        Printf.sprintf
          "for $p in %s/site/people/person let $a := for $t in \
           %s/site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id order by \
           $t/price/text() descending return $t/price/text() return <p>{$a}</p>"
          doc_ref doc_ref );
      ( "Q9 with inner order by",
        Printf.sprintf
          "for $p in %s/site/people/person let $a := for $t in \
           %s/site/closed_auctions/closed_auction, $t2 in %s/site/regions/europe/item where \
           $t/itemref/@item = $t2/@id and $p/@id = $t/buyer/@person order by $t2/name/text() \
           return <item>{$t2/name/text()}</item> return <person \
           name=\"{$p/name/text()}\">{$a}</person>"
          doc_ref doc_ref doc_ref );
    ]
  in
  let xml = Xmark.Xmlgen.generate ~seed:42 ~scale:0.5 () in
  let doc = Xmlkit.Parser.parse_string xml in
  let workload = List.map snd queries @ List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
  let engine = Xquec_core.Engine.load ~name:"auction.xml" ~workload xml in
  let repo = Xquec_core.Engine.repo engine in
  Fun.protect ~finally:(fun () -> Xquec_core.Executor.set_block_join true) @@ fun () ->
  Xquec_core.Executor.reset_join_stats ();
  List.iter
    (fun (name, text) ->
      let ast = Xquery.Parser.parse text in
      let expected = galax_result doc ast in
      List.iter
        (fun on ->
          Xquec_core.Executor.set_block_join on;
          Alcotest.(check string)
            (Printf.sprintf "%s (block join %b)" name on)
            expected (xquec_result repo ast))
        [ true; false ])
    queries;
  Alcotest.(check int) "the Q9 variant's inner join ran as a block merge join" 1
    (Xquec_core.Executor.join_stats ()).Xquec_core.Executor.j_block_joins

(* Q19's shape over keys from several containers with different
   models: each region's names have their own source model (one region
   is all numbers, so numeric-coded), some names look numeric, some tie,
   and some items have an empty name or none. Every ordering must equal
   the naive reference, and each key decompresses at most once: the
   decode count stays within one per key plus the values returned.
   Within one order-preserving container, a comparison runs on the
   codes, in string order; so the numeric-looking names of each text
   region are chosen to sort the same as strings and as numbers. *)
let test_order_by_mixed_models () =
  let region name names =
    Printf.sprintf "<%s>%s</%s>" name
      (String.concat ""
         (List.mapi
            (fun i n ->
              let name_elt = match n with None -> "" | Some n -> "<name>" ^ n ^ "</name>" in
              Printf.sprintf "<item>%s<location>%s %d</location></item>" name_elt name i)
            names))
      name
  in
  let cycle words i = Some (List.nth words ((i * 7 + i / 3) mod List.length words)) in
  let xml =
    "<site><regions>"
    ^ region "africa" (List.init 40 (cycle [ "gold ring"; "apple"; "10"; "Zebra"; "apple" ]))
    ^ region "asia"
        (List.init 40 (fun i ->
             if i mod 9 = 0 then None else cycle [ "9.5"; "-3"; "banana"; "apple"; "Zebra" ] i))
    ^ region "europe" (List.init 40 (fun i -> Some (string_of_int ((i * 37) mod 23))))
    ^ region "namerica"
        (List.init 40 (fun i ->
             if i mod 5 = 0 then Some "" else cycle [ " 42 "; "1e2"; "gold ring"; "banana"; "Zebra" ] i))
    ^ "</regions></site>"
  in
  let doc = Xmlkit.Parser.parse_string xml in
  let d = "document(\"auction.xml\")/site/regions//item" in
  let queries =
    [
      (Printf.sprintf
         "for $b in %s let $k := $b/name/text() order by $k return <item name=\"{$k}\">{$b/location/text()}</item>"
         d, 1, 2);
      (Printf.sprintf
         "for $b in %s let $k := $b/name/text() order by $k descending return <item name=\"{$k}\">{$b/location/text()}</item>"
         d, 1, 2);
      (Printf.sprintf
         "for $b in %s order by $b/name/text() descending, $b/location/text() return $b/location/text()"
         d, 2, 1);
    ]
  in
  List.iter
    (fun (alg_name, alg) ->
      let options = { Xquec_core.Loader.default_options with default_string_algorithm = alg } in
      let repo = Xquec_core.Loader.load ~options ~name:"auction.xml" xml in
      List.iter
        (fun (text, keys, returned) ->
          let ast = Xquery.Parser.parse text in
          let expected = galax_result doc ast in
          let got, decodes =
            Xquec_obs.with_enabled (fun () ->
                Xquec_obs.Metrics.reset ();
                let got = xquec_result repo ast in
                (got, Xquec_obs.Metrics.counter_value (Printf.sprintf "codec.%s.decode_calls" alg_name)))
          in
          Alcotest.(check string) (alg_name ^ ": " ^ text) expected got;
          (* 160 items: each key and each returned value decodes once *)
          let bound = 160 * (keys + returned) in
          if decodes > bound then
            Alcotest.failf "%s: %d %s decodes, more than %d" text decodes alg_name bound)
        queries)
    [ ("alm", Compress.Codec.Alm_alg); ("huffman", Compress.Codec.Huffman_alg) ]

(* A comparison with a constant answers as the reference does whether
   it is written as a path predicate (run on the containers) or as a
   [where] clause (run per tuple): a number against a non-number
   compares as strings, and a numeric-looking string constant compares
   numerically with the values that parse as numbers, so codes cannot
   decide it in a string container. *)
let test_constant_comparisons () =
  let d = "document(\"f.xml\")" in
  let cases =
    [
      ( "<r><e><p>abc</p></e><e><p>50</p></e></r>",
        [ d ^ "/r/e[p > 40]"; "for $e in " ^ d ^ "/r/e where $e/p > 40 return $e" ] );
      ( "<r><e k=\"07\">a</e><e k=\"7\">b</e><e k=\"x\">c</e><e>d</e></r>",
        [ d ^ "/r/e[@k = \"7\"]"; "for $e in " ^ d ^ "/r/e where $e/@k = \"7\" return $e";
          d ^ "/r/e[@k = \"x\"]"; d ^ "/r/e[@k != \"x\"]"; d ^ "/r/e[@k != \"7\"]";
          d ^ "/r/e[@k != \"y\"]"; d ^ "/r/e[text() != \"b\"]" ] );
      ( "<r><e><p>10</p></e><e><p>20</p></e><e><p>20</p><p>30</p></e><e/></r>",
        [ d ^ "/r/e[p != 20]"; d ^ "/r/e[p != 15.5]"; d ^ "/r/e[p != \"x\"]";
          "for $e in " ^ d ^ "/r/e where $e/p != 20 return $e" ] );
      ( "<r><e>alpha</e><e>7</e><e>4242</e></r>",
        [ d ^ "//e[text() < \"50\"]";
          "for $v in " ^ d ^ "//e where $v/text() < \"50\" return $v";
          d ^ "//e[text() >= \"b\"]"; d ^ "//e[text() < 50]" ] );
    ]
  in
  List.iter
    (fun (alg_name, alg) ->
      let options = { Xquec_core.Loader.default_options with default_string_algorithm = alg } in
      List.iter
        (fun (xml, queries) ->
          let doc = Xmlkit.Parser.parse_string xml in
          let repo = Xquec_core.Loader.load ~options ~name:"f.xml" xml in
          List.iter
            (fun text ->
              let ast = Xquery.Parser.parse text in
              let expected =
                Baselines.Galax_like.serialize
                  (Baselines.Galax_like.run ~docs:[ ("f.xml", doc) ] ast)
              in
              Alcotest.(check string) (alg_name ^ ": " ^ text) expected (xquec_result repo ast))
            queries)
        cases)
    [ ("alm", Compress.Codec.Alm_alg); ("huffman", Compress.Codec.Huffman_alg) ]

(* [!=] needs only equality of codes: between two values coded under
   one Huffman model (which orders nothing) it runs on codes, as [=]
   does, and answers as the reference. *)
let test_neq_on_equality_codes () =
  let xml = "<r><a>ox</a><a>yak</a><a>ox</a><a>emu</a></r>" in
  let query =
    "for $a in document(\"f.xml\")/r/a, $b in document(\"f.xml\")/r/a \
     where $a/text() != $b/text() return <p>{$a/text()}-{$b/text()}</p>"
  in
  let options =
    { Xquec_core.Loader.default_options with default_string_algorithm = Compress.Codec.Huffman_alg }
  in
  let engine = Xquec_core.Engine.load ~loader_options:options ~name:"f.xml" xml in
  let r =
    Xquec_core.Engine.request engine (Xquec_core.Engine.plain query)
  in
  let totals = Xquec_obs.Explain.totals r.explain in
  Alcotest.(check bool)
    (Printf.sprintf "compressed-domain comparisons (%d)" totals.compressed)
    true (totals.compressed > 0);
  Alcotest.(check int) "no decompressed comparison" 0 totals.decompressed;
  let expected =
    Baselines.Galax_like.serialize
      (Baselines.Galax_like.run
         ~docs:[ ("f.xml", Xmlkit.Parser.parse_string xml) ]
         (Xquery.Parser.parse query))
  in
  Alcotest.(check string) "answer = reference" expected r.out

(* [!=] against a constant keeps the records whose code differs from
   the constant's wherever [=] runs on codes, so it decompresses
   nothing; a numeric-looking constant against a string container still
   scans. *)
let test_neq_constant_on_codes () =
  let xml = "<r><e k=\"07\">a</e><e k=\"7\">b</e><e k=\"x\">c</e><e>d</e></r>" in
  List.iter
    (fun alg ->
      let options = { Xquec_core.Loader.default_options with default_string_algorithm = alg } in
      let engine = Xquec_core.Engine.load ~loader_options:options ~name:"f.xml" xml in
      let totals text =
        let r =
          Xquec_core.Engine.request engine (Xquec_core.Engine.plain text)
        in
        let t = Xquec_obs.Explain.totals r.explain in
        (t.compressed, t.decompressed)
      in
      let name = Compress.Codec.algorithm_name alg in
      Alcotest.(check (pair int int)) (name ^ ": [@k != \"x\"] on codes") (2, 0)
        (totals "document(\"f.xml\")/r/e[@k != \"x\"]");
      Alcotest.(check (pair int int)) (name ^ ": [@k != \"7\"] scans") (0, 3)
        (totals "document(\"f.xml\")/r/e[@k != \"7\"]"))
    [ Compress.Codec.Alm_alg; Compress.Codec.Huffman_alg ]

let suites =
  [
    ( "differential",
      [
        Alcotest.test_case "xmark seed 1" `Slow (test_seed 1);
        Alcotest.test_case "xmark seed 2" `Slow (test_seed 2);
        Alcotest.test_case "xmark seed 42" `Slow (test_seed 42);
        Alcotest.test_case "with partitioning" `Slow test_partitioned;
        Alcotest.test_case "after save/restore" `Slow test_after_reload;
        Alcotest.test_case "huffman-only repository" `Slow test_huffman_everywhere;
        Alcotest.test_case "block join vs hash join" `Slow test_block_join_vs_hash;
        Alcotest.test_case "decorrelated order by" `Slow test_decorrelated_order_by;
        Alcotest.test_case "order by over keys of several models" `Quick
          test_order_by_mixed_models;
        Alcotest.test_case "constant comparisons match the reference" `Quick
          test_constant_comparisons;
        Alcotest.test_case "!= on one Huffman model runs on codes" `Quick
          test_neq_on_equality_codes;
        Alcotest.test_case "!= against a constant runs on codes" `Quick
          test_neq_constant_on_codes;
      ] );
  ]

(* Property/fuzz tests across layer boundaries: random documents through
   the full load -> query/reconstruct -> compare pipeline, plus codec
   edge cases. *)

open Xmlkit

(* ------------------------------------------------------------------ *)
(* Random document generator                                           *)
(* ------------------------------------------------------------------ *)

let gen_doc : Tree.document QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "item"; "name"; "x" ] in
  let attr_name = oneofl [ "id"; "k"; "v" ] in
  let word = oneofl [ "alpha"; "beta"; "42"; "3.14"; "gold ring"; ""; "z"; "7"; "07"; "4242" ] in
  let node =
    fix
      (fun self depth ->
        if depth = 0 then map Tree.text word
        else
          frequency
            [
              (2, map Tree.text word);
              ( 3,
                map3
                  (fun t ats kids -> Tree.Element (t, ats, kids))
                  tag
                  (small_list (pair attr_name word)
                  |> map (fun l -> List.sort_uniq (fun (a, _) (b, _) -> compare a b) l))
                  (list_size (int_range 0 3) (self (depth - 1))) );
            ])
  in
  map3
    (fun t ats kids -> { Tree.root = Tree.Element (t, ats, kids) })
    tag
    (small_list (pair attr_name word)
    |> map (fun l -> List.sort_uniq (fun (a, _) (b, _) -> compare a b) l))
    (list_size (int_range 0 5) (node 2))

(* The loader drops whitespace-only text, and adjacent generated text
   nodes merge when printed and reparsed; normalize both sides the same
   way for comparison. *)
let rec normalize (n : Tree.t) : Tree.t option =
  match n with
  | Tree.Text s -> if String.trim s = "" then None else Some n
  | Tree.Element (t, a, k) ->
    let merged =
      List.fold_left
        (fun acc child ->
          match acc, child with
          | Tree.Text s :: rest, Tree.Text s' -> Tree.Text (s ^ s') :: rest
          | acc, child -> child :: acc)
        [] k
      |> List.rev
    in
    Some (Tree.Element (t, a, List.filter_map normalize merged))

let normalize_doc (d : Tree.document) =
  match normalize d.Tree.root with
  | Some r -> r
  | None -> Tree.Element ("empty", [], [])

(* ------------------------------------------------------------------ *)
(* Whole-pipeline properties                                           *)
(* ------------------------------------------------------------------ *)

let prop_load_reconstruct =
  QCheck2.Test.make ~name:"load -> reconstruct is the identity (mod whitespace)" ~count:150
    gen_doc (fun doc ->
      let xml = Printer.to_string doc in
      let engine = Xquec_core.Engine.load ~name:"f.xml" xml in
      let back = Xquec_core.Engine.to_document engine in
      Tree.equal (normalize_doc doc) (normalize_doc back))

let prop_save_restore_reconstruct =
  QCheck2.Test.make ~name:"save -> restore -> reconstruct is the identity" ~count:60 gen_doc
    (fun doc ->
      let xml = Printer.to_string doc in
      let engine = Xquec_core.Engine.load ~name:"f.xml" xml in
      let engine' = Xquec_core.Engine.restore (Xquec_core.Engine.save engine) in
      Tree.equal
        (normalize_doc (Xquec_core.Engine.to_document engine))
        (normalize_doc (Xquec_core.Engine.to_document engine')))

let prop_restored_tree_matches =
  QCheck2.Test.make ~name:"save -> restore keeps every child entry and value pointer" ~count:100
    gen_doc (fun doc ->
      let repo = Xquec_core.Loader.load ~name:"f.xml" (Printer.to_string doc) in
      let image = Storage.Repository.serialize repo in
      let back = Storage.Repository.deserialize image in
      Test_succinct.first_difference repo.Storage.Repository.tree back.Storage.Repository.tree
      = None
      && String.equal image (Storage.Repository.serialize back))

let prop_counts_agree =
  QCheck2.Test.make ~name:"descendant counts agree with the DOM" ~count:100 gen_doc
    (fun doc ->
      let xml = Printer.to_string doc in
      let engine = Xquec_core.Engine.load ~name:"f.xml" xml in
      List.for_all
        (fun tag ->
          let q = Printf.sprintf "count(document(\"f.xml\")//%s)" tag in
          let got = Xquec_core.Engine.query_serialized engine q in
          (* descendants_with_tag is descendant-or-self, which matches
             what //tag from the document node returns *)
          let expected = List.length (Tree.descendants_with_tag doc.Tree.root tag) in
          String.equal got (string_of_int expected))
        [ "a"; "item"; "x" ])

let prop_random_value_queries =
  (* pick a value present in the document; an equality query must find
     at least one match under every codec *)
  QCheck2.Test.make ~name:"equality pushdown finds planted values" ~count:80
    QCheck2.Gen.(pair gen_doc (oneofl [ "alpha"; "gold ring"; "42" ]))
    (fun (doc, needle) ->
      let planted =
        Tree.Element ("planted", [], [ Tree.Element ("v", [], [ Tree.Text needle ]) ])
      in
      let root =
        match doc.Tree.root with
        | Tree.Element (t, a, k) -> Tree.Element (t, a, planted :: k)
        | Tree.Text _ -> planted
      in
      let xml = Printer.to_string { Tree.root } in
      List.for_all
        (fun alg ->
          let options =
            { Xquec_core.Loader.default_string_algorithm = alg; detect_numeric = false }
          in
          let repo = Xquec_core.Loader.load ~options ~name:"f.xml" xml in
          let q =
            Printf.sprintf "count(document(\"f.xml\")//v[. = \"%s\"])" needle
          in
          match Xquec_core.Executor.run repo (Xquery.Parser.parse q) with
          | [ Xquec_core.Executor.Num n ] -> n >= 1.0
          | _ -> false)
        [ Compress.Codec.Alm_alg; Compress.Codec.Huffman_alg; Compress.Codec.Hu_tucker_alg ])

(* ------------------------------------------------------------------ *)
(* Randomized query differential testing                               *)
(* ------------------------------------------------------------------ *)

(* Random simple queries over random documents, checked against the
   naive reference engine: paths over both axes, attribute and text
   steps, comparison and existence predicates against quoted words
   (numeric look-alikes among them) and unquoted numbers, counts and
   wrappers. *)
let gen_query : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "item"; "name"; "x" ] in
  let attr = oneofl [ "id"; "k"; "v" ] in
  let word = oneofl [ "alpha"; "beta"; "42"; "z"; "7"; "07"; "4242" ] in
  let sep = oneofl [ "/"; "//" ] in
  let op = oneofl [ "="; "<"; "<="; ">"; ">=" ] in
  let operand =
    oneof [ map (Printf.sprintf "\"%s\"") word; oneofl [ "7"; "42"; "4242"; "3.14" ] ]
  in
  let pred =
    oneof
      [
        return "";
        map (fun t -> Printf.sprintf "[%s]" t) tag;
        map3 (fun a o w -> Printf.sprintf "[@%s %s %s]" a o w) attr op operand;
        map3 (fun t o w -> Printf.sprintf "[%s %s %s]" t o w) tag op operand;
        return "[1]";
        return "[last()]";
      ]
  in
  let step = map3 (fun s t p -> s ^ t ^ p) sep tag pred in
  let steps = map (String.concat "") (list_size (int_range 1 3) step) in
  let leaf = oneof [ return ""; return "/text()"; map (fun a -> "/@" ^ a) attr ] in
  let path = map2 (fun st l -> "document(\"f.xml\")" ^ st ^ l) steps leaf in
  oneof
    [
      path;
      map (fun p -> Printf.sprintf "count(%s)" p) path;
      map2
        (fun p w ->
          Printf.sprintf
            "for $i in %s where contains(string($i), \"%s\") return string($i)" p w)
        path word;
    ]

let prop_random_queries_agree =
  QCheck2.Test.make ~name:"random queries: executor = naive reference" ~count:250
    QCheck2.Gen.(pair gen_doc gen_query)
    (fun (doc, query) ->
      let xml = Printer.to_string doc in
      let parsed = Parser.parse_string xml in
      let ast = Xquery.Parser.parse query in
      let reference =
        Baselines.Galax_like.serialize
          (Baselines.Galax_like.run ~docs:[ ("f.xml", parsed) ] ast)
      in
      let repo = Xquec_core.Loader.load ~name:"f.xml" xml in
      let got = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo ast) in
      String.equal reference got)

(* ------------------------------------------------------------------ *)
(* Set-at-a-time paths against the reference                           *)
(* ------------------------------------------------------------------ *)

(* Documents for batched paths: repeated, missing and attribute
   children, mixed content (several text slots per element), and every
   tag nested under itself, so [//e] binds nested instances of
   different summary nodes. One numeric word only: values of one
   order-preserving container compare by code, that is as strings,
   where the reference compares numbers numerically ("4242" < "7"),
   and that is not what this property is about. *)
let gen_batch_doc : Tree.document QCheck2.Gen.t =
  let open QCheck2.Gen in
  let word = oneofl [ "alpha"; "beta"; "42"; "z" ] in
  let attrs =
    list_size (int_range 0 2) (pair (oneofl [ "k"; "id" ]) word)
    |> map (fun l -> List.sort_uniq (fun (a, _) (b, _) -> compare a b) l)
  in
  let node =
    fix (fun self depth ->
        if depth = 0 then map Tree.text word
        else
          frequency
            [
              (3, map Tree.text word);
              ( 5,
                map3
                  (fun t ats kids -> Tree.Element (t, ats, kids))
                  (oneofl [ "e"; "e"; "c"; "c"; "d" ])
                  attrs
                  (list_size (int_range 0 5) (self (depth - 1))) );
            ])
  in
  map (fun kids -> { Tree.root = Tree.Element ("r", [], kids) }) (list_size (int_range 1 5) (node 4))

(* A relative path R of child name steps with at most one positional
   predicate each, ending at elements, text() or an attribute — the
   shapes the executor batches; [~nodes] keeps it ending at elements. *)
let gen_rel ~nodes : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let step =
    map2 (fun t p -> "/" ^ t ^ p) (oneofl [ "e"; "c"; "d" ])
      (oneofl [ ""; "[1]"; "[2]"; "[last()]" ])
  in
  let leaf = if nodes then return "" else oneofl [ ""; "/text()"; "/text()"; "/@k"; "/@id" ] in
  map2
    (fun steps leaf ->
      match String.concat "" steps ^ leaf with "" -> if nodes then "/c" else "/text()" | r -> r)
    (list_size (oneofl [ 0; 1; 2; 2; 3 ]) step) leaf

(* Two or three steps with a positional predicate past the first, so a
   binding reaches it through several context nodes. *)
let gen_pos_rel : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tag = oneofl [ "e"; "c"; "d" ] in
  let pos = oneofl [ "[1]"; "[2]"; "[last()]" ] in
  map3
    (fun (t1, t2) p leaf -> "/" ^ t1 ^ "/" ^ t2 ^ p ^ leaf)
    (pair tag tag) pos
    (oneofl [ ""; "/text()"; "/@k"; "/c" ])

let gen_batch_query : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let src =
    map (fun p -> "document(\"f.xml\")" ^ p)
      (oneofl [ "/r/e"; "//e"; "//c"; "/r/*"; "//d"; "/r/e/c" ])
  in
  let rel = gen_rel ~nodes:false and nrel = gen_rel ~nodes:true in
  let word = oneofl [ "alpha"; "42"; "z" ] in
  let pick = oneofl in
  src >>= fun p ->
  src >>= fun q ->
  rel >>= fun r1 ->
  rel >>= fun r2 ->
  rel >>= fun r3 ->
  nrel >>= fun n1 ->
  gen_pos_rel >>= fun pr ->
  word >>= fun w ->
  pick
    [
      Printf.sprintf "for $v in %s return $v%s" p r1;
      Printf.sprintf "for $v in %s return <o>{$v%s}</o>" p pr;
      Printf.sprintf "for $v in %s return <o>{$v%s}{$v%s}</o>" p r1 r2;
      Printf.sprintf "for $v in %s where exists($v%s) return $v%s" p r1 r2;
      Printf.sprintf "for $v in %s where empty($v%s) return <o>{$v%s}</o>" p r1 r2;
      Printf.sprintf "for $v in %s where $v%s = \"%s\" return $v%s" p r1 w r2;
      Printf.sprintf "for $v in %s where $v%s < $v%s return <o>{$v%s}</o>" p r1 r2 r3;
      Printf.sprintf "for $v in %s order by $v%s return <o>{$v%s}</o>" p r1 r2;
      Printf.sprintf "for $v in %s order by $v%s descending return $v%s" p r1 r2;
      Printf.sprintf "for $v in %s where some $x in $v%s satisfies $x%s = \"%s\" return $v%s" p
        n1 r1 w r2;
      Printf.sprintf "for $v in %s where every $x in $v%s satisfies exists($x%s) return <o>{$v%s}</o>"
        p n1 r1 r2;
      Printf.sprintf "for $v in %s for $x in $v%s return <o>{$x%s}</o>" p n1 r1;
      Printf.sprintf "for $v in %s return <o>{for $x in $v%s return <i>{$x%s}</i>}</o>" p n1 r1;
      Printf.sprintf "for $v in %s return <o>{for $x in $v return $x%s}</o>" p pr;
      Printf.sprintf
        "for $v in %s let $l := for $w in %s where $w%s = $v%s return <i>{$w%s}</i> return <o>{$l}</o>"
        p q r1 r2 r3;
      Printf.sprintf "for $v in %s for $w in %s where $v%s = $w%s return <o>{$w%s}</o>" p q r1 r2 r3;
    ]

let prop_batched_paths_agree =
  QCheck2.Test.make ~name:"batched paths: executor = naive reference" ~count:800
    ~print:(fun (doc, q) -> q ^ "\n" ^ Printer.to_string doc)
    QCheck2.Gen.(pair gen_batch_doc gen_batch_query)
    (fun (doc, query) ->
      let xml = Printer.to_string doc in
      let ast = Xquery.Parser.parse query in
      let reference =
        Baselines.Galax_like.serialize
          (Baselines.Galax_like.run ~docs:[ ("f.xml", Parser.parse_string xml) ] ast)
      in
      let repo = Xquec_core.Loader.load ~name:"f.xml" xml in
      String.equal reference
        (Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo ast)))

(* ------------------------------------------------------------------ *)
(* Codec edge cases                                                    *)
(* ------------------------------------------------------------------ *)

let test_degenerate_containers () =
  (* single-value, all-identical, and highly repetitive containers must
     roundtrip under every trainable codec *)
  let cases =
    [
      [ "x" ];
      List.init 50 (fun _ -> "same");
      [ String.make 5000 'a' ];
      [ "" ; "" ; "" ];
      [ "\x00\x01\x02"; "\xff\xfe" ];
    ]
  in
  List.iter
    (fun values ->
      List.iter
        (fun alg ->
          match Compress.Codec.train alg values with
          | exception Compress.Codec.Unsupported _ -> ()
          | model ->
            List.iter
              (fun v ->
                Alcotest.(check string)
                  (Compress.Codec.algorithm_name alg ^ " degenerate roundtrip")
                  v
                  (Compress.Codec.decompress model (Compress.Codec.compress model v)))
              values)
        Compress.Codec.all_algorithms)
    cases

let test_empty_document_parts () =
  let engine = Xquec_core.Engine.load ~name:"e.xml" "<root/>" in
  Alcotest.(check string) "count on empty" "0"
    (Xquec_core.Engine.query_serialized engine "count(document(\"e.xml\")//anything)");
  Alcotest.(check string) "reconstruct empty" "<root/>" (Xquec_core.Engine.to_xml engine)

let test_malformed_repository_rejected () =
  (* corrupting a serialized repository must raise, not crash or return
     garbage silently *)
  let engine = Xquec_core.Engine.load ~name:"m.xml" "<a><b>x</b></a>" in
  let data = Xquec_core.Engine.save engine in
  let corrupt = String.sub data 0 (String.length data / 2) in
  match Xquec_core.Engine.restore corrupt with
  | exception _ -> ()
  | _ ->
    (* a truncated prefix may coincidentally parse; ensure byte damage in
       the header is caught too *)
    let damaged = "\xff\xff\xff" ^ data in
    (match Xquec_core.Engine.restore damaged with
    | exception _ -> ()
    | _ -> Alcotest.fail "corrupted repository accepted")

let test_huge_values () =
  let big = String.concat " " (List.init 2000 (fun i -> string_of_int (i mod 37))) in
  let xml = Printf.sprintf "<d><t>%s</t><t>short</t></d>" big in
  let engine = Xquec_core.Engine.load ~name:"h.xml" xml in
  Alcotest.(check string) "huge value roundtrips" big
    (Xquec_core.Engine.query_serialized engine "document(\"h.xml\")/d/t[1]/text()")

let suites =
  [
    ( "fuzz",
      [
        QCheck_alcotest.to_alcotest prop_load_reconstruct;
        QCheck_alcotest.to_alcotest prop_save_restore_reconstruct;
        QCheck_alcotest.to_alcotest prop_restored_tree_matches;
        QCheck_alcotest.to_alcotest prop_counts_agree;
        QCheck_alcotest.to_alcotest prop_random_value_queries;
        QCheck_alcotest.to_alcotest prop_random_queries_agree;
        QCheck_alcotest.to_alcotest prop_batched_paths_agree;
        Alcotest.test_case "degenerate containers" `Quick test_degenerate_containers;
        Alcotest.test_case "empty document" `Quick test_empty_document_parts;
        Alcotest.test_case "malformed repository rejected" `Quick
          test_malformed_repository_rejected;
        Alcotest.test_case "huge values" `Quick test_huge_values;
      ] );
  ]

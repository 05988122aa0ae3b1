(* Additional coverage: the executor's select/sort/text operators, summary
   serialization, codec misuse, workload corner cases, and the CLI's
   workload-file format helpers exercised through the engine. *)

open Xquec_core

let shop =
  "<shop><item id=\"i1\" price=\"10.50\"><name>chair</name></item>\
   <item id=\"i2\" price=\"5.00\"><name>table</name></item>\
   <item id=\"i3\" price=\"99.99\"><name>mirror</name></item></shop>"

let repo = lazy (Loader.load ~name:"shop.xml" shop)

(* [q] on the shop repository, serialized *)
let run q =
  let repo = Lazy.force repo in
  Executor.serialize repo (Executor.run repo (Xquery.Parser.parse q))

(* ------------------------------------------------------------------ *)
(* The paper's Select, Project, Sort, TextContent and XMLSerialize,     *)
(* as the executor runs them                                            *)
(* ------------------------------------------------------------------ *)

let test_project_select_sort () =
  (* prices sort as numbers, not as strings ("10.50" < "5.00") *)
  Alcotest.(check string) "numeric order by" "5.00\n10.50\n99.99"
    (run
       "for $p in document(\"shop.xml\")/shop/item/@price order by $p return string($p)");
  Alcotest.(check string) "select" "2"
    (run "count(for $p in document(\"shop.xml\")/shop/item/@price where $p > 6.0 return $p)")

let test_text_content_operator () =
  Alcotest.(check string) "text content doc order" "chair\ntable\nmirror"
    (run "document(\"shop.xml\")/shop/item/name/text()")

let test_xml_serialize_operator () =
  Alcotest.(check string) "serialize one value" "i2"
    (run "string(document(\"shop.xml\")/shop/item[@id = \"i2\"]/@id)")

(* ------------------------------------------------------------------ *)
(* Codec misuse / properties                                           *)
(* ------------------------------------------------------------------ *)

(* Codes are compared with [String.compare] wherever the executor and
   [Container] compare them; for an order-agnostic codec that order is
   meaningless, so its algorithm must not claim the [`Ineq] class the
   executor checks before comparing codes. *)
let test_order_agnostic_compare_rejected () =
  List.iter
    (fun alg ->
      Alcotest.(check bool)
        (Compress.Codec.algorithm_name alg ^ " claims no order")
        false
        (Compress.Codec.supports alg `Ineq))
    [ Compress.Codec.Huffman_alg; Compress.Codec.Bzip_alg ]

let test_alm_model_is_token_function () =
  (* the serialized model is the token list; rebuilding from tokens gives
     identical encodings *)
  let values = List.init 80 (fun i -> Printf.sprintf "value number %d" i) in
  let m = Compress.Alm.train values in
  let m' = Compress.Alm.of_tokens (Compress.Alm.model_tokens m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "same encoding" (Compress.Alm.compress m v)
        (Compress.Alm.compress m' v))
    values

let prop_bzip_idempotent_frames =
  QCheck2.Test.make ~name:"bzip roundtrip of its own output" ~count:50
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200))
    (fun s ->
      let once = Compress.Bzip.compress s in
      let twice = Compress.Bzip.compress once in
      Compress.Bzip.decompress (Compress.Bzip.decompress twice) = s)

let prop_hu_tucker_optimal_vs_huffman =
  (* alphabetic codes cannot beat unconstrained Huffman codes *)
  QCheck2.Test.make ~name:"hu-tucker >= huffman expected length" ~count:50
    QCheck2.Gen.(list_size (int_range 5 30) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'z' ]) (int_range 1 10)))
    (fun values ->
      values = []
      ||
      let hu = Compress.Hu_tucker.train values in
      let hf = Compress.Huffman.train values in
      let total codec = List.fold_left (fun a v -> a + String.length (codec v)) 0 values in
      (* allow one padding byte of slack per value *)
      total (Compress.Hu_tucker.compress hu) + List.length values
      >= total (Compress.Huffman.compress hf))

(* ------------------------------------------------------------------ *)
(* Workload corner cases                                               *)
(* ------------------------------------------------------------------ *)

let test_workload_ftcontains_is_wild () =
  let repo = Lazy.force repo in
  let w =
    Workload.analyze repo.Storage.Repository.dict repo.Storage.Repository.summary
      [ Xquery.Parser.parse
          "for $i in document(\"shop.xml\")/shop/item where ftcontains($i/name/text(), \"chair\") return $i" ]
  in
  Alcotest.(check bool) "one wild predicate" true
    (List.exists
       (fun (p : Workload.predicate) -> p.Workload.cls = `Wild)
       w.Workload.predicates)

let test_workload_unresolvable_paths_ignored () =
  let repo = Lazy.force repo in
  let w =
    Workload.analyze repo.Storage.Repository.dict repo.Storage.Repository.summary
      [ Xquery.Parser.parse
          "for $i in document(\"shop.xml\")/shop/nonexistent where $i/foo = \"x\" return $i" ]
  in
  Alcotest.(check int) "no predicates from unknown paths" 0 (List.length w.Workload.predicates)

(* ------------------------------------------------------------------ *)
(* Engine-level behaviour                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_workload_load () =
  let workload =
    [ "for $i in document(\"shop.xml\")/shop/item where $i/@price >= 10 return $i/name/text()" ]
  in
  let engine = Engine.load ~name:"shop.xml" ~workload shop in
  (match engine.Engine.partitioning with
  | Some r ->
    Alcotest.(check bool) "search ran" true (r.Partitioner.trace <> []);
    Alcotest.(check bool) "cost did not increase" true
      (r.Partitioner.final_cost <= r.Partitioner.initial_cost)
  | None -> Alcotest.fail "expected partitioning");
  Alcotest.(check string) "query result" "chair\nmirror"
    (Engine.query_serialized engine
       "for $i in document(\"shop.xml\")/shop/item where $i/@price >= 10 return $i/name/text()")

let test_engine_indent_output () =
  let engine = Engine.load ~name:"s.xml" "<a><b>x</b><c/></a>" in
  let plain = Engine.to_xml engine in
  let indented = Engine.to_xml ~indent:true engine in
  Alcotest.(check bool) "indent adds newlines" true
    (String.contains indented '\n' && not (String.contains plain '\n'))

let suites =
  [
    ( "physical-extra",
      [
        Alcotest.test_case "project/select/sort" `Quick test_project_select_sort;
        Alcotest.test_case "text_content operator" `Quick test_text_content_operator;
        Alcotest.test_case "xml_serialize operator" `Quick test_xml_serialize_operator;
      ] );
    ( "codec-extra",
      [
        Alcotest.test_case "order-agnostic compare rejected" `Quick
          test_order_agnostic_compare_rejected;
        Alcotest.test_case "alm model = token function" `Quick test_alm_model_is_token_function;
        QCheck_alcotest.to_alcotest prop_bzip_idempotent_frames;
        QCheck_alcotest.to_alcotest prop_hu_tucker_optimal_vs_huffman;
      ] );
    ( "workload-extra",
      [
        Alcotest.test_case "ftcontains classifies as wild" `Quick test_workload_ftcontains_is_wild;
        Alcotest.test_case "unresolvable paths ignored" `Quick
          test_workload_unresolvable_paths_ignored;
      ] );
    ( "engine",
      [
        Alcotest.test_case "workload-driven load" `Quick test_engine_workload_load;
        Alcotest.test_case "indented output" `Quick test_engine_indent_output;
      ] );
  ]

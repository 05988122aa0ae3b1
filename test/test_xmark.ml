(* Tests for the benchmark substrate: generators and query set. *)

open Xmlkit

let test_generator_well_formed () =
  let xml = Xmark.Xmlgen.generate ~scale:0.2 () in
  let doc = Parser.parse_string xml in
  Alcotest.(check (option string)) "root" (Some "site") (Tree.tag doc.Tree.root);
  let st = Stats.of_document doc in
  Alcotest.(check bool) "has elements" true (st.Stats.elements > 100);
  (* the paper's observation: values are the large share of documents *)
  Alcotest.(check bool) "value share over 50%" true (Stats.value_share st > 0.5)

let test_generator_deterministic () =
  let a = Xmark.Xmlgen.generate ~seed:7 ~scale:0.03 () in
  let b = Xmark.Xmlgen.generate ~seed:7 ~scale:0.03 () in
  let c = Xmark.Xmlgen.generate ~seed:8 ~scale:0.03 () in
  Alcotest.(check bool) "same seed same doc" true (String.equal a b);
  Alcotest.(check bool) "different seed different doc" false (String.equal a c)

let test_generator_scales () =
  let small = String.length (Xmark.Xmlgen.generate ~scale:0.05 ()) in
  let big = String.length (Xmark.Xmlgen.generate ~scale:0.2 ()) in
  Alcotest.(check bool) "bigger scale bigger doc" true (big > 2 * small)

let test_generator_idrefs_resolve () =
  let xml = Xmark.Xmlgen.generate ~scale:0.05 () in
  let doc = Parser.parse_string xml in
  let people =
    Tree.descendants_with_tag doc.Tree.root "person"
    |> List.filter_map (fun p -> Tree.attr p "id")
  in
  let buyers =
    Tree.descendants_with_tag doc.Tree.root "buyer"
    |> List.filter_map (fun b -> Tree.attr b "person")
  in
  Alcotest.(check bool) "buyers reference existing people" true
    (buyers <> [] && List.for_all (fun b -> List.mem b people) buyers)

let test_generator_has_q15_paths () =
  let xml = Xmark.Xmlgen.generate ~scale:0.2 () in
  let repo = Xquec_core.Loader.load ~name:"a" xml in
  let hits =
    Xquec_core.Executor.run repo
      (Xquery.Parser.parse
         ("count(document(\"a\")/site/closed_auctions/closed_auction/annotation/description"
         ^ "/parlist/listitem/parlist/listitem/text/emph/keyword/text())"))
  in
  match hits with
  | [ Xquec_core.Executor.Num n ] -> Alcotest.(check bool) "deep keyword paths exist" true (n > 0.0)
  | _ -> Alcotest.fail "expected a count"

let test_datasets_well_formed () =
  List.iter
    (fun (d : Xmark.Datasets.dataset) ->
      let doc = Parser.parse_string d.Xmark.Datasets.xml in
      let st = Stats.of_document doc in
      Alcotest.(check bool) (d.Xmark.Datasets.name ^ " nonempty") true (st.Stats.elements > 50))
    (Xmark.Datasets.real_life_corpus ())

let test_dataset_profiles () =
  (* the three corpora have the intended value-type profiles *)
  let share xml = Stats.value_share (Stats.of_document (Parser.parse_string xml)) in
  let shak = share (Xmark.Datasets.shakespeare ~scale:0.3 ()) in
  let base = share (Xmark.Datasets.baseball ~scale:0.3 ()) in
  Alcotest.(check bool) "shakespeare is text-heavy" true (shak > 0.55);
  Alcotest.(check bool) "baseball is markup-heavy" true (base < shak)

let test_queries_complete () =
  Alcotest.(check int) "20 queries" 20 (List.length Xmark.Queries.all);
  List.iteri
    (fun i (q : Xmark.Queries.query) ->
      Alcotest.(check string) "ids in order" (Printf.sprintf "Q%d" (i + 1)) q.Xmark.Queries.id)
    Xmark.Queries.all;
  Alcotest.(check int) "fig7 set excludes Q8/Q9" 18 (List.length Xmark.Queries.fig7_ids);
  Alcotest.(check bool) "by_id works" true
    (String.equal (Xmark.Queries.by_id "Q14").Xmark.Queries.id "Q14")

let test_rng_uniformity () =
  let rng = Xmark.Rng.of_int 123 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10000 do
    let v = Xmark.Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d roughly uniform" i) true
        (c > 700 && c < 1300))
    counts

let suites =
  [
    ( "xmark",
      [
        Alcotest.test_case "generator well-formed" `Quick test_generator_well_formed;
        Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "generator scales" `Quick test_generator_scales;
        Alcotest.test_case "IDREFs resolve" `Quick test_generator_idrefs_resolve;
        Alcotest.test_case "Q15 deep paths exist" `Slow test_generator_has_q15_paths;
        Alcotest.test_case "datasets well-formed" `Quick test_datasets_well_formed;
        Alcotest.test_case "dataset profiles" `Quick test_dataset_profiles;
        Alcotest.test_case "query set complete" `Quick test_queries_complete;
        Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
      ] );
  ]

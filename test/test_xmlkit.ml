(* Tests for the XML toolkit: parser, SAX events, printer, stats. *)

open Xmlkit

let parse s = (Parser.parse_string s).Tree.root

let check_roundtrip name src =
  Alcotest.test_case name `Quick (fun () ->
      let doc = Parser.parse_string src in
      let printed = Printer.to_string doc in
      let doc' = Parser.parse_string printed in
      Alcotest.(check bool) "reparse equal" true (Tree.equal doc.Tree.root doc'.Tree.root))

let test_simple () =
  match parse "<a><b>hello</b><c x=\"1\"/></a>" with
  | Tree.Element ("a", [], [ b; c ]) ->
    Alcotest.(check (option string)) "b tag" (Some "b") (Tree.tag b);
    Alcotest.(check string) "b text" "hello" (Tree.text_content b);
    Alcotest.(check (option string)) "c attr" (Some "1") (Tree.attr c "x")
  | _ -> Alcotest.fail "unexpected shape"

let test_attributes () =
  let n = parse "<e a=\"x\" b='y' c=\"a&amp;b\"/>" in
  Alcotest.(check (option string)) "a" (Some "x") (Tree.attr n "a");
  Alcotest.(check (option string)) "b" (Some "y") (Tree.attr n "b");
  Alcotest.(check (option string)) "c" (Some "a&b") (Tree.attr n "c")

let test_entities () =
  let n = parse "<e>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</e>" in
  Alcotest.(check string) "resolved" "<tag> & \"q\" 'a' AB" (Tree.text_content n)

let test_cdata () =
  let n = parse "<e><![CDATA[<not-a-tag> & raw]]></e>" in
  Alcotest.(check string) "cdata" "<not-a-tag> & raw" (Tree.text_content n)

let test_comments_pi () =
  let n = parse "<?xml version=\"1.0\"?><!-- c --><e><!-- inner -->x<?pi data?></e>" in
  Alcotest.(check string) "text survives" "x" (Tree.text_content n)

let test_doctype () =
  let n = parse "<!DOCTYPE e [ <!ELEMENT e (#PCDATA)> ]><e>t</e>" in
  Alcotest.(check string) "text" "t" (Tree.text_content n)

let test_nested_deep () =
  let depth = 500 in
  let src =
    String.concat "" (List.init depth (fun i -> Printf.sprintf "<n%d>" i))
    ^ "x"
    ^ String.concat "" (List.init depth (fun i -> Printf.sprintf "</n%d>" (depth - 1 - i)))
  in
  let n = parse src in
  Alcotest.(check string) "deep text" "x" (Tree.text_content n)

let test_mixed_content () =
  let n = parse "<p>one <b>two</b> three</p>" in
  Alcotest.(check string) "mixed" "one two three" (Tree.text_content n);
  Alcotest.(check string) "immediate" "one  three" (Tree.immediate_text n)

let test_whitespace_dropped () =
  let n = parse "<a>\n  <b>x</b>\n</a>" in
  Alcotest.(check int) "children" 1 (List.length (Tree.children n))

let malformed name src =
  Alcotest.test_case name `Quick (fun () ->
      match Parser.parse_string src with
      | exception Parser.Malformed _ -> ()
      | _ -> Alcotest.fail "expected Malformed")

let test_sax_events () =
  let events = ref [] in
  Sax.parse_string ~f:(fun e -> events := e :: !events) "<a x=\"1\"><b>t</b></a>";
  let expected =
    [
      Sax.Start_element ("a", [ ("x", "1") ]);
      Sax.Start_element ("b", []);
      Sax.Characters "t";
      Sax.End_element "b";
      Sax.End_element "a";
    ]
  in
  Alcotest.(check int) "event count" (List.length expected) (List.length !events);
  List.iter2
    (fun got want ->
      let show = function
        | Sax.Start_element (t, _) -> "<" ^ t
        | Sax.End_element t -> "</" ^ t
        | Sax.Characters c -> "#" ^ c
      in
      Alcotest.(check string) "event" (show want) (show got))
    (List.rev !events) expected

let test_sax_fold_mismatch () =
  match Sax.fold ~init:0 ~f:(fun n _ -> n + 1) "<a><b></a></b>" with
  | exception Sax.Malformed _ -> ()
  | _ -> Alcotest.fail "expected mismatch error"

let test_descendants () =
  let n = parse "<a><b><c/><b><c/></b></b><c/></a>" in
  Alcotest.(check int) "c count" 3 (List.length (Tree.descendants_with_tag n "c"));
  Alcotest.(check int) "b count" 2 (List.length (Tree.descendants_with_tag n "b"))

let test_stats () =
  let doc = Parser.parse_string "<a x=\"12\"><b>hello</b><b>world</b></a>" in
  let st = Stats.of_document doc in
  Alcotest.(check int) "elements" 3 st.Stats.elements;
  Alcotest.(check int) "attributes" 1 st.Stats.attributes;
  Alcotest.(check int) "text nodes" 2 st.Stats.text_nodes;
  Alcotest.(check int) "text bytes" 12 st.Stats.text_bytes;
  Alcotest.(check int) "max depth" 2 st.Stats.max_depth

let test_escape_roundtrip () =
  let s = "a<b>&\"'\xc3\xa9" in
  let buf = Buffer.create 16 in
  Buffer.add_string buf "<e>";
  Escape.add_text buf s;
  Buffer.add_string buf "</e>";
  let doc = Parser.parse_string (Buffer.contents buf) in
  Alcotest.(check string) "escape roundtrip" s (Tree.text_content doc.Tree.root)

let gen_tree =
  (* Random small trees for printer/parser round-trip. *)
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "item"; "name"; "x1" ] in
  let safe_text =
    string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '<'; '&'; '>'; '"'; 'z' ]) (int_range 1 12)
  in
  fix
    (fun self depth ->
      if depth = 0 then map Tree.text safe_text
      else
        frequency
          [
            (2, map Tree.text safe_text);
            ( 3,
              map3
                (fun t ats kids -> Tree.Element (t, ats, kids))
                tag
                (small_list (pair (oneofl [ "id"; "k" ]) safe_text)
                 |> map (fun l ->
                        (* attribute names must be unique *)
                        List.sort_uniq (fun (a, _) (b, _) -> compare a b) l))
                (list_size (int_range 0 4) (self (depth - 1))) );
          ])
    2

let prop_print_parse =
  QCheck2.Test.make ~name:"printer/parser roundtrip" ~count:200 gen_tree (fun t ->
      (* Wrap in a root element since bare text is not a document. *)
      let root = Tree.Element ("root", [], [ t ]) in
      let printed = Printer.node_to_string root in
      let reparsed = (Parser.parse_string printed).Tree.root in
      (* Normalize both sides: adjacent generated text nodes merge on
         reparse, and whitespace-only text nodes are legitimately dropped. *)
      let rec norm n =
        match n with
        | Tree.Text _ -> n
        | Tree.Element (t, a, k) ->
          let k = List.map norm k in
          let merged =
            List.fold_left
              (fun acc child ->
                match acc, child with
                | Tree.Text s :: rest, Tree.Text s' -> Tree.Text (s ^ s') :: rest
                | acc, child -> child :: acc)
              [] k
            |> List.rev
          in
          let keep = function
            | Tree.Text s -> String.trim s <> ""
            | Tree.Element _ -> true
          in
          Tree.Element (t, a, List.filter keep merged)
      in
      Tree.equal (norm root) (norm reparsed))

let suites =
  [
    ( "xmlkit",
      [
        Alcotest.test_case "simple" `Quick test_simple;
        Alcotest.test_case "attributes" `Quick test_attributes;
        Alcotest.test_case "entities" `Quick test_entities;
        Alcotest.test_case "cdata" `Quick test_cdata;
        Alcotest.test_case "comments and PIs" `Quick test_comments_pi;
        Alcotest.test_case "doctype" `Quick test_doctype;
        Alcotest.test_case "deep nesting" `Quick test_nested_deep;
        Alcotest.test_case "mixed content" `Quick test_mixed_content;
        Alcotest.test_case "whitespace dropped" `Quick test_whitespace_dropped;
        Alcotest.test_case "sax events" `Quick test_sax_events;
        Alcotest.test_case "sax mismatch" `Quick test_sax_fold_mismatch;
        Alcotest.test_case "descendants" `Quick test_descendants;
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "escape roundtrip" `Quick test_escape_roundtrip;
        check_roundtrip "roundtrip simple" "<a><b>hello</b><c x=\"1\">t</c></a>";
        check_roundtrip "roundtrip escaped" "<a b=\"&lt;&amp;&quot;\">x &amp; y</a>";
        malformed "unclosed" "<a><b></a>";
        malformed "stray close" "</a>";
        malformed "two roots" "<a/><b/>";
        malformed "bad entity" "<a>&nope;</a>";
        malformed "text outside root" "x<a/>";
        malformed "lt in attr" "<a b=\"<\"/>";
        QCheck_alcotest.to_alcotest prop_print_parse;
      ] );
  ]

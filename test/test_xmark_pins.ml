(* Plan pins for the twenty XMark queries: on XMark scale 0.1, seed 42,
   loaded untuned and tuned with examples/xmark_workload.xq, every
   query's answer digest, the decisions EXPLAIN records
   ({!Xquec_obs.Explain.strategy}) and its compressed / decompressed
   comparison totals must stay exactly as pinned here. A refactor of
   the executor moves none of them; a change that moves one on purpose
   restates the pin and says why. *)

open Xquec_core

(* (query id, MD5 of the serialized answer, strategy lines,
   compressed-domain comparisons, decompressed comparisons) *)
type pin = string * string * string list * int * int

let untuned : pin list =
  [
    ( "Q1", "1dadbe11bd2a7a8399507ee392f0c7f6",
      [ "summary access child::people  [summary_nodes=1]";
        "pushdown [./@id = \"person0\"]  [containers=/site/people/person/@id]";
        "batched path $b/name/text()  [bindings=1; est_rows=1; fetches=1]" ],
      1, 0 );
    ( "Q2", "73e7d000029140a339597d6872ffd72c",
      [ "summary access child::open_auction  [summary_nodes=1]";
        "batched path $b/bidder[1]/increase/text()  [bindings=17; est_rows=17; fetches=1]" ],
      0, 0 );
    ( "Q3", "f42f421abe554b9bdf0682f2b385ef4a",
      [ "summary access child::open_auction  [summary_nodes=1]";
        "batched path $b/bidder  [bindings=17; est_rows=37; fetches=0]";
        "batched path $b/bidder[1]/increase/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $b/bidder[last()]/increase/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $b/bidder[1]/increase/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $b/bidder[last()]/increase/text()  [bindings=17; est_rows=17; fetches=1]" ],
      0, 13 );
    ( "Q4", "2596d3eb9f23460ee948f6c2cfcc010a",
      [ "summary access child::open_auction  [summary_nodes=1]";
        "batched path $b/bidder/personref  [bindings=17; est_rows=37; fetches=0]";
        "batched path $pr/@person  [bindings=37; est_rows=37; fetches=1]";
        "batched path $b/initial/text()  [bindings=17; est_rows=17; fetches=1]" ],
      0, 32 );
    ( "Q5", "c9f0f895fb98ab9159f51fd0297e236d",
      [ "summary access child::closed_auction  [summary_nodes=1]";
        "batched path $i/price/text()  [bindings=9; est_rows=9; fetches=1]";
        "batched path $i/price  [bindings=9; est_rows=9; fetches=0]" ],
      0, 9 );
    ( "Q6", "a684eceee76fc522773286a895bc8436",
      [ "summary access child::regions  [summary_nodes=1]" ],
      0, 0 );
    ( "Q7", "903ce9225fca3e988c2af215d4e544d3",
      [ "summary access child::site  [summary_nodes=1]" ],
      0, 0 );
    ( "Q8", "9e88a3bfe23c03e3cf53d6326752e489",
      [ "summary access child::person  [summary_nodes=1]";
        "decorrelate $a  [op==; keys=values]";
        "summary access child::closed_auction  [summary_nodes=1]";
        "batched path $t/buyer/@person  [bindings=9; est_rows=9; fetches=1]";
        "batched path $p/@id  [bindings=36; est_rows=36; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q9", "01c3e1d84d34c56926fcf8ba8b5e1efe",
      [ "summary access child::person  [summary_nodes=1]";
        "decorrelate $a  [op==; keys=values]";
        "summary access child::closed_auction  [summary_nodes=1]";
        "summary access child::item  [summary_nodes=1]";
        "hash join $t2  [keys=values]";
        "batched path $t2/@id  [bindings=9; est_rows=9; fetches=1]";
        "batched path $t/itemref/@item  [bindings=9; est_rows=9; fetches=1]";
        "batched path $t/buyer/@person  [bindings=9; est_rows=9; fetches=1]";
        "batched path $p/@id  [bindings=36; est_rows=36; fetches=1]";
        "batched path $t2/name/text()  [bindings=9; est_rows=9; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q10", "c9438f2903c74f8a6acba72a4c824f10",
      [ "summary access attribute::category  [summary_nodes=1]";
        "decorrelate $p  [op==; keys=codes]";
        "summary access child::person  [summary_nodes=1]";
        "batched path $t/profile/interest/@category  [bindings=36; est_rows=55; fetches=1]";
        "batched path $t/profile/gender/text()  [bindings=36; est_rows=26; fetches=1]";
        "batched path $t/profile/age/text()  [bindings=36; est_rows=17; fetches=1]";
        "batched path $t/profile/education/text()  [bindings=36; est_rows=20; fetches=1]";
        "batched path $t/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "batched path $t/name/text()  [bindings=36; est_rows=36; fetches=1]";
        "batched path $t/address/street/text()  [bindings=36; est_rows=30; fetches=1]";
        "batched path $t/address/city/text()  [bindings=36; est_rows=30; fetches=1]";
        "batched path $t/address/country/text()  [bindings=36; est_rows=30; fetches=1]";
        "batched path $t/emailaddress/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q11", "7e46dd75dda1b9250a634f4b59181ed4",
      [ "summary access child::person  [summary_nodes=1]";
        "decorrelate $l  [op=>; keys=values]";
        "summary access child::initial  [summary_nodes=1]";
        "batched path $i/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q12", "1d83f95416df18927560584fa2525a05",
      [ "summary access child::person  [summary_nodes=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "decorrelate $l  [op=>; keys=values]";
        "summary access child::initial  [summary_nodes=1]";
        "batched path $i/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 33 );
    ( "Q13", "9a319f623046d6eb37198b7579c04567",
      [ "summary access child::item  [summary_nodes=1]";
        "batched path $i/name/text()  [bindings=9; est_rows=9; fetches=1]";
        "batched path $i/description  [bindings=9; est_rows=9; fetches=0]" ],
      0, 0 );
    ( "Q14", "a687155bbd1d28f1eaadd483293d4104",
      [ "summary access descendant::item  [summary_nodes=6]";
        "batched path $i/description  [bindings=54; est_rows=54; fetches=0]";
        "batched path $i/name/text()  [bindings=54; est_rows=54; fetches=6]" ],
      0, 0 );
    ( "Q15", "0ee7ba4f6e22cdded1940dc8df0b38c8",
      [ "summary access child::text()  [summary_nodes=1]" ],
      0, 0 );
    ( "Q16", "abdc4c79c6d7039303103186066be7fb",
      [ "summary access child::closed_auction  [summary_nodes=1]";
        "batched path $a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()  [bindings=9; est_rows=2; fetches=1]";
        "batched path $a/seller/@person  [bindings=9; est_rows=9; fetches=1]" ],
      0, 0 );
    ( "Q17", "ce12ec06f8c4cfeed8a5ac1d99447986",
      [ "summary access child::person  [summary_nodes=1]";
        "batched path $p/homepage/text()  [bindings=36; est_rows=20; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q18", "e2480a9d05d989c1f9cd3bfaf59f229f",
      [ "summary access child::reserve  [summary_nodes=1]";
        "batched path $i/text()  [bindings=6; est_rows=6; fetches=1]" ],
      0, 0 );
    ( "Q19", "c15f7062232a99b69d44d68978468c07",
      [ "summary access descendant::item  [summary_nodes=6]";
        "batched path $b/name/text()  [bindings=54; est_rows=54; fetches=6]";
        "batched path $b/location/text()  [bindings=54; est_rows=54; fetches=6]" ],
      0, 0 );
    ( "Q20", "a566212085d02a891ad4a391f4110e1d",
      [ "summary access child::person  [summary_nodes=1]";
        "pushdown [./@income >= 100000]  [containers=/site/people/person/profile/@income]";
        "summary access child::person  [summary_nodes=1]";
        "pushdown [./@income >= 30000]  [containers=/site/people/person/profile/@income]";
        "pushdown [./@income < 100000]  [containers=/site/people/person/profile/@income]";
        "summary access child::person  [summary_nodes=1]";
        "pushdown [./@income < 30000]  [containers=/site/people/person/profile/@income]";
        "summary access child::person  [summary_nodes=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]" ],
      66, 0 );
  ]

let tuned : pin list =
  [
    ( "Q1", "1dadbe11bd2a7a8399507ee392f0c7f6",
      [ "summary access child::people  [summary_nodes=1]";
        "pushdown [./@id = \"person0\"]  [containers=/site/people/person/@id]";
        "batched path $b/name/text()  [bindings=1; est_rows=1; fetches=1]" ],
      1, 0 );
    ( "Q2", "73e7d000029140a339597d6872ffd72c",
      [ "summary access child::open_auction  [summary_nodes=1]";
        "batched path $b/bidder[1]/increase/text()  [bindings=17; est_rows=17; fetches=1]" ],
      0, 0 );
    ( "Q3", "f42f421abe554b9bdf0682f2b385ef4a",
      [ "summary access child::open_auction  [summary_nodes=1]";
        "batched path $b/bidder  [bindings=17; est_rows=37; fetches=0]";
        "batched path $b/bidder[1]/increase/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $b/bidder[last()]/increase/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $b/bidder[1]/increase/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $b/bidder[last()]/increase/text()  [bindings=17; est_rows=17; fetches=1]" ],
      0, 13 );
    ( "Q4", "2596d3eb9f23460ee948f6c2cfcc010a",
      [ "summary access child::open_auction  [summary_nodes=1]";
        "batched path $b/bidder/personref  [bindings=17; est_rows=37; fetches=0]";
        "batched path $pr/@person  [bindings=37; est_rows=37; fetches=1]";
        "batched path $b/initial/text()  [bindings=17; est_rows=17; fetches=1]" ],
      0, 32 );
    ( "Q5", "c9f0f895fb98ab9159f51fd0297e236d",
      [ "summary access child::closed_auction  [summary_nodes=1]";
        "batched path $i/price/text()  [bindings=9; est_rows=9; fetches=1]";
        "batched path $i/price  [bindings=9; est_rows=9; fetches=0]" ],
      0, 9 );
    ( "Q6", "a684eceee76fc522773286a895bc8436",
      [ "summary access child::regions  [summary_nodes=1]" ],
      0, 0 );
    ( "Q7", "903ce9225fca3e988c2af215d4e544d3",
      [ "summary access child::site  [summary_nodes=1]" ],
      0, 0 );
    ( "Q8", "9e88a3bfe23c03e3cf53d6326752e489",
      [ "summary access child::person  [summary_nodes=1]";
        "decorrelate $a  [op==; keys=codes]";
        "summary access child::closed_auction  [summary_nodes=1]";
        "batched path $t/buyer/@person  [bindings=9; est_rows=9; fetches=1]";
        "batched path $p/@id  [bindings=36; est_rows=36; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q9", "01c3e1d84d34c56926fcf8ba8b5e1efe",
      [ "summary access child::person  [summary_nodes=1]";
        "decorrelate $a  [op==; keys=codes]";
        "summary access child::closed_auction  [summary_nodes=1]";
        "summary access child::item  [summary_nodes=1]";
        "hash join $t2  [keys=values]";
        "batched path $t2/@id  [bindings=9; est_rows=9; fetches=1]";
        "batched path $t/itemref/@item  [bindings=9; est_rows=9; fetches=1]";
        "batched path $t/buyer/@person  [bindings=9; est_rows=9; fetches=1]";
        "batched path $p/@id  [bindings=36; est_rows=36; fetches=1]";
        "batched path $t2/name/text()  [bindings=9; est_rows=9; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q10", "c9438f2903c74f8a6acba72a4c824f10",
      [ "summary access attribute::category  [summary_nodes=1]";
        "decorrelate $p  [op==; keys=codes]";
        "summary access child::person  [summary_nodes=1]";
        "batched path $t/profile/interest/@category  [bindings=36; est_rows=55; fetches=1]";
        "batched path $t/profile/gender/text()  [bindings=36; est_rows=26; fetches=1]";
        "batched path $t/profile/age/text()  [bindings=36; est_rows=17; fetches=1]";
        "batched path $t/profile/education/text()  [bindings=36; est_rows=20; fetches=1]";
        "batched path $t/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "batched path $t/name/text()  [bindings=36; est_rows=36; fetches=1]";
        "batched path $t/address/street/text()  [bindings=36; est_rows=30; fetches=1]";
        "batched path $t/address/city/text()  [bindings=36; est_rows=30; fetches=1]";
        "batched path $t/address/country/text()  [bindings=36; est_rows=30; fetches=1]";
        "batched path $t/emailaddress/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q11", "7e46dd75dda1b9250a634f4b59181ed4",
      [ "summary access child::person  [summary_nodes=1]";
        "decorrelate $l  [op=>; keys=values]";
        "summary access child::initial  [summary_nodes=1]";
        "batched path $i/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q12", "1d83f95416df18927560584fa2525a05",
      [ "summary access child::person  [summary_nodes=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "decorrelate $l  [op=>; keys=values]";
        "summary access child::initial  [summary_nodes=1]";
        "batched path $i/text()  [bindings=17; est_rows=17; fetches=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 33 );
    ( "Q13", "9a319f623046d6eb37198b7579c04567",
      [ "summary access child::item  [summary_nodes=1]";
        "batched path $i/name/text()  [bindings=9; est_rows=9; fetches=1]";
        "batched path $i/description  [bindings=9; est_rows=9; fetches=0]" ],
      0, 0 );
    ( "Q14", "a687155bbd1d28f1eaadd483293d4104",
      [ "summary access descendant::item  [summary_nodes=6]";
        "batched path $i/description  [bindings=54; est_rows=54; fetches=0]";
        "batched path $i/name/text()  [bindings=54; est_rows=54; fetches=6]" ],
      0, 0 );
    ( "Q15", "0ee7ba4f6e22cdded1940dc8df0b38c8",
      [ "summary access child::text()  [summary_nodes=1]" ],
      0, 0 );
    ( "Q16", "abdc4c79c6d7039303103186066be7fb",
      [ "summary access child::closed_auction  [summary_nodes=1]";
        "batched path $a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()  [bindings=9; est_rows=2; fetches=1]";
        "batched path $a/seller/@person  [bindings=9; est_rows=9; fetches=1]" ],
      0, 0 );
    ( "Q17", "ce12ec06f8c4cfeed8a5ac1d99447986",
      [ "summary access child::person  [summary_nodes=1]";
        "batched path $p/homepage/text()  [bindings=36; est_rows=20; fetches=1]";
        "batched path $p/name/text()  [bindings=36; est_rows=36; fetches=1]" ],
      0, 0 );
    ( "Q18", "e2480a9d05d989c1f9cd3bfaf59f229f",
      [ "summary access child::reserve  [summary_nodes=1]";
        "batched path $i/text()  [bindings=6; est_rows=6; fetches=1]" ],
      0, 0 );
    ( "Q19", "c15f7062232a99b69d44d68978468c07",
      [ "summary access descendant::item  [summary_nodes=6]";
        "batched path $b/name/text()  [bindings=54; est_rows=54; fetches=6]";
        "batched path $b/location/text()  [bindings=54; est_rows=54; fetches=6]" ],
      0, 0 );
    ( "Q20", "a566212085d02a891ad4a391f4110e1d",
      [ "summary access child::person  [summary_nodes=1]";
        "pushdown [./@income >= 100000]  [containers=/site/people/person/profile/@income]";
        "summary access child::person  [summary_nodes=1]";
        "pushdown [./@income >= 30000]  [containers=/site/people/person/profile/@income]";
        "pushdown [./@income < 100000]  [containers=/site/people/person/profile/@income]";
        "summary access child::person  [summary_nodes=1]";
        "pushdown [./@income < 30000]  [containers=/site/people/person/profile/@income]";
        "summary access child::person  [summary_nodes=1]";
        "batched path $p/profile/@income  [bindings=36; est_rows=33; fetches=1]" ],
      66, 0 );
  ]

(* The workload file's queries: one per stanza, stanzas separated by
   lines holding only [;;] (the format [xquec compress -w] reads). *)
let workload_queries path =
  let body = In_channel.with_open_bin path In_channel.input_all in
  String.split_on_char '\n' body
  |> List.fold_left
       (fun (acc, cur) line ->
         if String.trim line = ";;" then (List.rev cur :: acc, []) else (acc, line :: cur))
       ([], [])
  |> (fun (acc, cur) -> List.rev (List.rev cur :: acc))
  |> List.filter_map (fun lines ->
         let q = String.trim (String.concat "\n" lines) in
         if q = "" then None else Some q)

let check_pins ~name ?workload (pins : pin list) () =
  let xml = Xmark.Xmlgen.generate ~seed:42 ~scale:0.1 () in
  let repo = Engine.repo (Engine.load ~name:"auction.xml" ?workload xml) in
  Alcotest.(check int) (name ^ ": every query pinned") (List.length Xmark.Queries.all)
    (List.length pins);
  List.iter2
    (fun (q : Xmark.Queries.query) (id, md5, strategy, compressed, decompressed) ->
      let label what = Printf.sprintf "%s %s %s" name id what in
      Alcotest.(check string) (label "id") id q.Xmark.Queries.id;
      let items, root = Executor.run_profiled repo (Xquery.Parser.parse q.Xmark.Queries.text) in
      Alcotest.(check string) (label "answer digest") md5
        (Digest.to_hex (Digest.string (Executor.serialize repo items)));
      Alcotest.(check (list string)) (label "strategy") strategy (Xquec_obs.Explain.strategy root);
      let t = Xquec_obs.Explain.totals root in
      Alcotest.(check (pair int int)) (label "comparisons") (compressed, decompressed)
        (t.Xquec_obs.Explain.compressed, t.Xquec_obs.Explain.decompressed))
    Xmark.Queries.all pins

let suites =
  [
    ( "xmark-pins",
      [
        Alcotest.test_case "Q1-Q20 untuned" `Quick (check_pins ~name:"untuned" untuned);
        Alcotest.test_case "Q1-Q20 tuned" `Quick (fun () ->
            check_pins ~name:"tuned"
              ~workload:(workload_queries "../examples/xmark_workload.xq")
              tuned ());
      ] );
  ]

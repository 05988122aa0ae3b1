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
  let engine = Engine.load ~name:"auction.xml" ?workload xml in
  Alcotest.(check int) (name ^ ": every query pinned") (List.length Xmark.Queries.all)
    (List.length pins);
  List.iter2
    (fun (q : Xmark.Queries.query) (id, md5, strategy, compressed, decompressed) ->
      let label what = Printf.sprintf "%s %s %s" name id what in
      Alcotest.(check string) (label "id") id q.Xmark.Queries.id;
      let r =
        Engine.request engine
          (Engine.plain q.Xmark.Queries.text)
      in
      Alcotest.(check string) (label "answer digest") md5 (Digest.to_hex (Digest.string r.out));
      Alcotest.(check (list string))
        (label "strategy") strategy (Xquec_obs.Explain.strategy r.explain);
      let t = Xquec_obs.Explain.totals r.explain in
      Alcotest.(check (pair int int)) (label "comparisons") (compressed, decompressed)
        (t.Xquec_obs.Explain.compressed, t.Xquec_obs.Explain.decompressed))
    Xmark.Queries.all pins

(* The workload analysis on the untuned XMark 0.1 (seed 42) load: per
   query set, the nonzero upper-triangle entries [(i,j,n);] of the E, I
   and D matrices of §3.2 (row 149 stands for constants) and the
   containers the predicates compare ([Workload.queried_containers]),
   as recorded before the analysis shared the executor's summary
   resolver. *)
let analysis_pins =
  [
    ( "examples/xmark_workload.xq",
      ( "(98,137,1);(98,149,1);",
        "(108,116,1);(139,149,1);",
        "",
        [ 98; 108; 116; 137; 139 ] ) );
    ( "Q1-Q20",
      ( "(44,138,1);(98,137,2);(98,149,1);(113,149,1);(133,149,1);",
        "(108,116,2);(108,149,5);(134,134,1);(139,149,1);",
        "(5,149,1);(9,149,1);(19,149,1);(26,149,1);(27,149,1);(28,149,1);(34,149,1);\
         (37,149,1);(42,149,1);(43,149,1);(49,149,1);(52,149,1);(53,149,1);(58,149,1);\
         (64,149,1);(71,149,1);(72,149,1);(73,149,1);(80,149,1);(87,149,1);(89,149,1);\
         (90,149,1);",
        [ 5; 9; 19; 26; 27; 28; 34; 37; 42; 43; 44; 49; 52; 53; 58; 64; 71; 72; 73; 80;
          87; 89; 90; 98; 108; 113; 116; 133; 134; 137; 138; 139 ] ) );
  ]

let sparse (m : int array array) =
  let b = Buffer.create 64 in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> if j >= i && v <> 0 then Buffer.add_string b (Printf.sprintf "(%d,%d,%d);" i j v))
        row)
    m;
  Buffer.contents b

let check_analysis () =
  let xml = Xmark.Xmlgen.generate ~seed:42 ~scale:0.1 () in
  let repo = Engine.repo (Engine.load ~name:"auction.xml" xml) in
  let sets =
    [
      ("examples/xmark_workload.xq", workload_queries "../examples/xmark_workload.xq");
      ("Q1-Q20", List.map (fun (q : Xmark.Queries.query) -> q.Xmark.Queries.text) Xmark.Queries.all);
    ]
  in
  List.iter
    (fun (name, texts) ->
      let e_pin, i_pin, d_pin, queried_pin = List.assoc name analysis_pins in
      let queries = List.map Xquery.Parser.parse texts in
      let w =
        Workload.analyze repo.Storage.Repository.dict repo.Storage.Repository.summary queries
      in
      let e, i, d = Workload.matrices w in
      Alcotest.(check string) (name ^ " E") e_pin (sparse e);
      Alcotest.(check string) (name ^ " I") i_pin (sparse i);
      Alcotest.(check string) (name ^ " D") d_pin (sparse d);
      Alcotest.(check (list int)) (name ^ " queried") queried_pin (Workload.queried_containers w))
    sets

(* XMark 0.1, seed 42, loaded tuned for Q1-Q20 themselves (so the
   code-keyed joins and the block merge join fire). *)
let tuned_for_all =
  lazy
    (Engine.load ~name:"auction.xml"
       ~workload:(List.map (fun (q : Xmark.Queries.query) -> q.Xmark.Queries.text) Xmark.Queries.all)
       (Xmark.Xmlgen.generate ~seed:42 ~scale:0.1 ()))

(* Per query, run once each in order through [Engine.query_serialized]
   on a cleared 64 MiB pool: the [Buffer_pool.snapshot] deltas (hits,
   misses, latch waits, evictions, decoded bytes, blocks skipped, scan
   inserts, payload bytes, skipped bytes) and the [Executor.join_stats]
   deltas (block joins, blocks probed, blocks skipped, skipped bytes),
   as recorded while the pool, the heat table and the join kept
   counters of their own. *)
let counter_pins =
  [
    ("Q1", [| 0; 2; 0; 0; 1855; 0; 0; 722; 0 |], [| 0; 0; 0; 0 |]);
    ("Q2", [| 0; 1; 0; 0; 767; 0; 0; 213; 0 |], [| 0; 0; 0; 0 |]);
    ("Q3", [| 4; 0; 0; 0; 0; 0; 0; 0; 0 |], [| 0; 0; 0; 0 |]);
    ("Q4", [| 0; 2; 0; 0; 1179; 0; 0; 297; 0 |], [| 0; 0; 0; 0 |]);
    ("Q5", [| 0; 1; 0; 0; 235; 0; 0; 55; 0 |], [| 0; 0; 0; 0 |]);
    ("Q6", [| 0; 0; 0; 0; 0; 0; 0; 0; 0 |], [| 0; 0; 0; 0 |]);
    ("Q7", [| 0; 0; 0; 0; 0; 0; 0; 0; 0 |], [| 0; 0; 0; 0 |]);
    ("Q8", [| 2; 1; 0; 0; 244; 0; 0; 64; 0 |], [| 0; 0; 0; 0 |]);
    ("Q9", [| 3; 3; 0; 0; 811; 0; 0; 266; 0 |], [| 1; 2; 0; 0 |]);
    ("Q10", [| 2; 9; 0; 0; 6279; 0; 0; 1618; 0 |], [| 0; 0; 0; 0 |]);
    ("Q11", [| 3; 0; 0; 0; 0; 0; 0; 0; 0 |], [| 0; 0; 0; 0 |]);
    ("Q12", [| 4; 0; 0; 0; 0; 0; 0; 0; 0 |], [| 0; 0; 0; 0 |]);
    ("Q13", [| 10; 5; 0; 0; 3750; 0; 0; 3149; 0 |], [| 0; 0; 0; 0 |]);
    ("Q14", [| 56; 22; 0; 0; 14373; 0; 0; 11794; 0 |], [| 0; 0; 0; 0 |]);
    ("Q15", [| 0; 1; 0; 0; 118; 0; 0; 29; 0 |], [| 0; 0; 0; 0 |]);
    ("Q16", [| 1; 1; 0; 0; 240; 0; 0; 60; 0 |], [| 0; 0; 0; 0 |]);
    ("Q17", [| 1; 1; 0; 0; 537; 0; 0; 112; 0 |], [| 0; 0; 0; 0 |]);
    ("Q18", [| 0; 1; 0; 0; 178; 0; 0; 37; 0 |], [| 0; 0; 0; 0 |]);
    ("Q19", [| 6; 6; 0; 0; 1573; 0; 0; 485; 0 |], [| 0; 0; 0; 0 |]);
    ("Q20", [| 4; 0; 0; 0; 0; 1; 0; 0; 231 |], [| 0; 0; 0; 0 |]);
  ]

let check_counters () =
  let engine = Lazy.force tuned_for_all in
  let budget = Storage.Buffer_pool.budget_bytes () in
  Fun.protect ~finally:(fun () -> Storage.Buffer_pool.set_budget ~bytes:budget) @@ fun () ->
  Storage.Buffer_pool.set_budget ~bytes:(64 * 1024 * 1024);
  Storage.Buffer_pool.clear ();
  List.iter2
    (fun (q : Xmark.Queries.query) (id, pool_pin, join_pin) ->
      Alcotest.(check string) "id" id q.Xmark.Queries.id;
      let s0 = Storage.Buffer_pool.snapshot () and j0 = Executor.join_stats () in
      ignore (Engine.query_serialized engine q.Xmark.Queries.text);
      let s1 = Storage.Buffer_pool.snapshot () and j1 = Executor.join_stats () in
      let open Storage.Buffer_pool in
      let d f = f s1 - f s0 and dj f = f j1 - f j0 in
      Alcotest.(check (array int)) (id ^ " pool deltas") pool_pin
        [|
          d (fun s -> s.s_hits); d (fun s -> s.s_misses); d (fun s -> s.s_latch_waits);
          d (fun s -> s.s_evictions); d (fun s -> s.s_decoded_bytes);
          d (fun s -> s.s_blocks_skipped); d (fun s -> s.s_scan_inserts);
          d (fun s -> s.s_payload_bytes); d (fun s -> s.s_skipped_bytes);
        |];
      Alcotest.(check (array int)) (id ^ " join deltas") join_pin
        [|
          dj (fun j -> j.Executor.j_block_joins); dj (fun j -> j.Executor.j_blocks_probed);
          dj (fun j -> j.Executor.j_blocks_skipped); dj (fun j -> j.Executor.j_skipped_bytes);
        |])
    Xmark.Queries.all counter_pins

(* One request, one ledger: every storage event of a request lands in
   its own ledger, so each response's pool and join fields equal the
   process deltas across the call, with nothing charged outside it. *)
let check_one_request_one_ledger () =
  let engine = Lazy.force tuned_for_all in
  Storage.Buffer_pool.clear ();
  List.iter
    (fun (q : Xmark.Queries.query) ->
      let s0 = Storage.Buffer_pool.snapshot () and j0 = Executor.join_stats () in
      let r =
        Engine.request engine
          (Engine.plain q.Xmark.Queries.text)
      in
      let s1 = Storage.Buffer_pool.snapshot () and j1 = Executor.join_stats () in
      let open Storage.Buffer_pool in
      let d f = f s1 - f s0 and dj f = f j1 - f j0 and l = r.ledger in
      Alcotest.(check (array int)) (q.Xmark.Queries.id ^ " pool = ledger")
        Xquec_obs.Ledger.
          [|
            l.hits; l.misses; l.latch_waits; l.evictions; l.decoded_bytes; l.blocks_skipped;
            l.scan_inserts; l.payload_decoded; l.payload_skipped;
          |]
        [|
          d (fun s -> s.s_hits); d (fun s -> s.s_misses); d (fun s -> s.s_latch_waits);
          d (fun s -> s.s_evictions); d (fun s -> s.s_decoded_bytes);
          d (fun s -> s.s_blocks_skipped); d (fun s -> s.s_scan_inserts);
          d (fun s -> s.s_payload_bytes); d (fun s -> s.s_skipped_bytes);
        |];
      Alcotest.(check (array int)) (q.Xmark.Queries.id ^ " join = ledger")
        Xquec_obs.Ledger.
          [| l.block_joins; l.join_blocks_probed; l.join_blocks_skipped; l.join_skipped_bytes |]
        [|
          dj (fun j -> j.Executor.j_block_joins); dj (fun j -> j.Executor.j_blocks_probed);
          dj (fun j -> j.Executor.j_blocks_skipped); dj (fun j -> j.Executor.j_skipped_bytes);
        |])
    Xmark.Queries.all

(* A join is observed the same whichever method runs it: Q8 and Q9 note
   the same (container, kind) keys and matches with the block merge
   join on (Q9 takes it) and off (every join hashes). *)
let check_join_observations () =
  let engine = Lazy.force tuned_for_all in
  let observe id =
    let text = (Xmark.Queries.by_id id).Xmark.Queries.text in
    let r = Engine.request engine (Engine.plain text) in
    List.map
      (fun (o : Xquec_obs.Ledger.obs) -> (o.ob_container, o.ob_kind, o.ob_matches))
      (Xquec_obs.Ledger.predicates r.ledger)
  in
  let with_block_join on =
    Executor.set_block_join on;
    Fun.protect ~finally:(fun () -> Executor.set_block_join true) @@ fun () ->
    let j0 = Executor.join_stats () in
    let obs = List.map (fun id -> (id, observe id)) [ "Q8"; "Q9" ] in
    (obs, (Executor.join_stats ()).Executor.j_block_joins - j0.Executor.j_block_joins)
  in
  let merged, merge_joins = with_block_join true in
  let hashed, hash_joins = with_block_join false in
  Alcotest.(check int) "Q9 runs a block merge join" 1 merge_joins;
  Alcotest.(check int) "no block merge join when off" 0 hash_joins;
  let obs = Alcotest.(list (pair string (list (triple string string int)))) in
  Alcotest.check obs "block join on = off" hashed merged;
  Alcotest.check obs "observations pinned"
    [
      ("Q8", [ ("/site/people/person/@id", "join", 9) ]);
      ( "Q9",
        [
          ("/site/closed_auctions/closed_auction/itemref/@item", "join", 3);
          ("/site/people/person/@id", "join", 3);
        ] );
    ]
    merged

let suites =
  [
    ( "xmark-pins",
      [
        Alcotest.test_case "workload analysis" `Quick check_analysis;
        Alcotest.test_case "Q1-Q20 untuned" `Quick (check_pins ~name:"untuned" untuned);
        Alcotest.test_case "Q1-Q20 tuned" `Quick (fun () ->
            check_pins ~name:"tuned"
              ~workload:(workload_queries "../examples/xmark_workload.xq")
              tuned ());
        Alcotest.test_case "Q1-Q20 pool and join counters" `Quick check_counters;
        Alcotest.test_case "join observations independent of method" `Quick
          check_join_observations;
        Alcotest.test_case "one request, one ledger" `Quick check_one_request_one_ledger;
      ] );
  ]

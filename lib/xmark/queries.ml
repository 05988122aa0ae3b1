(* The XMark query set (Q1-Q20), expressed in the XQuery subset both
   engines parse. Queries involving XQuery features outside the subset
   are adapted minimally; each adaptation is noted. The [classes] field
   records the predicate classes a query exercises — the input the
   workload-driven compression chooser consumes (§3). *)

type query = {
  id : string;
  description : string;
  text : string;
  adapted : string option; (* what differs from the original XMark query *)
}

let q id ?adapted description text = { id; description; text; adapted }

let doc = "document(\"auction.xml\")"

let all : query list =
  [
    q "Q1" "exact match on person id"
      (Printf.sprintf
         "for $b in %s/site/people/person[@id = \"person0\"] return $b/name/text()" doc);
    q "Q2" "first bid of each open auction"
      (Printf.sprintf
         "for $b in %s/site/open_auctions/open_auction return <increase>{$b/bidder[1]/increase/text()}</increase>"
         doc);
    q "Q3"
      "auctions whose final increase is at least twice the first"
      (Printf.sprintf
         "for $b in %s/site/open_auctions/open_auction where exists($b/bidder) and $b/bidder[1]/increase/text() * 2 <= $b/bidder[last()]/increase/text() return <increase first=\"{$b/bidder[1]/increase/text()}\" last=\"{$b/bidder[last()]/increase/text()}\"/>"
         doc);
    q "Q4" "auctions a given person bid on"
      ~adapted:"existential bidder test instead of the before() ordering test"
      (Printf.sprintf
         "for $b in %s/site/open_auctions/open_auction where some $pr in $b/bidder/personref satisfies $pr/@person = \"person18\" return <history>{$b/initial/text()}</history>"
         doc);
    q "Q5" "count closed auctions above a price"
      (Printf.sprintf
         "count(for $i in %s/site/closed_auctions/closed_auction where $i/price/text() >= 40 return $i/price)"
         doc);
    q "Q6" "items per region (descendant axis)"
      (Printf.sprintf "for $b in %s/site/regions return count($b//item)" doc);
    q "Q7" "count pieces of prose"
      (Printf.sprintf
         "for $p in %s/site return count($p//description) + count($p//mail) + count($p//emailaddress)"
         doc);
    q "Q8" "items bought per person (value join)"
      (Printf.sprintf
         "for $p in %s/site/people/person let $a := for $t in %s/site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id return $t return <item person=\"{$p/name/text()}\">{count($a)}</item>"
         doc doc);
    q "Q9" "items bought per person, with European item names (3-way join)"
      (Printf.sprintf
         "for $p in %s/site/people/person let $a := for $t in %s/site/closed_auctions/closed_auction, $t2 in %s/site/regions/europe/item where $t/itemref/@item = $t2/@id and $p/@id = $t/buyer/@person return <item>{$t2/name/text()}</item> return <person name=\"{$p/name/text()}\">{$a}</person>"
         doc doc doc)
      ~adapted:"inner double-FOR replaces the doubly nested FLWOR";
    q "Q10" "group people by interest category"
      (Printf.sprintf
         "for $i in distinct-values(%s/site/people/person/profile/interest/@category) let $p := for $t in %s/site/people/person where $t/profile/interest/@category = $i return <personne><statistiques><sexe>{$t/profile/gender/text()}</sexe><age>{$t/profile/age/text()}</age><education>{$t/profile/education/text()}</education><revenu>{$t/profile/@income}</revenu></statistiques><coordonnees><nom>{$t/name/text()}</nom><rue>{$t/address/street/text()}</rue><ville>{$t/address/city/text()}</ville><pays>{$t/address/country/text()}</pays><email>{$t/emailaddress/text()}</email></coordonnees></personne> return <categorie>{<id>{$i}</id>}{$p}</categorie>"
         doc doc);
    q "Q11" "initial prices a person's income can cover (inequality join)"
      (Printf.sprintf
         "for $p in %s/site/people/person let $l := for $i in %s/site/open_auctions/open_auction/initial where $p/profile/@income > 5000 * $i/text() return $i return <items name=\"{$p/name/text()}\">{count($l)}</items>"
         doc doc);
    q "Q12" "like Q11 restricted to high incomes"
      (Printf.sprintf
         "for $p in %s/site/people/person let $l := for $i in %s/site/open_auctions/open_auction/initial where $p/profile/@income > 5000 * $i/text() return $i where $p/profile/@income > 50000 return <items person=\"{$p/name/text()}\">{count($l)}</items>"
         doc doc);
    q "Q13" "names and descriptions of Australian items (reconstruction)"
      (Printf.sprintf
         "for $i in %s/site/regions/australia/item return <item name=\"{$i/name/text()}\">{$i/description}</item>"
         doc);
    q "Q14" "items whose description mentions gold (full-text)"
      (Printf.sprintf
         "for $i in %s/site//item where contains($i/description, \"gold\") return $i/name/text()"
         doc);
    q "Q15" "deeply nested keyword path"
      (Printf.sprintf
         "for $a in %s/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text() return <text>{$a}</text>"
         doc);
    q "Q16" "auctions whose annotation has the deep keyword path"
      (Printf.sprintf
         "for $a in %s/site/closed_auctions/closed_auction where exists($a/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()) return <person id=\"{$a/seller/@person}\"/>"
         doc);
    q "Q17" "people without a homepage"
      (Printf.sprintf
         "for $p in %s/site/people/person where empty($p/homepage/text()) return <person name=\"{$p/name/text()}\"/>"
         doc);
    q "Q18" "converted reserve prices"
      ~adapted:"the user-defined currency function is inlined"
      (Printf.sprintf
         "for $i in %s/site/open_auctions/open_auction/reserve return $i/text() * 2.2" doc);
    q "Q19" "items ordered by name"
      (Printf.sprintf
         "for $b in %s/site/regions//item let $k := $b/name/text() order by $k return <item name=\"{$k}\">{$b/location/text()}</item>"
         doc);
    q "Q20" "customers by income bracket"
      (Printf.sprintf
         "<result><preferred>{count(%s/site/people/person/profile[@income >= 100000])}</preferred><standard>{count(%s/site/people/person/profile[@income >= 30000][@income < 100000])}</standard><challenge>{count(%s/site/people/person/profile[@income < 30000])}</challenge><na>{count(for $p in %s/site/people/person where empty($p/profile/@income) return $p)}</na></result>"
         doc doc doc doc);
  ]

let by_id id = List.find (fun q -> String.equal q.id id) all

(* Fig. 5 draws Q9 as one plan: person/@id joined to buyer/@person and
   itemref/@item to europe/item/@id, names decompressed at the top. As a
   flat FOR, both equalities are joins of one clause pipeline. *)
let fig5_join =
  Printf.sprintf
    "for $p in %s/site/people/person, $t in %s/site/closed_auctions/closed_auction, $t2 in %s/site/regions/europe/item where $p/@id = $t/buyer/@person and $t/itemref/@item = $t2/@id return <pair><person>{$p/name/text()}</person><item>{$t2/name/text()}</item></pair>"
    doc doc doc

(** The Fig. 7 chart omits Q8/Q9 (reported separately in the text). *)
let fig7_ids =
  [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5"; "Q6"; "Q7"; "Q10"; "Q11"; "Q12"; "Q13"; "Q14";
    "Q15"; "Q16"; "Q17"; "Q18"; "Q19"; "Q20" ]

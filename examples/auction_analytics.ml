(* Auction analytics: the paper's motivating scenario. A ~1 MB XMark
   auction site is compressed once, then analytical queries — including
   the join-heavy Q8/Q9 the naive engine chokes on — run directly over
   the compressed repository.

   Run with:  dune exec examples/auction_analytics.exe *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

let () =
  Fmt.pr "generating an XMark auction document...@.";
  let xml = Xmark.Xmlgen.generate ~scale:1.0 () in
  Fmt.pr "document: %d KB@." (String.length xml / 1024);

  (* compress with the full XMark workload so the cost model co-locates
     join partners under shared source models *)
  let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
  let (engine, load_ms) =
    time (fun () -> Xquec_core.Engine.load ~name:"auction.xml" ~workload xml)
  in
  Fmt.pr "compressed in %.0f ms, compression factor %.1f%%@.@." load_ms
    (100.0 *. Xquec_core.Engine.compression_factor engine);

  let show id title query =
    let (result, ms) = time (fun () -> Xquec_core.Engine.query_serialized engine query) in
    let preview =
      match String.index_opt result '\n' with
      | Some i -> String.sub result 0 i ^ " ..."
      | None -> result
    in
    Fmt.pr "[%s] %s (%.1f ms)@.      %s@.@." id title ms preview
  in

  show "Q1" "name of person0" (Xmark.Queries.by_id "Q1").Xmark.Queries.text;
  show "Q5" "closed auctions above 40" (Xmark.Queries.by_id "Q5").Xmark.Queries.text;
  show "Q8" "items bought per person (value join)" (Xmark.Queries.by_id "Q8").Xmark.Queries.text;
  show "Q9" "European items per person (3-way join)" (Xmark.Queries.by_id "Q9").Xmark.Queries.text;
  show "Q14" "descriptions mentioning gold" (Xmark.Queries.by_id "Q14").Xmark.Queries.text;

  (* Fig. 5's plan for Q9, written as one flat FOR *)
  show "Fig.5" "(person, European item) pairs, flat join" Xmark.Queries.fig5_join;

  (* contrast with the naive engine on the uncompressed document *)
  Fmt.pr "@.naive engine on the uncompressed document (Q8):@.";
  let doc = Xmlkit.Parser.parse_string xml in
  let (_, naive_ms) =
    time (fun () ->
        Baselines.Galax_like.run ~docs:[ ("auction.xml", doc) ]
          (Xquery.Parser.parse (Xmark.Queries.by_id "Q8").Xmark.Queries.text))
  in
  Fmt.pr "naive Q8: %.0f ms (the compressed engine's hash join wins by decorrelating)@."
    naive_ms

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus the §2.2 / §3.3 numbers quoted in the text and
   a set of design-choice ablations.

     dune exec bench/main.exe                 -- run everything (modest sizes)
     dune exec bench/main.exe -- fig7         -- run one experiment
     dune exec bench/main.exe -- --scale 9 fig7   -- the paper's 11 MB setting

   Absolute numbers differ from the paper (different machine, language and
   substrate); EXPERIMENTS.md records the shape comparison. *)

let scale = ref 2.0
let fig6_scales = ref [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

(* A recorded request: the query log and the watchdog [watch] see it,
   as they see a served query. *)
let logged_request ?watch engine text =
  Xquec_core.Engine.request engine { (Xquec_core.Engine.plain text) with record = true; watch }

(* A server on an ephemeral port without budgets, watchdog or
   auto-compaction; experiments override what they exercise. *)
let serve_config =
  { Xquec_core.Serve.host = "127.0.0.1"; port = 0; workers = 1; max_inflight = 0;
    limits = Xquec_obs.Ledger.unlimited; watch_window = 0.0; drift_alert = 0.3;
    alerts_log = None; baseline = None; auto_compact = false; format = "v4" }

(* median of a few runs; one warmup *)
let time_median ?(runs = 3) f =
  ignore (f ());
  let samples = List.init runs (fun _ -> snd (time f)) in
  List.nth (List.sort compare samples) (runs / 2)

(* Bechamel measurement for sub-millisecond operations: one Test.make per
   query, measured with the monotonic clock. *)
let bechamel_ms (tests : (string * (unit -> unit)) list) : (string * float) list =
  let open Bechamel in
  let open Toolkit in
  let tests = List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~stabilize:false () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" ~fmt:"%s%s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns /. 1e6) :: acc
      | _ -> acc)
    results []

let header title = Fmt.pr "@.=== %s ===@." title
let rule () = Fmt.pr "%s@." (String.make 78 '-')

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)
(* ------------------------------------------------------------------ *)

(* Every experiment records its headline numbers as it prints them; the
   driver writes the collected datapoints to BENCH_results.json
   (override with --json FILE, disable with --no-json) so runs can be
   diffed and plotted without scraping the textual report. *)

let json_out = ref (Some "BENCH_results.json")
let results : (string * string * Xquec_obs.Json.t) list ref = ref []
let num x = Xquec_obs.Json.Num x
let str s = Xquec_obs.Json.Str s
let obj fields = Xquec_obs.Json.Obj fields
let record ~exp key v = results := (exp, key, v) :: !results

(* group by experiment, preserving first-occurrence order; a key recorded
   several times (one per table row) becomes a JSON array *)
let results_json () =
  let recs = List.rev !results in
  let order key_of =
    List.fold_left (fun acc r -> if List.mem (key_of r) acc then acc else acc @ [ key_of r ]) []
  in
  let group exp =
    let entries = List.filter_map (fun (e, k, v) -> if e = exp then Some (k, v) else None) recs in
    obj
      (List.map
         (fun k ->
           match List.filter_map (fun (k', v) -> if k' = k then Some v else None) entries with
           | [ v ] -> (k, v)
           | vs -> (k, Xquec_obs.Json.List vs))
         (order fst entries))
  in
  obj
    [
      ("harness", str "xquec-bench");
      ("xmark_scale", num !scale);
      ("experiments", obj (List.map (fun e -> (e, group e)) (order (fun (e, _, _) -> e) recs)));
    ]

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let corpus = lazy (Xmark.Datasets.real_life_corpus ())

let xmark_doc = lazy (Xmark.Xmlgen.generate ~scale:!scale ())

let xmark_engine =
  lazy
    (let xml = Lazy.force xmark_doc in
     let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
     let (engine, ms) =
       time (fun () -> Xquec_core.Engine.load ~name:"auction.xml" ~workload xml)
     in
     Fmt.pr "[setup] XMark document %d KB compressed in %.1f s (CF %.1f%%)@."
       (String.length xml / 1024) (ms /. 1000.0)
       (100.0 *. Xquec_core.Engine.compression_factor engine);
     engine)

let xmark_dom = lazy (Xmlkit.Parser.parse_string (Lazy.force xmark_doc))

(* The committed v3 image (relative to the repository root, where the
   bench is run from) and the queries its read-compat test asks. *)
let v3_fixture = "test/fixtures/v3_small.xqc"

let v3_fixture_queries =
  [
    "document(\"v3_small.xml\")/site/people/person/name";
    "document(\"v3_small.xml\")/site/people/person[age > 30]/bio";
    "document(\"v3_small.xml\")/site/people/person[@id = \"p2\"]";
    "document(\"v3_small.xml\")//item/price";
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Table 1: data sets                                                  *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: data sets used in the experiments";
  Fmt.pr "%-20s %9s %9s %8s %7s %6s %10s@." "dataset" "size(KB)" "elements" "attrs"
    "depth" "tags" "text share";
  rule ();
  let row name xml =
    let st = Xmlkit.Stats.of_document (Xmlkit.Parser.parse_string xml) in
    record ~exp:"table1" "dataset"
      (obj
         [
           ("name", str name);
           ("size_kb", num (float_of_int (String.length xml / 1024)));
           ("elements", num (float_of_int st.Xmlkit.Stats.elements));
           ("attributes", num (float_of_int st.Xmlkit.Stats.attributes));
           ("max_depth", num (float_of_int st.Xmlkit.Stats.max_depth));
           ("distinct_tags", num (float_of_int st.Xmlkit.Stats.distinct_tags));
           ("text_share", num (Xmlkit.Stats.value_share st));
         ]);
    Fmt.pr "%-20s %9d %9d %8d %7d %6d %9.1f%%@." name
      (String.length xml / 1024)
      st.Xmlkit.Stats.elements st.Xmlkit.Stats.attributes st.Xmlkit.Stats.max_depth
      st.Xmlkit.Stats.distinct_tags
      (100.0 *. Xmlkit.Stats.value_share st)
  in
  List.iter (fun (d : Xmark.Datasets.dataset) -> row d.Xmark.Datasets.name d.Xmark.Datasets.xml)
    (Lazy.force corpus);
  row (Printf.sprintf "xmark (scale %.2g)" !scale) (Lazy.force xmark_doc)

(* ------------------------------------------------------------------ *)
(* Fig. 6: compression factors                                         *)
(* ------------------------------------------------------------------ *)

let cf_row ~exp name xml =
  let xm = Baselines.Xmill.compression_factor (Baselines.Xmill.compress xml) in
  let xg = Baselines.Xgrind.compression_factor (Baselines.Xgrind.compress xml) in
  let xp = Baselines.Xpress.compression_factor (Baselines.Xpress.compress xml) in
  let repo = Xquec_core.Loader.load ~name xml in
  let xq = Storage.Repository.compression_factor repo in
  let sb = Storage.Repository.size_breakdown repo in
  record ~exp "row"
    (obj
       [ ("name", str name); ("xmill", num xm); ("xgrind", num xg); ("xpress", num xp);
         ("xquec", num xq);
         ("tree_succinct_bytes", num (float_of_int sb.Storage.Repository.tree_bytes)) ]);
  Fmt.pr "%-22s %8.1f%% %8.1f%% %8.1f%% %8.1f%%@." name (100. *. xm) (100. *. xg)
    (100. *. xp) (100. *. xq);
  (xm, xg, xp, xq)

let fig6_left () =
  header "Fig. 6 (left): average compression factor, real-life corpus";
  Fmt.pr "%-22s %9s %9s %9s %9s@." "dataset" "XMill" "XGrind" "XPRESS" "XQueC";
  rule ();
  let rows =
    List.map
      (fun (d : Xmark.Datasets.dataset) ->
        cf_row ~exp:"fig6_left" d.Xmark.Datasets.name d.Xmark.Datasets.xml)
      (Lazy.force corpus)
  in
  let n = float_of_int (List.length rows) in
  let avg f = 100.0 *. List.fold_left (fun a r -> a +. f r) 0.0 rows /. n in
  rule ();
  record ~exp:"fig6_left" "average"
    (obj
       [
         ("xmill", num (avg (fun (a, _, _, _) -> a) /. 100.0));
         ("xgrind", num (avg (fun (_, b, _, _) -> b) /. 100.0));
         ("xpress", num (avg (fun (_, _, c, _) -> c) /. 100.0));
         ("xquec", num (avg (fun (_, _, _, d) -> d) /. 100.0));
       ]);
  Fmt.pr "%-22s %8.1f%% %8.1f%% %8.1f%% %8.1f%%@." "average"
    (avg (fun (a, _, _, _) -> a))
    (avg (fun (_, b, _, _) -> b))
    (avg (fun (_, _, c, _) -> c))
    (avg (fun (_, _, _, d) -> d))

let fig6_right () =
  header "Fig. 6 (right): compression factor vs XMark document size";
  Fmt.pr "%-22s %9s %9s %9s %9s@." "document" "XMill" "XGrind" "XPRESS" "XQueC";
  rule ();
  List.iter
    (fun s ->
      let xml = Xmark.Xmlgen.generate ~scale:s () in
      ignore (cf_row ~exp:"fig6_right" (Printf.sprintf "xmark %d KB" (String.length xml / 1024)) xml))
    !fig6_scales

(* ------------------------------------------------------------------ *)
(* Fig. 7: query execution times                                       *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Fig. 7: QET, XQueC (compressed) vs Galax-like (uncompressed)";
  let engine = Lazy.force xmark_engine in
  let dom = Lazy.force xmark_dom in
  Fmt.pr "(XQueC times include decompressing and serializing the result, as in the paper)@.";
  Fmt.pr "%-5s %12s %12s %8s  %s@." "query" "XQueC(ms)" "Galax(ms)" "ratio" "note";
  rule ();
  let xquec_run (q : Xmark.Queries.query) () =
    ignore (Xquec_core.Engine.query_serialized engine q.Xmark.Queries.text)
  in
  (* every query gets a registered Bechamel Test.make; sub-millisecond
     ones take their estimate from it, slower ones from a wall-clock
     median *)
  let bech =
    bechamel_ms
      (List.map (fun id -> (id, xquec_run (Xmark.Queries.by_id id))) Xmark.Queries.fig7_ids)
  in
  List.iter
    (fun id ->
      let q = Xmark.Queries.by_id id in
      let ast = Xquery.Parser.parse q.Xmark.Queries.text in
      let xq_ms =
        match List.assoc_opt id bech with
        | Some ms when ms < 10.0 -> ms
        | _ -> time_median (fun () -> xquec_run q ())
      in
      let galax_ms =
        time_median ~runs:1 (fun () ->
            ignore (Baselines.Galax_like.run ~docs:[ ("auction.xml", dom) ] ast))
      in
      let note = match q.Xmark.Queries.adapted with Some _ -> "(adapted)" | None -> "" in
      record ~exp:"fig7" "query"
        (obj
           [ ("id", str id); ("xquec_ms", num xq_ms); ("galax_ms", num galax_ms);
             ("adapted", str note) ]);
      Fmt.pr "%-5s %12.2f %12.2f %7.1fx  %s@." id xq_ms galax_ms (galax_ms /. xq_ms) note)
    Xmark.Queries.fig7_ids

let q8_q9 () =
  header "Q8/Q9 (reported separately in the paper's text)";
  let engine = Lazy.force xmark_engine in
  let dom = Lazy.force xmark_dom in
  let run_xquec id =
    let q = Xmark.Queries.by_id id in
    time_median (fun () -> ignore (Xquec_core.Engine.query_serialized engine q.Xmark.Queries.text))
  in
  let run_galax id =
    let q = Xmark.Queries.by_id id in
    let ast = Xquery.Parser.parse q.Xmark.Queries.text in
    time_median ~runs:1 (fun () ->
        ignore (Baselines.Galax_like.run ~docs:[ ("auction.xml", dom) ] ast))
  in
  Fmt.pr "%-5s %12s %12s@." "query" "XQueC(ms)" "Galax(ms)";
  rule ();
  let q8x = run_xquec "Q8" and q9x = run_xquec "Q9" in
  let q8g = run_galax "Q8" in
  record ~exp:"q8_q9" "q8" (obj [ ("xquec_ms", num q8x); ("galax_ms", num q8g) ]);
  Fmt.pr "%-5s %12.1f %12.1f@." "Q8" q8x q8g;
  if !scale <= 2.5 then begin
    let q9g = run_galax "Q9" in
    record ~exp:"q8_q9" "q9" (obj [ ("xquec_ms", num q9x); ("galax_ms", num q9g) ]);
    Fmt.pr "%-5s %12.1f %12.1f@." "Q9" q9x q9g
  end
  else begin
    Fmt.pr "%-5s %12.1f %12s@." "Q9" q9x "n/a (*)";
    Fmt.pr "(*) the naive engine's nested-loop Q9 is quadratic and does not complete in@.";
    Fmt.pr "    reasonable time at this scale - the paper could not measure Galax on Q9 either.@."
  end;
  (* Fig. 5's plan as one flat FOR: the executor runs both equalities as
     joins on codes and decompresses only the returned names *)
  let fig5 = Xquec_core.Engine.parse_query Xmark.Queries.fig5_join in
  let plan_ms =
    time_median (fun () ->
        ignore
          (Xquec_core.Executor.serialize (Xquec_core.Engine.repo engine)
             (Xquec_core.Engine.query_ast engine fig5)))
  in
  record ~exp:"q8_q9" "q9_fig5_plan_ms" (num plan_ms);
  Fmt.pr "%-5s %12.1f %12s  (Fig. 5's join as a flat FOR)@." "Q9*" plan_ms "-"

(* ------------------------------------------------------------------ *)
(* Section 2.2: storage occupancy                                      *)
(* ------------------------------------------------------------------ *)

let storage_occupancy () =
  header "Storage occupancy (the figures quoted in paper section 2.2)";
  let engine = Lazy.force xmark_engine in
  let repo = Xquec_core.Engine.repo engine in
  let sz = Xquec_core.Engine.size_breakdown engine in
  let os = float_of_int repo.Storage.Repository.original_size in
  let pct x = 100.0 *. float_of_int x /. os in
  (* built at load and never stored, so outside [total] *)
  let nav_arrays = Storage.Structure_tree.nav_array_bytes repo.Storage.Repository.tree in
  let value_arrays = Storage.Structure_tree.value_array_bytes repo.Storage.Repository.tree in
  (* The v4 acceptance pin, on the committed v3 fixture (v3 is read but
     no longer written): its v4 re-save must be the smaller image, and
     both must answer the fixture's queries identically. Both facts are
     recorded exactly (bool/string) so the quick gate trips on any
     regression. *)
  let v3_image = read_file v3_fixture in
  let v4_image = Storage.Repository.serialize (Storage.Repository.deserialize v3_image) in
  let v4_below_v3 = String.length v4_image < String.length v3_image in
  let digest_of image =
    let eng = Xquec_core.Engine.restore image in
    let answers = List.map (Xquec_core.Engine.query_serialized eng) v3_fixture_queries in
    Digest.to_hex (Digest.string (String.concat "\n" answers))
  in
  let digests_match =
    if String.equal (digest_of v3_image) (digest_of v4_image) then "match" else "mismatch"
  in
  record ~exp:"storage_occupancy" "bytes"
    (obj
       [
         ("original", num os);
         ("total", num (float_of_int sz.Storage.Repository.total_bytes));
         ("tree", num (float_of_int sz.Storage.Repository.tree_bytes));
         ("v4_below_v3", Xquec_obs.Json.Bool v4_below_v3);
         ("v3_v4_digests", str digests_match);
         ("containers", num (float_of_int sz.Storage.Repository.containers_bytes));
         ("models", num (float_of_int sz.Storage.Repository.models_bytes));
         ("summary", num (float_of_int sz.Storage.Repository.summary_bytes));
         ("index", num (float_of_int sz.Storage.Repository.index_bytes));
         ("nav_arrays_in_memory", num (float_of_int nav_arrays));
         ("value_arrays_in_memory", num (float_of_int value_arrays));
         ("essential", num (float_of_int sz.Storage.Repository.essential_bytes));
       ]);
  Fmt.pr "original document:        %9d bytes@." repo.Storage.Repository.original_size;
  Fmt.pr "full repository:          %9d bytes (%.1f%% of original; CF %.1f%%)@."
    sz.Storage.Repository.total_bytes
    (pct sz.Storage.Repository.total_bytes)
    (100.0 *. Xquec_core.Engine.compression_factor engine);
  Fmt.pr "  structure tree (v4):    %9d bytes (%.1f%%)@." sz.Storage.Repository.tree_bytes
    (pct sz.Storage.Repository.tree_bytes);
  Fmt.pr "  v3 fixture %d bytes, v4 re-save %d bytes (%s); query digests %s@."
    (String.length v3_image) (String.length v4_image)
    (if v4_below_v3 then "smaller" else "NOT smaller")
    digests_match;
  Fmt.pr "  value containers:       %9d bytes (%.1f%%)@." sz.Storage.Repository.containers_bytes
    (pct sz.Storage.Repository.containers_bytes);
  Fmt.pr "  source models:          %9d bytes (%.1f%%)@." sz.Storage.Repository.models_bytes
    (pct sz.Storage.Repository.models_bytes);
  Fmt.pr "  structure summary:      %9d bytes (%.1f%% of original; paper: ~19%%)@."
    sz.Storage.Repository.summary_bytes
    (pct sz.Storage.Repository.summary_bytes);
  Fmt.pr "  nav directories:        %9d bytes (%.1f%%)@." sz.Storage.Repository.index_bytes
    (pct sz.Storage.Repository.index_bytes);
  Fmt.pr "  nav arrays (in memory): %9d bytes (tags + parents + subtree ends, built at load, not stored)@."
    nav_arrays;
  Fmt.pr "  value arrays (in memory): %7d bytes (value offsets + packed pointers + marker positions, not stored)@."
    value_arrays;
  Fmt.pr "essential (no access structures): %d bytes@." sz.Storage.Repository.essential_bytes;
  Fmt.pr "access-structure factor:  %.2fx (paper: 3-4x)@."
    (float_of_int sz.Storage.Repository.total_bytes
    /. float_of_int sz.Storage.Repository.essential_bytes)

(* ------------------------------------------------------------------ *)
(* Section 3.3: NaiveConf vs GoodConf                                  *)
(* ------------------------------------------------------------------ *)

let partitioning_gain () =
  header "Section 3.3 example: NaiveConf (single shared ALM) vs GoodConf (partitioned)";
  let rng = Xmark.Rng.of_int 7 in
  let sentence () =
    String.concat " "
      (List.init (10 + Xmark.Rng.int rng 14) (fun _ -> Xmark.Rng.pick rng Xmark.Wordpool.shakespeare))
  in
  let name () =
    Xmark.Rng.pick rng Xmark.Wordpool.first_names ^ " " ^ Xmark.Rng.pick rng Xmark.Wordpool.last_names
  in
  let date () =
    Printf.sprintf "%02d/%02d/%4d" (1 + Xmark.Rng.int rng 12) (1 + Xmark.Rng.int rng 28)
      (1998 + Xmark.Rng.int rng 5)
  in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "<doc>";
  List.iter
    (fun (tag, gen, n) ->
      for _ = 1 to n do
        Buffer.add_string buf (Printf.sprintf "<%s>%s</%s>" tag (gen ()) tag)
      done)
    [
      (* the paper's example containers are ~6 MB each; a few hundred KB
         is enough for the dictionary codecs to amortize their models *)
      ("act1", sentence, 2500); ("act2", sentence, 2500); ("act3", sentence, 2500);
      ("pname", name, 8000); ("pdate", date, 8000);
    ];
  Buffer.add_string buf "</doc>";
  let xml = Buffer.contents buf in
  let parsed = Xquec_core.Loader.parse ~name:"d.xml" xml in
  let workload_queries =
    List.map Xquery.Parser.parse
      [
        "for $x in document(\"d.xml\")/doc/act1 where $x/text() > \"king\" return $x";
        "for $x in document(\"d.xml\")/doc/act2 where $x/text() > \"queen\" return $x";
        "for $x in document(\"d.xml\")/doc/act3 where $x/text() < \"mad\" return $x";
        "for $x in document(\"d.xml\")/doc/pname where $x/text() >= \"Marta\" return $x";
        "for $x in document(\"d.xml\")/doc/pdate where $x/text() >= \"06/01/2000\" return $x";
      ]
  in
  let workload =
    Xquec_core.Workload.analyze (Xquec_core.Loader.dict parsed) (Xquec_core.Loader.summary parsed)
      workload_queries
  in
  let all_ids = List.init workload.Xquec_core.Workload.container_count Fun.id in
  let values = Xquec_core.Loader.values parsed in
  let cm = Xquec_core.Cost_model.create values workload in
  let naive = { Xquec_core.Cost_model.sets = [ (all_ids, Compress.Codec.Alm_alg) ] } in
  let naive_cost = Xquec_core.Cost_model.breakdown cm naive in
  let result = Xquec_core.Partitioner.search values workload in
  let good = result.Xquec_core.Partitioner.configuration in
  let good_cost = Xquec_core.Cost_model.breakdown cm good in
  let container_cf config =
    let repo = Xquec_core.Loader.build ~configuration:config parsed in
    List.map
      (fun (ids, alg) ->
        let plain =
          List.fold_left
            (fun a id -> a + (Storage.Repository.container repo id).Storage.Container.plain_bytes)
            0 ids
        in
        let compressed =
          List.fold_left
            (fun a id ->
              a + Storage.Container.compressed_bytes (Storage.Repository.container repo id))
            0 ids
        in
        let paths =
          List.map (fun id -> (Storage.Repository.container repo id).Storage.Container.path) ids
        in
        (paths, alg, 1.0 -. (float_of_int compressed /. float_of_int plain)))
      config.Xquec_core.Cost_model.sets
  in
  Fmt.pr "NaiveConf: one shared ALM source model over all five containers@.";
  List.iter
    (fun (paths, alg, cf) ->
      Fmt.pr "  {%d containers} %s: value CF %.2f%%@." (List.length paths)
        (Compress.Codec.algorithm_name alg) (100.0 *. cf))
    (container_cf naive);
  Fmt.pr "  model cost %.0f, decompression cost %.0f, total %.0f@."
    naive_cost.Xquec_core.Cost_model.model naive_cost.Xquec_core.Cost_model.decompression
    naive_cost.Xquec_core.Cost_model.total;
  Fmt.pr "@.GoodConf: the greedy section-3.3 search (%d sets)@."
    (List.length good.Xquec_core.Cost_model.sets);
  List.iter
    (fun (paths, alg, cf) ->
      Fmt.pr "  {%s} %s: value CF %.2f%%@." (String.concat ", " paths)
        (Compress.Codec.algorithm_name alg) (100.0 *. cf))
    (container_cf good);
  Fmt.pr "  model cost %.0f, decompression cost %.0f, total %.0f@."
    good_cost.Xquec_core.Cost_model.model good_cost.Xquec_core.Cost_model.decompression
    good_cost.Xquec_core.Cost_model.total;
  record ~exp:"partitioning_gain" "costs"
    (obj
       [
         ("naive_total", num naive_cost.Xquec_core.Cost_model.total);
         ("good_total", num good_cost.Xquec_core.Cost_model.total);
         ("good_sets", num (float_of_int (List.length good.Xquec_core.Cost_model.sets)));
         ( "gain",
           num
             (1.0
             -. (good_cost.Xquec_core.Cost_model.total /. naive_cost.Xquec_core.Cost_model.total))
         );
       ]);
  Fmt.pr "@.total cost gain: %.1f%% (the paper's example gains 21.4%%/28.6%% on text/names)@."
    (100.0 *. (1.0 -. (good_cost.Xquec_core.Cost_model.total /. naive_cost.Xquec_core.Cost_model.total)))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations: the design choices DESIGN.md calls out";
  let engine = Lazy.force xmark_engine in
  let repo = Xquec_core.Engine.repo engine in
  let find path = Option.get (Storage.Repository.find_container_by_path repo path) in

  (* (a) per-value compression vs whole-container chunks *)
  let cont = find "/site/people/person/name/#text" in
  let values = List.map fst (Storage.Container.dump cont) in
  let chunk = String.concat "\000" values in
  let compressed_chunk = Compress.Bzip.compress chunk in
  let target = List.nth values (List.length values / 2) in
  let per_value_ms =
    time_median ~runs:5 (fun () ->
        let code = Storage.Container.compress_constant cont target in
        ignore (Storage.Container.lookup_eq cont code))
  in
  let whole_chunk_ms =
    time_median ~runs:5 (fun () ->
        ignore (String.length (Compress.Bzip.decompress compressed_chunk)))
  in
  record ~exp:"ablations" "per_value_access"
    (obj [ ("per_value_ms", num per_value_ms); ("whole_chunk_ms", num whole_chunk_ms) ]);
  Fmt.pr "(a) access one of %d values: individually compressed %.3f ms, \
          XMill-style chunk decompression %.3f ms (%.0fx)@."
    (List.length values) per_value_ms whole_chunk_ms (whole_chunk_ms /. per_value_ms);

  (* (b) value join: the executor's join on codes vs decompressing nested loop *)
  let pid = find "/site/people/person/@id" in
  let buyer = find "/site/closed_auctions/closed_auction/buyer/@person" in
  let shared = pid.Storage.Container.model_id = buyer.Storage.Container.model_id in
  let person_buyer =
    Xquec_core.Engine.parse_query
      "count(for $p in document(\"auction.xml\")/site/people/person, $b in \
       document(\"auction.xml\")/site/closed_auctions/closed_auction/buyer where $p/@id = \
       $b/@person return $b)"
  in
  let merge_ms =
    time_median (fun () -> ignore (Xquec_core.Engine.query_ast engine person_buyer))
  in
  let nl_ms =
    time_median ~runs:1 (fun () ->
        let ids = Storage.Container.dump pid and buyers = Storage.Container.dump buyer in
        let n = ref 0 in
        List.iter
          (fun (l, _) -> List.iter (fun (r, _) -> if String.equal l r then incr n) buyers)
          ids;
        ignore !n)
  in
  record ~exp:"ablations" "value_join"
    (obj [ ("merge_join_ms", num merge_ms); ("nested_loop_ms", num nl_ms) ]);
  Fmt.pr "(b) person-buyer join (shared model: %b): executor join on codes %.2f ms, \
          decompress-then-nested-loop %.1f ms (%.0fx)@."
    shared merge_ms nl_ms (nl_ms /. merge_ms);

  (* (c) compressed-domain inequality vs scan-and-decompress *)
  let prices = find "/site/closed_auctions/closed_auction/price/#text" in
  let in_domain_ms =
    time_median ~runs:5 (fun () ->
        let lo = Storage.Container.compress_constant prices "100.00" in
        ignore (List.length (Storage.Container.lookup_range prices ~lo:(`Incl lo) ())))
  in
  let scan_ms =
    time_median ~runs:5 (fun () ->
        let n = ref 0 in
        Array.iter
          (fun (r : Storage.Container.record) ->
            match float_of_string_opt (Storage.Container.decompress_record prices r) with
            | Some v when v >= 100.0 -> incr n
            | _ -> ())
          (Storage.Container.scan prices);
        ignore !n)
  in
  record ~exp:"ablations" "inequality"
    (obj [ ("compressed_domain_ms", num in_domain_ms); ("scan_decompress_ms", num scan_ms) ]);
  Fmt.pr "(c) price >= 100 over %d records: compressed-domain range %.4f ms, \
          scan+decompress %.3f ms (%.0fx)@."
    (Storage.Container.length prices) in_domain_ms scan_ms (scan_ms /. in_domain_ms);

  (* (d) summary access vs structure scan *)
  let summary_ms =
    time_median ~runs:5 (fun () ->
        ignore
          (Xquec_core.Executor.run repo
             (Xquery.Parser.parse "count(document(\"auction.xml\")//item)")))
  in
  let tree = repo.Storage.Repository.tree in
  let code = Option.get (Storage.Name_dict.code repo.Storage.Repository.dict "item") in
  let nav_ms =
    time_median ~runs:3 (fun () ->
        let n = ref 0 in
        for id = 0 to Storage.Structure_tree.node_count tree - 1 do
          if Storage.Structure_tree.tag tree id = code then incr n
        done;
        ignore !n)
  in
  record ~exp:"ablations" "summary_access"
    (obj [ ("summary_ms", num summary_ms); ("structure_scan_ms", num nav_ms) ]);
  Fmt.pr "(d) //item count: structure-summary access %.4f ms, full structure scan %.3f ms@."
    summary_ms nav_ms;

  (* (e) pre-order interval ancestor test (what the paper's 3-valued
     structural ids are for) vs parent-chain walks; the row keeps its
     old name *)
  let items =
    Xquec_core.Executor.run repo
      (Xquery.Parser.parse "document(\"auction.xml\")/site/regions//item")
  in
  let item_ids =
    List.filter_map (function Xquec_core.Executor.Node id -> Some id | _ -> None) items
  in
  let regions_id =
    match
      Xquec_core.Executor.run repo (Xquery.Parser.parse "document(\"auction.xml\")/site/regions")
    with
    | [ Xquec_core.Executor.Node id ] -> id
    | _ -> 0
  in
  let structural_ms =
    time_median ~runs:5 (fun () ->
        List.iter
          (fun id ->
            ignore (Storage.Structure_tree.is_ancestor tree ~ancestor:regions_id ~descendant:id))
          item_ids)
  in
  let walk_ms =
    time_median ~runs:5 (fun () ->
        List.iter
          (fun id ->
            let rec up i =
              i = regions_id || (i >= 0 && up (Storage.Structure_tree.parent tree i))
            in
            ignore (up id))
          item_ids)
  in
  record ~exp:"ablations" "ancestor_check"
    (obj [ ("structural_ids_ms", num structural_ms); ("parent_walk_ms", num walk_ms) ]);
  Fmt.pr "(e) %d ancestor checks: pre-order interval test %.4f ms, parent-chain walks %.4f ms@."
    (List.length item_ids) structural_ms walk_ms

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's own experiments                       *)
(* ------------------------------------------------------------------ *)

(* The paper could not compare query times against XGrind/XPRESS ("fully
   working versions ... are not publicly available", §5); our
   reimplementations make the comparison possible. It quantifies §1.2's
   point: the homomorphic systems' fixed top-down scan pays the whole
   document on every query, while XQueC's ContAccess is selective. *)
let homomorphic_scan () =
  header "Extension: selective query, XQueC vs the homomorphic systems";
  let xml = Lazy.force xmark_doc in
  let engine = Lazy.force xmark_engine in
  let (xg, xg_build) = time (fun () -> Baselines.Xgrind.compress xml) in
  let (xp, xp_build) = time (fun () -> Baselines.Xpress.compress xml) in
  Fmt.pr "(compressors built in %.0f / %.0f ms)@." xg_build xp_build;
  (* Q1-style exact match: person0's name *)
  let xquec_ms =
    time_median (fun () ->
        ignore
          (Xquec_core.Engine.query_serialized engine
             (Xmark.Queries.by_id "Q1").Xmark.Queries.text))
  in
  let xgrind_ms =
    time_median (fun () ->
        ignore
          (Baselines.Xgrind.query_exact xg ~target_path:"site/people/person/name/#text"
             ~pred_path:"site/people/person/@id" ~value:"person0"))
  in
  (* XPRESS: fetch one location path (its native query class) *)
  let xpress_ms =
    time_median (fun () ->
        ignore
          (Baselines.Xpress.query_path xp [ "site"; "regions"; "europe"; "item"; "location" ]))
  in
  record ~exp:"homomorphic_scan" "times"
    (obj
       [ ("xquec_ms", num xquec_ms); ("xgrind_ms", num xgrind_ms); ("xpress_ms", num xpress_ms) ]);
  Fmt.pr "%-42s %10s@." "system / query" "time(ms)";
  rule ();
  Fmt.pr "%-42s %10.3f@." "XQueC: Q1 exact match (ContAccess)" xquec_ms;
  Fmt.pr "%-42s %10.1f@." "XGrind: exact match (full-stream scan)" xgrind_ms;
  Fmt.pr "%-42s %10.1f@." "XPRESS: path query (full-stream scan)" xpress_ms;
  Fmt.pr "the homomorphic systems scan the whole compressed document per query;@.";
  Fmt.pr "XQueC's summary + containers touch only the data the query needs (Fig. 4).@."

(* Measured codec characteristics, validating the d_c constants the §3.2
   cost model uses (the paper: "ALM decompresses faster than Huffman,
   since it outputs bigger portions of a string at a time"). *)
let codec_costs () =
  header "Extension: measured codec characteristics (cost-model inputs)";
  let rng = Xmark.Rng.of_int 3 in
  let values =
    List.init 4000 (fun _ ->
        String.concat " "
          (List.init (6 + Xmark.Rng.int rng 10) (fun _ ->
               Xmark.Rng.pick rng Xmark.Wordpool.shakespeare)))
  in
  let plain = List.fold_left (fun a v -> a + String.length v) 0 values in
  Fmt.pr "%d values, %d KB of text@." (List.length values) (plain / 1024);
  Fmt.pr "%-12s %10s %12s %14s %6s@." "codec" "ratio" "model(B)" "decomp(MB/s)" "d_c";
  rule ();
  List.iter
    (fun alg ->
      match Compress.Codec.train alg values with
      | exception Compress.Codec.Unsupported _ -> ()
      | model ->
        let codes = List.map (Compress.Codec.compress model) values in
        let compressed = List.fold_left (fun a c -> a + String.length c) 0 codes in
        let ms =
          time_median ~runs:3 (fun () ->
              List.iter (fun c -> ignore (Compress.Codec.decompress model c)) codes)
        in
        let mbps = float_of_int plain /. 1048576.0 /. (ms /. 1000.0) in
        record ~exp:"codec_costs" "codec"
          (obj
             [
               ("name", str (Compress.Codec.algorithm_name alg));
               ("ratio", num (1.0 -. (float_of_int compressed /. float_of_int plain)));
               ("model_bytes", num (float_of_int (Compress.Codec.model_size model)));
               ("decompress_mbps", num mbps);
               ("d_c", num (Compress.Codec.decompression_cost alg));
             ]);
        Fmt.pr "%-12s %9.2f%% %12d %14.1f %6.1f@."
          (Compress.Codec.algorithm_name alg)
          (100.0 *. (1.0 -. (float_of_int compressed /. float_of_int plain)))
          (Compress.Codec.model_size model)
          mbps
          (Compress.Codec.decompression_cost alg))
    Compress.Codec.all_algorithms
  ;
  (* The block-fetch decode kernel: every block of the XMark image through
     [decode_block], as a buffer-pool miss runs it. MB/s is over payload
     bytes; the minor words pin the kernel's allocation per block. *)
  let repo = Xquec_core.Engine.repo (Lazy.force xmark_engine) in
  let blocks =
    Array.concat
      (Array.to_list
         (Array.map (fun c -> c.Storage.Container.blocks) repo.Storage.Repository.containers))
  in
  let payload =
    Array.fold_left (fun a b -> a + String.length b.Storage.Container.b_payload) 0 blocks
  in
  let decode_all () =
    Array.iter
      (fun b ->
        ignore
          (Compress.Codec.decode_block ~count:b.Storage.Container.b_count
             b.Storage.Container.b_payload))
      blocks
  in
  let ms = time_median ~runs:5 decode_all in
  let mbps = float_of_int payload /. 1048576.0 /. (ms /. 1000.0) in
  let w0 = Gc.minor_words () in
  decode_all ();
  let words = (Gc.minor_words () -. w0) /. float_of_int (Array.length blocks) in
  record ~exp:"codec_costs" "codec"
    (obj
       [
         ("name", str "block");
         ("blocks", num (float_of_int (Array.length blocks)));
         ("payload_bytes", num (float_of_int payload));
         ("decompress_mbps", num mbps);
         ("minor_words_per_block", num words);
       ]);
  Fmt.pr "%-12s %d blocks, %d KB payload: %.1f MB/s, %.0f minor words/block@." "block"
    (Array.length blocks) (payload / 1024) mbps words;
  (* The value decoders on real data: every value of the XMark image's
     containers through [Codec.decompress], one row per algorithm the
     image uses. MB/s is over decoded bytes. *)
  List.iter
    (fun alg ->
      let values =
        Array.to_list repo.Storage.Repository.containers
        |> List.concat_map (fun c ->
               if c.Storage.Container.algorithm <> alg then []
               else
                 List.init (Storage.Container.block_count c) (fun i ->
                     fst (Storage.Container.read_block c i))
                 |> Array.concat |> Array.to_list
                 |> List.map (fun code -> (c.Storage.Container.model, code)))
        |> Array.of_list
      in
      if Array.length values > 0 then begin
        let decode_all () =
          Array.iter (fun (model, code) -> ignore (Compress.Codec.decompress model code)) values
        in
        let decoded =
          Array.fold_left
            (fun a (model, code) -> a + String.length (Compress.Codec.decompress model code))
            0 values
        in
        let ms = time_median ~runs:5 decode_all in
        let mbps = float_of_int decoded /. 1048576.0 /. (ms /. 1000.0) in
        let w0 = Gc.minor_words () in
        decode_all ();
        let words = (Gc.minor_words () -. w0) /. float_of_int (Array.length values) in
        let name = "xmark-" ^ Compress.Codec.algorithm_name alg in
        record ~exp:"codec_costs" "codec"
          (obj
             [
               ("name", str name);
               ("values", num (float_of_int (Array.length values)));
               ("decoded_bytes", num (float_of_int decoded));
               ("decompress_mbps", num mbps);
               ("minor_words_per_value", num words);
             ]);
        Fmt.pr "%-12s %d values, %d KB decoded: %.1f MB/s, %.1f minor words/value@." name
          (Array.length values) (decoded / 1024) mbps words
      end)
    Compress.Codec.all_algorithms;
  (* The ALM build and encode paths on the same image: each model rebuilt
     from its serialized tokens, as a restore does, and every value
     re-encoded with its model, as a compress does. *)
  let bodies =
    List.filter_map
      (fun (_, m) ->
        match m with
        | Compress.Codec.M_alm a -> Some (Compress.Alm.serialize_model a)
        | _ -> None)
      (Storage.Repository.models repo)
  in
  if bodies <> [] then begin
    let n = List.length bodies in
    let ms =
      time_median ~runs:5 (fun () -> List.iter (fun b -> ignore (Compress.Alm.deserialize_model b)) bodies)
    in
    record ~exp:"codec_costs" "codec"
      (obj
         [
           ("name", str "xmark-alm-build");
           ("models", num (float_of_int n));
           ("per_model_build_ms", num (ms /. float_of_int n));
         ]);
    Fmt.pr "%-12s %d models: %.1f us per model@." "alm-build" n (1000.0 *. ms /. float_of_int n)
  end;
  let plain =
    Array.to_list repo.Storage.Repository.containers
    |> List.concat_map (fun c ->
           match c.Storage.Container.model with
           | Compress.Codec.M_alm a ->
             List.init (Storage.Container.block_count c) (fun i ->
                 fst (Storage.Container.read_block c i))
             |> Array.concat |> Array.to_list
             |> List.map (fun code -> (a, Compress.Alm.decompress a code))
           | _ -> [])
    |> Array.of_list
  in
  if Array.length plain > 0 then begin
    let bytes = Array.fold_left (fun a (_, v) -> a + String.length v) 0 plain in
    let ms =
      time_median ~runs:5 (fun () -> Array.iter (fun (a, v) -> ignore (Compress.Alm.compress a v)) plain)
    in
    let mbps = float_of_int bytes /. 1048576.0 /. (ms /. 1000.0) in
    record ~exp:"codec_costs" "codec"
      (obj
         [
           ("name", str "xmark-alm-encode");
           ("values", num (float_of_int (Array.length plain)));
           ("plain_bytes", num (float_of_int bytes));
           ("compress_mbps", num mbps);
         ]);
    Fmt.pr "%-12s %d values, %d KB: %.1f MB/s@." "alm-encode" (Array.length plain) (bytes / 1024) mbps
  end

(* Where an ingested document's compression time goes: the eight
   documents the end-to-end ingest workload compresses (XMark 0.25,
   seeds 42-49, tuned for Q1-Q20), each loaded with tracing on. The
   spans give, per document, the ms of ALM token mining, of each
   codec's training, of the cost model's pricing under each candidate
   algorithm, and of container encoding (values encoded, sorted and
   blocked). Tracing turns the codec counters on too, so the figures
   include their cost. Of three rounds, the one with the least load
   time is reported. *)
let ingest_codecs () =
  header "Ingest: per-document ms in codec training, pricing and encoding";
  let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
  let docs = List.init 8 (fun k -> Xmark.Xmlgen.generate ~seed:(42 + k) ~scale:0.25 ()) in
  let round () =
    let totals = Hashtbl.create 16 in
    let add key ms =
      Hashtbl.replace totals key (ms +. Option.value ~default:0.0 (Hashtbl.find_opt totals key))
    in
    List.iter
      (fun xml ->
        Xquec_obs.Trace.clear ();
        Xquec_obs.with_enabled (fun () ->
            ignore (Xquec_core.Engine.load ~name:"auction.xml" ~workload xml));
        List.iter
          (fun (sp : Xquec_obs.Trace.span) ->
            let alg () = Option.value ~default:"?" (List.assoc_opt "algorithm" sp.attrs) in
            let ms = sp.dur_us /. 1000.0 in
            match sp.name with
            | "engine.load" -> add "load" ms
            | "alm.mine" -> add "alm_mine" ms
            | "codec.train" -> add ("train_" ^ alg ()) ms
            | "cost_model.price" -> add ("price_" ^ alg ()) ms
            | "container.encode" -> add "encode" ms
            | _ -> ())
          (Xquec_obs.Trace.spans ()))
      docs;
    Xquec_obs.Trace.clear ();
    let per_doc key =
      Option.value ~default:0.0 (Hashtbl.find_opt totals key) /. float_of_int (List.length docs)
    in
    per_doc
  in
  let (_warm_up : string -> float) = round () in
  let best =
    List.fold_left
      (fun best r -> if r "load" < best "load" then r else best)
      (round ())
      [ round (); round () ]
  in
  let rows =
    [
      ("load_ms", "Engine.load (parse, build, search, apply)", "load");
      ("alm_mine_ms", "ALM token mining", "alm_mine");
      ("train_alm_ms", "training: ALM (mining + model)", "train_alm");
      ("train_hu_tucker_ms", "training: Hu-Tucker", "train_hu-tucker");
      ("train_huffman_ms", "training: Huffman", "train_huffman");
      ("train_arith_ms", "training: arithmetic", "train_arith");
      ("train_numeric_ms", "training: numeric", "train_numeric");
      ("price_bzip_ms", "pricing under bzip (BWT, MTF, RLE, Huffman)", "price_bzip");
      ("price_alm_ms", "pricing under ALM", "price_alm");
      ("price_hu_tucker_ms", "pricing under Hu-Tucker", "price_hu-tucker");
      ("price_huffman_ms", "pricing under Huffman", "price_huffman");
      ("encode_ms", "container encoding (encode, sort, block)", "encode");
    ]
  in
  Fmt.pr "%-46s %10s@." "per document (XMark 0.25, seeds 42-49, Q1-Q20)" "ms";
  rule ();
  List.iter
    (fun (key, label, span) ->
      let ms = best span in
      Fmt.pr "%-46s %10.2f@." label ms;
      record ~exp:"ingest_codecs" key (num ms))
    rows

(* ------------------------------------------------------------------ *)
(* Buffer pool: cold vs. warm cache, and the block-size sweep           *)
(* ------------------------------------------------------------------ *)

(* Cold run: pool cleared, every touched block decodes. Warm run: the
   same query again, the working set resident. The gap is what the
   buffer pool buys on repeated / overlapping queries; decoded bytes per
   run show the demand-paging effect of header pruning. *)
let cache () =
  header "Buffer pool: cold vs. warm cache";
  let engine = Lazy.force xmark_engine in
  let queries =
    [
      ("selective_eq", "document(\"auction.xml\")/site/people/person[@id = \"person100\"]/name");
      ("range", "document(\"auction.xml\")/site/open_auctions/open_auction[initial > 200]/reserve");
      ("join_q8",
       "for $p in document(\"auction.xml\")/site/people/person let $a := \
        for $t in document(\"auction.xml\")/site/closed_auctions/closed_auction where \
        $t/buyer/@person = $p/@id return $t return <item person=\"{$p/name/text()}\">{count($a)}</item>");
    ]
  in
  Fmt.pr "%-14s %11s %11s %8s %14s %14s@." "query" "cold(ms)" "warm(ms)" "speedup"
    "cold dec(B)" "warm dec(B)";
  rule ();
  List.iter
    (fun (name, q) ->
      let run () = ignore (Xquec_core.Engine.query_serialized engine q) in
      Storage.Buffer_pool.clear ();
      let s0 = Storage.Buffer_pool.snapshot () in
      let (_, cold_ms) = time run in
      let s1 = Storage.Buffer_pool.snapshot () in
      let warm_ms = time_median ~runs:5 run in
      let s2 = Storage.Buffer_pool.snapshot () in
      let cold_dec = s1.Storage.Buffer_pool.s_decoded_bytes - s0.Storage.Buffer_pool.s_decoded_bytes in
      (* per warm run: 1 warmup + 5 timed runs happened since s1 *)
      let warm_dec = (s2.Storage.Buffer_pool.s_decoded_bytes - s1.Storage.Buffer_pool.s_decoded_bytes) / 6 in
      let speedup = if warm_ms > 0.0 then cold_ms /. warm_ms else 0.0 in
      record ~exp:"cache" "query"
        (obj
           [
             ("name", str name);
             ("cold_ms", num cold_ms);
             ("warm_ms", num warm_ms);
             ("speedup", num speedup);
             ("cold_decoded_bytes", num (float_of_int cold_dec));
             ("warm_decoded_bytes_per_run", num (float_of_int warm_dec));
           ]);
      Fmt.pr "%-14s %11.2f %11.2f %7.1fx %14d %14d@." name cold_ms warm_ms speedup cold_dec
        warm_dec)
    queries;
  (* Block-size sweep: rebuild the repository at several block budgets
     and watch the storage / selectivity trade-off — smaller blocks prune
     more precisely but pay more per-block overhead. *)
  header "Block-size sweep (selective equality query, cold cache)";
  let xml = Lazy.force xmark_doc in
  let saved = Storage.Container.default_block_size () in
  Fmt.pr "%-12s %14s %12s %14s %10s@." "block(B)" "containers(B)" "blocks" "cold dec(B)"
    "cold(ms)";
  rule ();
  List.iter
    (fun bs ->
      Storage.Container.set_default_block_size bs;
      let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
      let sz = Storage.Repository.size_breakdown repo in
      let nblocks =
        Array.fold_left (fun a c -> a + Storage.Container.block_count c) 0
          repo.Storage.Repository.containers
      in
      Storage.Buffer_pool.clear ();
      let s0 = Storage.Buffer_pool.snapshot () in
      let (_, cold_ms) =
        time (fun () ->
            ignore
              (Xquec_core.Executor.run repo
                 (Xquery.Parser.parse
                    "document(\"auction.xml\")/site/people/person[@id = \"person100\"]/name")))
      in
      let s1 = Storage.Buffer_pool.snapshot () in
      let dec = s1.Storage.Buffer_pool.s_decoded_bytes - s0.Storage.Buffer_pool.s_decoded_bytes in
      record ~exp:"cache" "block_size"
        (obj
           [
             ("bytes", num (float_of_int bs));
             ("containers_bytes", num (float_of_int sz.Storage.Repository.containers_bytes));
             ("blocks", num (float_of_int nblocks));
             ("cold_decoded_bytes", num (float_of_int dec));
             ("cold_ms", num cold_ms);
           ]);
      Fmt.pr "%-12d %14d %12d %14d %10.2f@." bs sz.Storage.Repository.containers_bytes nblocks
        dec cold_ms)
    [ 1024; 4096; 16384; 65536 ];
  Storage.Container.set_default_block_size saved;
  (* Scan resistance: a full container scan (Tail admission) must not
     evict a warmed working set. Warm the selective query's blocks under
     a tight budget, scan the largest container, then re-run the
     selective query — a scan-resistant pool re-runs it without new
     misses. *)
  header "Scan resistance (tight budget, full scan between warm runs)";
  let repo = Xquec_core.Engine.repo engine in
  let biggest =
    Array.fold_left
      (fun acc (c : Storage.Container.t) ->
        if Storage.Container.block_count c > Storage.Container.block_count acc then c else acc)
      repo.Storage.Repository.containers.(0) repo.Storage.Repository.containers
  in
  let selective = "document(\"auction.xml\")/site/people/person[@id = \"person100\"]/name" in
  let budget = 256 * 1024 in
  let saved_budget = Storage.Buffer_pool.budget_bytes () in
  Fun.protect ~finally:(fun () -> Storage.Buffer_pool.set_budget ~bytes:saved_budget)
  @@ fun () ->
  Storage.Buffer_pool.set_budget ~bytes:budget;
  Storage.Buffer_pool.clear ();
  ignore (Xquec_core.Engine.query_serialized engine selective);
  ignore (Xquec_core.Engine.query_serialized engine selective) (* fully warm *);
  let s0 = Storage.Buffer_pool.snapshot () in
  ignore (Storage.Container.scan biggest);
  let s1 = Storage.Buffer_pool.snapshot () in
  ignore (Xquec_core.Engine.query_serialized engine selective);
  let s2 = Storage.Buffer_pool.snapshot () in
  let scan_inserts = s1.Storage.Buffer_pool.s_scan_inserts - s0.Storage.Buffer_pool.s_scan_inserts in
  let hot_misses_after_scan = s2.Storage.Buffer_pool.s_misses - s1.Storage.Buffer_pool.s_misses in
  let within_budget = if s2.Storage.Buffer_pool.s_resident_bytes <= budget then 1.0 else 0.0 in
  record ~exp:"cache" "scan_resistance"
    (obj
       [
         ("budget_bytes", num (float_of_int budget));
         ("scan_blocks", num (float_of_int (Storage.Container.block_count biggest)));
         ("scan_inserts", num (float_of_int scan_inserts));
         ("hot_misses_after_scan", num (float_of_int hot_misses_after_scan));
         ("resident_within_budget", num within_budget);
       ]);
  Fmt.pr
    "budget %d B: scan of %s (%d blocks) tail-admitted %d blocks; selective re-run after \
     scan: %d misses (scan-resistant = 0); resident %d B %s budget@."
    budget biggest.Storage.Container.path
    (Storage.Container.block_count biggest)
    scan_inserts hot_misses_after_scan s2.Storage.Buffer_pool.s_resident_bytes
    (if within_budget = 1.0 then "within" else "OVER")

(* ------------------------------------------------------------------ *)
(* Block-skipping compressed-domain join                                *)
(* ------------------------------------------------------------------ *)

let join_fracs = [ 0.01; 0.1; 0.5; 1.0 ]

(* Header-driven block merge join vs the hash join, at controlled join
   selectivity: one side holds [items] sorted keys, the other [lookups]
   references drawn (deterministic LCG) from the first [frac] of the
   key space. With small (2 KiB) blocks the item side spans enough
   blocks for header pruning to bite: as [frac] shrinks, more item
   blocks fall outside the lookup side's bound intervals and are
   skipped without ever being decoded. Every point digest-checks the
   block-join answer against the hash join's, and the probe/skip
   counters recorded here are what the quick gate pins. XMark Q8
   (person/@id = buyer/@person) is replayed the same way as the
   realistic-document case. *)
let join () =
  header "Block-skipping join: header pruning vs selectivity";
  let mk_doc ~items ~lookups ~frac =
    let buf = Buffer.create (items * 32) in
    Buffer.add_string buf "<db><items>";
    for i = 0 to items - 1 do
      Buffer.add_string buf (Printf.sprintf "<item><key>k%05d</key></item>" i)
    done;
    Buffer.add_string buf "</items><lookups>";
    let range = max 1 (int_of_float (frac *. float_of_int items)) in
    let st = ref 12345 in
    for _ = 0 to lookups - 1 do
      st := (!st * 1103515245 + 12345) land 0x3FFFFFFF;
      Buffer.add_string buf (Printf.sprintf "<lookup><ref>k%05d</ref></lookup>" (!st mod range))
    done;
    Buffer.add_string buf "</lookups></db>";
    Buffer.contents buf
  in
  let q =
    "for $l in doc('join.xml')/db/lookups/lookup for $i in doc('join.xml')/db/items/item \
     where $i/key = $l/ref return $i/key"
  in
  let saved_bs = Storage.Container.default_block_size () in
  Fun.protect
    ~finally:(fun () ->
      Storage.Container.set_default_block_size saved_bs;
      Xquec_core.Executor.set_block_join true)
  @@ fun () ->
  Storage.Container.set_default_block_size 2048;
  Fmt.pr "%-8s %9s %9s %10s %12s %6s %10s %10s@." "frac" "probed" "skipped" "skip%"
    "pruned(B)" "equal" "hash(ms)" "block(ms)";
  rule ();
  List.iter
    (fun frac ->
      let xml = mk_doc ~items:4000 ~lookups:40 ~frac in
      let eng = Xquec_core.Engine.load ~name:"join.xml" ~workload:[ q ] xml in
      Xquec_core.Executor.set_block_join false;
      let hash_out = ref "" in
      let hash_ms =
        time_median (fun () -> hash_out := Xquec_core.Engine.query_serialized eng q)
      in
      Xquec_core.Executor.set_block_join true;
      Xquec_core.Executor.reset_join_stats ();
      let block_out = ref (Xquec_core.Engine.query_serialized eng q) in
      let s = Xquec_core.Executor.join_stats () in
      let block_ms =
        time_median (fun () -> block_out := Xquec_core.Engine.query_serialized eng q)
      in
      let equal = String.equal !hash_out !block_out in
      let total = s.Xquec_core.Executor.j_blocks_probed + s.Xquec_core.Executor.j_blocks_skipped in
      let skip_ratio =
        if total = 0 then 0.0
        else float_of_int s.Xquec_core.Executor.j_blocks_skipped /. float_of_int total
      in
      record ~exp:"join" "frac"
        (obj
           [
             ("frac", num frac);
             ("block_joins", num (float_of_int s.Xquec_core.Executor.j_block_joins));
             ("blocks_probed", num (float_of_int s.Xquec_core.Executor.j_blocks_probed));
             ("blocks_skipped", num (float_of_int s.Xquec_core.Executor.j_blocks_skipped));
             ("skipped_bytes", num (float_of_int s.Xquec_core.Executor.j_skipped_bytes));
             ("skip_ratio", num skip_ratio);
             ("digest_equal", str (if equal then "yes" else "NO"));
             ("hash_ms", num hash_ms);
             ("block_ms", num block_ms);
           ]);
      Fmt.pr "%-8.2f %9d %9d %9.0f%% %12d %6s %10.2f %10.2f@." frac
        s.Xquec_core.Executor.j_blocks_probed s.Xquec_core.Executor.j_blocks_skipped
        (100.0 *. skip_ratio) s.Xquec_core.Executor.j_skipped_bytes
        (if equal then "yes" else "NO") hash_ms block_ms;
      if not equal then failwith "block join changed the answer")
    join_fracs;
  (* realistic document: the Q8 join condition as a plain two-For join
     (Q8 itself is a correlated LET and takes the decorrelation path)
     on the shared engine — its containers share source models because
     it is loaded with the full query workload *)
  Storage.Container.set_default_block_size saved_bs;
  let engine = Lazy.force xmark_engine in
  let q8 =
    "for $a in document(\"auction.xml\")/site/closed_auctions/closed_auction for $p in \
     document(\"auction.xml\")/site/people/person where $p/@id = $a/buyer/@person return \
     $p/name"
  in
  Xquec_core.Executor.set_block_join false;
  let hash_out = ref "" in
  let hash_ms = time_median (fun () -> hash_out := Xquec_core.Engine.query_serialized engine q8) in
  Xquec_core.Executor.set_block_join true;
  Xquec_core.Executor.reset_join_stats ();
  let block_out = ref (Xquec_core.Engine.query_serialized engine q8) in
  let s = Xquec_core.Executor.join_stats () in
  let block_ms =
    time_median (fun () -> block_out := Xquec_core.Engine.query_serialized engine q8)
  in
  let equal = String.equal !hash_out !block_out in
  record ~exp:"join" "xmark_q8"
    (obj
       [
         ("block_joins", num (float_of_int s.Xquec_core.Executor.j_block_joins));
         ("blocks_probed", num (float_of_int s.Xquec_core.Executor.j_blocks_probed));
         ("blocks_skipped", num (float_of_int s.Xquec_core.Executor.j_blocks_skipped));
         ("digest_equal", str (if equal then "yes" else "NO"));
         ("hash_ms", num hash_ms);
         ("block_ms", num block_ms);
       ]);
  Fmt.pr
    "XMark Q8-join: %d block joins, %d probed / %d skipped; equal=%s; hash %.1f ms, block %.1f \
     ms@."
    s.Xquec_core.Executor.j_block_joins s.Xquec_core.Executor.j_blocks_probed
    s.Xquec_core.Executor.j_blocks_skipped
    (if equal then "yes" else "NO")
    hash_ms block_ms;
  if not equal then failwith "block join changed the XMark Q8 answer";
  (* XMark Q9 verbatim: its decorrelated inner FLWOR (closed auctions x
     European items) goes through the same join planner as any FLWOR,
     so the inner join runs as a block merge join. The comparison
     counts pin that the inner join stays linear in its input and never
     falls back to the nested-loop cross product. *)
  let text = (Xmark.Queries.by_id "Q9").Xmark.Queries.text in
  let run_q9 () =
    let r =
      Xquec_core.Engine.request engine (Xquec_core.Engine.plain text)
    in
    (r.out, Xquec_obs.Explain.totals r.explain)
  in
  Xquec_core.Executor.set_block_join false;
  let hash_out, _ = run_q9 () in
  Xquec_core.Executor.set_block_join true;
  Xquec_core.Executor.reset_join_stats ();
  let block_out, cmps = run_q9 () in
  let s = Xquec_core.Executor.join_stats () in
  let equal = String.equal hash_out block_out in
  record ~exp:"join" "xmark_q9"
    (obj
       [
         ("block_joins", num (float_of_int s.Xquec_core.Executor.j_block_joins));
         ("blocks_probed", num (float_of_int s.Xquec_core.Executor.j_blocks_probed));
         ("cmp_compressed_count", num (float_of_int cmps.Xquec_obs.Explain.compressed));
         ("cmp_decompressed_count", num (float_of_int cmps.Xquec_obs.Explain.decompressed));
         ("digest_equal", str (if equal then "yes" else "NO"));
       ]);
  Fmt.pr "XMark Q9: %d block joins, %d probed; %d compressed / %d decompressed cmps; equal=%s@."
    s.Xquec_core.Executor.j_block_joins s.Xquec_core.Executor.j_blocks_probed
    cmps.Xquec_obs.Explain.compressed cmps.Xquec_obs.Explain.decompressed
    (if equal then "yes" else "NO");
  if not equal then failwith "block join changed the XMark Q9 answer"

(* ------------------------------------------------------------------ *)
(* Workload observatory: heat overhead + drift                         *)
(* ------------------------------------------------------------------ *)

(* Two claims gated here: (1) the always-on heat accounting costs <= 2%
   wall time on the standard XMark chart mix (A/B via
   Ledger.set_containers_enabled, interleaved min-of-reps so both arms
   see the same machine state);
   (2) the drift score separates workloads — identical mixes score ~0,
   a shifted mix scores strictly higher. Both drift values come from
   deterministic record counts, so they are stable across runs. *)
let heat () =
  header "Workload observatory: heat overhead and drift score";
  let engine = Lazy.force xmark_engine in
  let queries =
    List.map (fun id -> (Xmark.Queries.by_id id).Xmark.Queries.text) Xmark.Queries.fig7_ids
  in
  let run_mix () =
    List.iter (fun q -> ignore (Xquec_core.Engine.query_serialized engine q)) queries
  in
  (* Finely interleaved best-of: single mixes timed on/off/on/off...,
     minimum per side. This VM's dominant noise is CPU-steal windows of
     up to a few seconds that contaminate whole stretches of
     measurements — at single-mix (~100 ms) granularity any clean
     stretch contains samples of BOTH sides, so both minima land in
     clean windows and their difference isolates the instrumentation
     cost. Coarser schemes (best-of-long-reps, paired rep deltas) were
     tried first and still swung by several ms run-to-run. One heap
     flush up front; a major slice landing mid-sample just makes that
     sample an outlier the minimum discards. *)
  run_mix ();
  let samples = 25 in
  let best_on = ref infinity and best_off = ref infinity in
  let measure enabled best =
    Xquec_obs.Ledger.set_containers_enabled enabled;
    let t = snd (time run_mix) in
    if t < !best then best := t
  in
  Gc.full_major ();
  for _ = 1 to samples do
    measure true best_on;
    measure false best_off
  done;
  Xquec_obs.Ledger.set_containers_enabled true;
  let overhead_ms = !best_on -. !best_off in
  (* 2% relative with a 1 ms absolute noise floor *)
  let overhead_ok = overhead_ms <= Float.max (0.02 *. !best_off) 1.0 in
  Fmt.pr "instrumentation: mix off %.1f ms, on %.1f ms (Δ %+.2f ms) → %s@." !best_off
    !best_on overhead_ms
    (if overhead_ok then "within 2%" else "OVER BUDGET");
  (* drift: same mix twice vs. a shifted mix, through the real query
     log (the files a production profile run would read) *)
  let mix_a =
    [
      "for $p in document(\"auction.xml\")/site/people/person where $p/profile/@income > \
       \"80000\" return $p/name";
      "for $i in document(\"auction.xml\")/site/regions/europe/item where $i/location = \
       \"United States\" return $i/name";
    ]
  in
  let mix_b =
    [
      "for $o in document(\"auction.xml\")/site/open_auctions/open_auction where $o/reserve > \
       \"100\" return $o/reserve";
      "for $a in document(\"auction.xml\")/site/closed_auctions/closed_auction for $p in \
       document(\"auction.xml\")/site/people/person where $p/@id = $a/buyer/@person return \
       $p/name";
    ]
  in
  let log_mix mix =
    let path = Filename.temp_file "xquec_heat_" ".jsonl" in
    Xquec_obs.Query_log.set_path (Some path);
    List.iter (fun q -> ignore (logged_request engine q)) mix;
    Xquec_obs.Query_log.set_path None;
    let fp = Xquec_obs.Profile.of_records (Xquec_obs.Profile.load_jsonl path) in
    Sys.remove path;
    fp
  in
  let fp_a1 = log_mix mix_a in
  let fp_a2 = log_mix mix_a in
  let fp_b = log_mix mix_b in
  let drift_identical = Xquec_obs.Profile.drift fp_a1 fp_a2 in
  let drift_shifted = Xquec_obs.Profile.drift fp_a1 fp_b in
  Fmt.pr "drift: identical mixes %.4f, shifted mix %.4f@." drift_identical drift_shifted;
  record ~exp:"heat" "overhead"
    (obj
       [
         ("off_ms", num !best_off);
         ("on_ms", num !best_on);
         ("overhead_ms", num overhead_ms);
         ("overhead_ok", str (if overhead_ok then "yes" else "no"));
       ]);
  record ~exp:"heat" "drift"
    (obj
       [
         ("identical", num drift_identical);
         ("shifted", num drift_shifted);
         ("separates", str (if drift_shifted > drift_identical then "yes" else "no"));
       ]);
  if drift_shifted <= drift_identical then
    failwith "drift score failed to separate a shifted workload from an identical one"

(* ------------------------------------------------------------------ *)
(* Concurrent serving                                                  *)
(* ------------------------------------------------------------------ *)

(* The serving claims gated here: (1) >= 100 concurrent clients are all
   served (nothing shed below the admission gate, every reply a 200);
   (2) the bytes each client receives are digest-identical to
   sequential evaluation of the same schedule — concurrency changes
   latency, never answers; (3) a repeated-query workload runs > 90%
   plan-cache hits. Latency percentiles come from the server's own
   rolling SLO window scraped over /metrics, so the bench exercises the
   same series an operator would alert on (timings are full-gate-only;
   the quick gate pins the counts, digests and hit rate). *)
let serve () =
  header "Concurrent serving: worker fan-out, admission, plan cache";
  let engine = Lazy.force xmark_engine in
  let module Expo = Xquec_obs.Expo in
  let module Hammer = Xquec_obs.Hammer in
  let module Plan_cache = Xquec_core.Plan_cache in
  (* the repeated-query mix: a few cheap point lookups and one scan-ish
     query, cycled by every client *)
  let queries =
    [|
      "document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name";
      "document(\"auction.xml\")/site/people/person[@id = \"person1\"]/name";
      "document(\"auction.xml\")/site/people/person[@id = \"person2\"]/name";
      "document(\"auction.xml\")/site/people/person[@id = \"person3\"]/name";
      "for $p in document(\"auction.xml\")/site/people/person where $p/profile/@income > \
       \"80000\" return $p/name";
      "document(\"auction.xml\")/site/regions/europe/item/name";
      "for $o in document(\"auction.xml\")/site/open_auctions/open_auction where \
       $o/reserve > \"100\" return $o/reserve";
      "document(\"auction.xml\")/site/people/person[@id = \"person4\"]/emailaddress";
    |]
  in
  let clients = 100 and per_client = 3 in
  let pick client seq = queries.((client + (seq * 7)) mod Array.length queries) in
  (* sequential reference, evaluated before any serving state exists *)
  let expected = Array.map (fun q -> Xquec_core.Engine.query_serialized engine q ^ "\n") queries in
  let expected_digest =
    let buf = Buffer.create 4096 in
    for client = 0 to clients - 1 do
      for seq = 0 to per_client - 1 do
        Buffer.add_string buf expected.((client + (seq * 7)) mod Array.length queries)
      done
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  Plan_cache.set_capacity 64;
  Plan_cache.clear ();
  Plan_cache.reset_stats ();
  (* metrics on, as under `xquec serve` — the SLO and admission figures
     the experiment scrapes are published through the registry *)
  let was_enabled = Xquec_obs.is_enabled () in
  Xquec_obs.set_enabled true;
  let server =
    Xquec_core.Serve.start { serve_config with workers = 4; max_inflight = 512 } engine
  in
  let port = Xquec_core.Serve.port server in
  Fun.protect ~finally:(fun () ->
      Xquec_core.Serve.stop server;
      Plan_cache.set_capacity 0;
      Xquec_obs.set_enabled was_enabled)
  @@ fun () ->
  (* deterministic warm-up: one sequential pass compiles each distinct
     query exactly once (8 misses), so the concurrent phase is the
     steady state a long-running server sees — and the hit/miss split
     stays exact under any interleaving *)
  Array.iter
    (fun q ->
      let r = Hammer.request ~port ~meth:"POST" ~body:q "/query" in
      if r.Hammer.r_status <> 200 then
        failwith (Fmt.str "warmup query failed: HTTP %d" r.Hammer.r_status))
    queries;
  let outcomes, elapsed_ms =
    time (fun () ->
        Hammer.drive ~port ~clients ~requests_per_client:per_client
          ~target:(fun client seq -> ("POST", "/query", pick client seq))
          ())
  in
  let metrics_text = (Hammer.request ~port "/metrics").Hammer.r_body in
  let gauge name =
    (* first "<name> <value>" line of the exposition *)
    let rec find = function
      | [] -> nan
      | line :: rest ->
        let pfx = name ^ " " in
        if String.length line > String.length pfx
           && String.sub line 0 (String.length pfx) = pfx
        then
          float_of_string
            (String.sub line (String.length pfx) (String.length line - String.length pfx))
        else find rest
    in
    find (String.split_on_char '\n' metrics_text)
  in
  let p95 = gauge "xquec_serve_window_p95_ms" in
  let p99 = gauge "xquec_serve_window_p99_ms" in
  let n_ok =
    List.length (List.filter (fun o -> o.Hammer.o_reply.Hammer.r_status = 200) outcomes)
  in
  let got_digest =
    let buf = Buffer.create 4096 in
    List.iter (fun o -> Buffer.add_string buf o.Hammer.o_reply.Hammer.r_body) outcomes;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let identical = got_digest = expected_digest in
  let pc = Plan_cache.snapshot () in
  let hit_rate =
    let total = pc.Plan_cache.s_hits + pc.Plan_cache.s_misses in
    if total = 0 then 0.0 else float_of_int pc.Plan_cache.s_hits /. float_of_int total
  in
  let rejected = gauge "xquec_serve_admission_rejected" in
  Fmt.pr
    "%d clients x %d requests: %d ok, %.0f rejected (high-water %.0f) in %.0f ms; p95 %.1f \
     ms, p99 %.1f ms@."
    clients per_client n_ok rejected (gauge "xquec_serve_admission_inflight_high_water")
    elapsed_ms p95 p99;
  Fmt.pr "plan cache: %d hits / %d misses / %d evictions (hit rate %.3f); digests %s@."
    pc.Plan_cache.s_hits pc.Plan_cache.s_misses pc.Plan_cache.s_evictions hit_rate
    (if identical then "identical" else "DIFFER");
  record ~exp:"serve" "load"
    (obj
       [
         ("clients", num (float_of_int clients));
         ("requests", num (float_of_int (clients * per_client)));
         ("ok", num (float_of_int n_ok));
         ("rejected", num rejected);
         ("elapsed_ms", num elapsed_ms);
         ("p95_ms", num p95);
         ("p99_ms", num p99);
       ]);
  record ~exp:"serve" "plan_cache"
    (obj
       [
         ("hits", num (float_of_int pc.Plan_cache.s_hits));
         ("misses", num (float_of_int pc.Plan_cache.s_misses));
         ("evictions", num (float_of_int pc.Plan_cache.s_evictions));
         ("hit_rate", num hit_rate);
       ]);
  record ~exp:"serve" "results"
    (obj
       [
         ("digest", str got_digest);
         ("identical", str (if identical then "yes" else "NO"));
       ]);
  if n_ok <> clients * per_client then
    failwith (Fmt.str "serve: %d of %d requests failed" (clients * per_client - n_ok)
                (clients * per_client));
  if not identical then failwith "serve: concurrent results differ from sequential";
  if hit_rate <= 0.9 then failwith (Fmt.str "serve: plan-cache hit rate %.3f <= 0.9" hit_rate)

(* ------------------------------------------------------------------ *)
(* Drift watchdog: streaming overhead + deterministic alerting         *)
(* ------------------------------------------------------------------ *)

(* Three claims gated here: (1) the watchdog's per-query fan-in (one
   windowed aggregation of the query's ledger) costs <= 2% wall time on
   the serve path — A/B of the same mix with and without a watchdog on
   its requests, with the same finely interleaved best-of scheme as the
   heat experiment; (2) a server streaming the declared mix against its
   own fingerprint scores drift ~0 — fingerprint weights depend only on
   the deterministic predicate observations, not on caching, so the
   score is exactly reproducible; (3) a server streaming a shifted mix
   trips the drift_sustained rule after exactly its sustain count of
   watchdog ticks. *)
let watch () =
  header "Drift watchdog: fan-in overhead, drift score, alert firing";
  let engine = Lazy.force xmark_engine in
  let module Watch = Xquec_obs.Watch in
  let module Alert = Xquec_obs.Alert in
  let module Serve = Xquec_core.Serve in
  let was_enabled = Xquec_obs.is_enabled () in
  Xquec_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Xquec_obs.set_enabled was_enabled) @@ fun () ->
  (* --- overhead: serve-path queries with the fan-in on vs off ------- *)
  let queries =
    List.map (fun id -> (Xmark.Queries.by_id id).Xmark.Queries.text) Xmark.Queries.fig7_ids
  in
  (* one huge window: every observation of the run stays live *)
  let w = Watch.create ~window_seconds:3600.0 ~baseline:None in
  let run_mix watch () = List.iter (fun q -> ignore (logged_request ?watch engine q)) queries in
  run_mix (Some w) ();
  let samples = 25 in
  let best_on = ref infinity and best_off = ref infinity in
  let measure watch best =
    let t = snd (time (run_mix watch)) in
    if t < !best then best := t
  in
  Gc.full_major ();
  for _ = 1 to samples do
    measure (Some w) best_on;
    measure None best_off
  done;
  let overhead_ms = !best_on -. !best_off in
  let overhead_ok = overhead_ms <= Float.max (0.02 *. !best_off) 1.0 in
  Fmt.pr "fan-in: mix off %.1f ms, on %.1f ms (Δ %+.2f ms) → %s@." !best_off !best_on
    overhead_ms
    (if overhead_ok then "within 2%" else "OVER BUDGET");
  (* --- drift ~0 on the declared mix --------------------------------- *)
  let mix_declared =
    [
      "for $p in document(\"auction.xml\")/site/people/person where $p/profile/@income > \
       \"80000\" return $p/name";
      "for $i in document(\"auction.xml\")/site/regions/europe/item where $i/location = \
       \"United States\" return $i/name";
    ]
  in
  let mix_shifted =
    [
      "for $o in document(\"auction.xml\")/site/open_auctions/open_auction where $o/reserve > \
       \"100\" return $o/reserve";
      "for $a in document(\"auction.xml\")/site/closed_auctions/closed_auction for $p in \
       document(\"auction.xml\")/site/people/person where $p/@id = $a/buyer/@person return \
       $p/name";
    ]
  in
  (* each phase is a fresh server declared for [mix_declared] that
     serves [mix]; its ticks never come from a ticker (one-hour
     window) *)
  let baseline = Xquec_core.Engine.declared_fingerprint engine mix_declared in
  let serving mix f =
    let server =
      Serve.start { serve_config with watch_window = 3600.0; baseline = Some baseline } engine
    in
    Fun.protect ~finally:(fun () -> Serve.stop server) @@ fun () ->
    List.iter (fun q -> ignore (Serve.run_query server q)) mix;
    f server
  in
  let st, trs = serving mix_declared Serve.watch_tick in
  let drift_declared =
    match st.Watch.w_drift with Some d -> d | None -> failwith "watch: no drift on declared mix"
  in
  let declared_fired =
    List.exists (fun (t : Alert.transition) -> t.Alert.t_rule = "drift_sustained") trs
  in
  (* --- deterministic fire on the shifted mix ------------------------ *)
  let drift_shifted = ref nan and fired_at = ref 0 in
  let sustain = 3 in
  serving mix_shifted (fun server ->
      for i = 1 to sustain do
        let st, trs = Serve.watch_tick server in
        (match st.Watch.w_drift with Some d -> drift_shifted := d | None -> ());
        if
          !fired_at = 0
          && List.exists
               (fun (t : Alert.transition) ->
                 t.Alert.t_rule = "drift_sustained" && t.Alert.t_event = "fired")
               trs
        then fired_at := i
      done);
  let fired = !fired_at = sustain in
  Fmt.pr "drift: declared mix %.4f, shifted mix %.4f; drift_sustained %s@." drift_declared
    !drift_shifted
    (if fired then Fmt.str "fired at tick %d" !fired_at else "DID NOT FIRE");
  record ~exp:"watch" "overhead"
    (obj
       [
         ("off_ms", num !best_off);
         ("on_ms", num !best_on);
         ("overhead_ms", num overhead_ms);
         ("overhead_ok", str (if overhead_ok then "yes" else "no"));
       ]);
  record ~exp:"watch" "drift"
    (obj
       [
         ("declared", num drift_declared);
         ("shifted", num !drift_shifted);
         ("separates", str (if !drift_shifted > drift_declared +. 0.3 then "yes" else "no"));
       ]);
  record ~exp:"watch" "alert"
    (obj
       [
         ("fired", str (if fired then "yes" else "no"));
         ("fired_at_tick", num (float_of_int !fired_at));
         ("declared_mix_fired", str (if declared_fired then "YES" else "no"));
       ]);
  if drift_declared > 0.01 then
    failwith (Fmt.str "watch: declared mix drifted %.4f > 0.01" drift_declared);
  if declared_fired then failwith "watch: drift_sustained fired on the declared mix";
  if not fired then
    failwith
      (Fmt.str "watch: drift_sustained did not fire after %d sustained windows (drift %.4f)"
         sustain !drift_shifted)

(* ------------------------------------------------------------------ *)
(* Adaptive blocks: online re-compaction                               *)
(* ------------------------------------------------------------------ *)

(* Claims gated here: (1) when the workload shifts from scans to
   selective range lookups, re-blocking the hot text containers from
   scan-era 64 KiB blocks down to 1 KiB makes the shifted mix no
   slower cold (post <= pre, best-of minima) while header pruning cuts
   the decoded payload bytes at least in half; (2) answers are
   byte-identical across the mid-run copy-on-write swap, including for
   a query domain racing the compaction. Timings are full-gate-only; the quick gate pins the digests, block
   counts, payload bytes and the yes/no claims. *)
let compact () =
  header "Adaptive blocks: online compaction";
  let module Container = Storage.Container in
  let module Buffer_pool = Storage.Buffer_pool in
  let module Compactor = Storage.Compactor in
  (* private engine: this experiment re-blocks containers mid-run, so
     it must never touch the shared engine other experiments time *)
  let xml = Xmark.Xmlgen.generate ~scale:0.4 () in
  let engine = Xquec_core.Engine.load ~name:"auction.xml" xml in
  let repo = Xquec_core.Engine.repo engine in
  (* the hot containers of the scan era: the large text containers *)
  let targets =
    Array.to_list repo.Storage.Repository.containers
    |> List.filter (fun (c : Container.t) ->
           c.Container.plain_bytes >= 8000 && c.Container.n_records >= 16)
    |> List.sort (fun (a : Container.t) (b : Container.t) ->
           compare a.Container.path b.Container.path)
  in
  if targets = [] then failwith "compact: no large text containers at this scale";
  let ids = List.map (fun (c : Container.t) -> c.Container.id) targets in
  let target_bytes =
    List.fold_left (fun a (c : Container.t) -> a + c.Container.plain_bytes) 0 targets
  in
  (* the shifted mix: one selective range lookup per hot container *)
  let bounds = [| "b"; "c"; "ad"; "al"; "ba"; "bo" |] in
  let queries =
    List.mapi
      (fun i (c : Container.t) ->
        let p = c.Container.path in
        let elem_path =
          if Filename.check_suffix p "/#text" then String.sub p 0 (String.length p - 6)
          else p
        in
        Fmt.str "document(\"auction.xml\")%s[text() < \"%s\"]" elem_path
          bounds.(i mod Array.length bounds))
      targets
  in
  let run_mix () =
    String.concat "|" (List.map (fun q -> Xquec_core.Engine.query_serialized engine q) queries)
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let blocks_of_ids () =
    List.fold_left
      (fun a id -> a + Container.block_count repo.Storage.Repository.containers.(id))
      0 ids
  in
  let cold_payload_stats () =
    Buffer_pool.clear ();
    Buffer_pool.reset_stats ();
    ignore (run_mix ());
    Buffer_pool.snapshot ()
  in
  let time_mix_cold samples =
    Gc.full_major ();
    let best = ref infinity in
    for _ = 1 to samples do
      Buffer_pool.clear ();
      let t = snd (time (fun () -> ignore (run_mix ()))) in
      if t < !best then best := t
    done;
    !best
  in
  (* --- scan-era layout: 64 KiB blocks ------------------------------- *)
  let pre_results =
    Compactor.compact repo ~targets:(List.map (fun id -> (id, 65536)) ids)
  in
  let pre_blocks = blocks_of_ids () in
  let digest_pre = md5 (run_mix ()) in
  let pre = cold_payload_stats () in
  let samples = 15 in
  let pre_ms = time_mix_cold samples in
  (* --- the workload has shifted: re-block to 1 KiB mid-run, with a
     query domain racing the copy-on-write swap -------------------- *)
  let race_rounds = 8 in
  let racer =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        for _ = 1 to race_rounds do
          if md5 (run_mix ()) <> digest_pre then incr bad
        done;
        !bad)
  in
  let post_results =
    Compactor.compact repo ~targets:(List.map (fun id -> (id, 1024)) ids)
  in
  let race_bad = Domain.join racer in
  let post_blocks = blocks_of_ids () in
  let digest_post = md5 (run_mix ()) in
  let post = cold_payload_stats () in
  let post_ms = time_mix_cold samples in
  let k = Compactor.snapshot repo in
  let race_ok = race_bad = 0 in
  let digests_ok = digest_post = digest_pre in
  let decode_reduced = 2 * post.Buffer_pool.s_payload_bytes <= pre.Buffer_pool.s_payload_bytes in
  let post_le_pre = post_ms <= pre_ms in
  Fmt.pr "shifted mix over %d containers (%d KB of values):@." (List.length targets)
    (target_bytes / 1024);
  Fmt.pr "  64 KiB blocks: %3d blocks, %6d payload bytes decoded cold, best %.2f ms@."
    pre_blocks pre.Buffer_pool.s_payload_bytes pre_ms;
  Fmt.pr "  1 KiB blocks:  %3d blocks, %6d payload bytes decoded cold, best %.2f ms@."
    post_blocks post.Buffer_pool.s_payload_bytes post_ms;
  Fmt.pr "  digests %s, race %d/%d identical, post %s pre@."
    (if digests_ok then "identical" else "DIFFER")
    (race_rounds - race_bad) race_rounds
    (if post_le_pre then "<=" else "SLOWER THAN");
  record ~exp:"compact" "reblock"
    (obj
       [
         ("targets_count", num (float_of_int (List.length targets)));
         ("target_bytes", num (float_of_int target_bytes));
         ("pre_block_bytes", num 65536.0);
         ("post_block_bytes", num 1024.0);
         ("pre_blocks", num (float_of_int pre_blocks));
         ("post_blocks", num (float_of_int post_blocks));
         ("compactions_count", num (float_of_int k.Compactor.k_compactions));
       ]);
  record ~exp:"compact" "decode"
    (obj
       [
         ("pre_payload_bytes", num (float_of_int pre.Buffer_pool.s_payload_bytes));
         ("post_payload_bytes", num (float_of_int post.Buffer_pool.s_payload_bytes));
         ("post_skipped_bytes", num (float_of_int post.Buffer_pool.s_skipped_bytes));
         ("reduced", str (if decode_reduced then "yes" else "no"));
       ]);
  record ~exp:"compact" "timing"
    (obj
       [
         ("pre_ms", num pre_ms);
         ("post_ms", num post_ms);
         ("speedup", num (pre_ms /. post_ms));
         ("post_le_pre", str (if post_le_pre then "yes" else "no"));
       ]);
  record ~exp:"compact" "digest"
    (obj
       [
         ("mix", str digest_pre);
         ("identical", str (if digests_ok then "yes" else "no"));
         ("race_identical", str (if race_ok then "yes" else "no"));
       ]);
  ignore pre_results;
  ignore post_results;
  if not digests_ok then failwith "compact: query digest changed across re-blocking";
  if not race_ok then
    failwith
      (Fmt.str "compact: %d/%d racing queries saw a non-identical answer mid-swap" race_bad
         race_rounds);
  if not decode_reduced then
    failwith
      (Fmt.str "compact: small blocks did not halve decoded payload bytes (%d -> %d)"
         pre.Buffer_pool.s_payload_bytes post.Buffer_pool.s_payload_bytes);
  if not post_le_pre then
    failwith (Fmt.str "compact: shifted mix slower after compaction (%.2f ms -> %.2f ms)" pre_ms post_ms)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig6_left", fig6_left);
    ("fig6_right", fig6_right);
    ("fig7", fig7);
    ("q8_q9", q8_q9);
    ("storage_occupancy", storage_occupancy);
    ("partitioning_gain", partitioning_gain);
    ("ablations", ablations);
    ("homomorphic_scan", homomorphic_scan);
    ("codec_costs", codec_costs);
    ("ingest_codecs", ingest_codecs);
    ("cache", cache);
    ("join", join);
    ("heat", heat);
    ("serve", serve);
    ("watch", watch);
    ("compact", compact);
  ]

let () =
  let selected = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse_args rest
    | "--fig6-scales" :: v :: rest ->
      fig6_scales := List.map float_of_string (String.split_on_char ',' v);
      parse_args rest
    | "--json" :: v :: rest ->
      json_out := Some v;
      parse_args rest
    | "--no-json" :: rest ->
      json_out := None;
      parse_args rest
    | name :: rest ->
      if List.mem_assoc name experiments then selected := name :: !selected
      else begin
        Fmt.epr "unknown experiment %S; available: %s@." name
          (String.concat ", " (List.map fst experiments));
        exit 1
      end;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let to_run = match List.rev !selected with [] -> List.map fst experiments | l -> l in
  Fmt.pr "XQueC benchmark harness (XMark scale %.2g)@." !scale;
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      record ~exp:name "wall_s" (num (Unix.gettimeofday () -. t0)))
    to_run;
  (match !json_out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Xquec_obs.Json.to_string (results_json ()));
    output_char oc '\n';
    close_out oc;
    Fmt.pr "@.wrote %s@." path
  | None -> ());
  Fmt.pr "@.done.@."

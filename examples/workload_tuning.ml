(* Workload tuning: how the §3 cost model and greedy search choose
   compression configurations, on the paper's §3.3 example shape —
   textual containers under an inequality workload.

   Run with:  dune exec examples/workload_tuning.exe *)

open Xquec_core

let () =
  (* a corpus with three flavours of containers: prose sentences,
     person names, and dates (the §3.3 example) *)
  let rng = Xmark.Rng.of_int 99 in
  let sentence () =
    String.concat " "
      (List.init (8 + Xmark.Rng.int rng 10) (fun _ -> Xmark.Rng.pick rng Xmark.Wordpool.shakespeare))
  in
  let name () =
    Xmark.Rng.pick rng Xmark.Wordpool.first_names ^ " " ^ Xmark.Rng.pick rng Xmark.Wordpool.last_names
  in
  let date () =
    Printf.sprintf "2001-%02d-%02d" (1 + Xmark.Rng.int rng 12) (1 + Xmark.Rng.int rng 28)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<corpus>";
  for _ = 1 to 300 do
    Buffer.add_string buf (Printf.sprintf "<quote>%s</quote>" (sentence ()))
  done;
  for _ = 1 to 200 do
    Buffer.add_string buf (Printf.sprintf "<pname>%s</pname>" (name ()))
  done;
  for _ = 1 to 200 do
    Buffer.add_string buf (Printf.sprintf "<date>%s</date>" (date ()))
  done;
  Buffer.add_string buf "</corpus>";
  let xml = Buffer.contents buf in

  let workload =
    [
      "for $q in document(\"c.xml\")/corpus/quote where $q/text() >= \"king\" return $q";
      "for $p in document(\"c.xml\")/corpus/pname where $p/text() < \"Marta\" return $p";
      "for $d in document(\"c.xml\")/corpus/date where $d/text() >= \"2001-07-01\" return $d";
    ]
  in

  (* parse once; analysis and search read the parsed values, and the
     loader encodes each container once under the chosen configuration *)
  let parsed = Loader.parse ~name:"c.xml" xml in
  let w =
    Workload.analyze (Loader.dict parsed) (Loader.summary parsed)
      (List.map Xquery.Parser.parse workload)
  in
  Fmt.pr "extracted %d predicates from the workload:@." (List.length w.Workload.predicates);
  List.iter (fun p -> Fmt.pr "  %a@." Workload.pp_predicate p) w.Workload.predicates;

  let result = Partitioner.search (Loader.values parsed) w in
  let untuned = Loader.build parsed in
  let repo = Loader.build ~configuration:result.Partitioner.configuration parsed in
  Fmt.pr "@.greedy search: cost %.0f (all-bzip singletons) -> %.0f@."
    result.Partitioner.initial_cost result.Partitioner.final_cost;
  Fmt.pr "chosen configuration:@.";
  List.iter
    (fun (ids, alg) ->
      let paths =
        List.map (fun id -> (Storage.Repository.container repo id).Storage.Container.path) ids
      in
      Fmt.pr "  {%s} -> %s@." (String.concat ", " paths) (Compress.Codec.algorithm_name alg))
    result.Partitioner.configuration.Cost_model.sets;

  (* every move the greedy search evaluated *)
  Fmt.pr "@.moves (the paper's configuration moves, one per predicate):@.";
  List.iter
    (fun (m : Partitioner.move_trace) ->
      Fmt.pr "  %a: %.0f -> %.0f %s@." Workload.pp_predicate m.Partitioner.predicate
        m.Partitioner.cost_before m.Partitioner.cost_after
        (if m.Partitioner.accepted then "(accepted)" else "(kept previous)"))
    result.Partitioner.trace;

  (* the effect of the configuration on the repository *)
  let cf_before = Storage.Repository.compression_factor untuned in
  let cf_after = Storage.Repository.compression_factor repo in
  Fmt.pr "@.compression factor: %.1f%% (loader defaults) -> %.1f%% (tuned)@."
    (100.0 *. cf_before) (100.0 *. cf_after);

  (* and inequality predicates now run without decompression: the first
     workload query's selection, written as a path predicate, which the
     executor pushes into the container (a [where] clause is still
     evaluated tuple by tuple, on decompressed values) *)
  let q = "document(\"c.xml\")/corpus/quote[text() >= \"king\"]" in
  Fmt.pr "@.sample query result (inequality evaluated on compressed codes):@.";
  let results, plan = Executor.run_profiled repo (Xquery.Parser.parse q) in
  Fmt.pr "  %d quotes >= \"king\"@." (List.length results);

  (* EXPLAIN ANALYZE: the decisions the executor made and the plan it ran *)
  Fmt.pr "@.explain:@.%s@." (Xquec_obs.Explain.report plan)

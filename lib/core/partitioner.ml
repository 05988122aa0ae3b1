(* Greedy configuration search (§3.3).

   The search starts from singleton sets all assigned a generic
   algorithm (bzip) and separate source models. For each workload
   predicate (visited in a deterministic shuffled order), it proposes
   configuration moves:
   - same set: re-assign the set an algorithm that enables the predicate
     in the compressed domain;
   - different sets: either extract the two containers into a fresh
     shared set, or merge the two sets, again with an enabling
     algorithm.
   Each move is kept only if it lowers the §3.2 cost. Candidate
   algorithms are every codec supporting the predicate class (the
   measured cost picks among them; the paper's property-count rule is
   the tie-break). *)

type move_trace = {
  predicate : Workload.predicate;
  accepted : bool;
  cost_before : float;
  cost_after : float;
}

type result = {
  configuration : Cost_model.configuration;
  initial_cost : float;
  final_cost : float;
  trace : move_trace list;
}

let property_count alg =
  let p = Compress.Codec.properties alg in
  (if p.Compress.Codec.eq then 1 else 0)
  + (if p.Compress.Codec.ineq then 1 else 0)
  + if p.Compress.Codec.wild then 1 else 0

(* Candidate algorithms that run [cls] in the compressed domain, best
   property count first (the paper's preference), cheapest d_c next. *)
let candidates_for (cls : Workload.pred_class) : Compress.Codec.algorithm list =
  Compress.Codec.all_algorithms
  |> List.filter (fun a -> Compress.Codec.supports a cls)
  |> List.sort (fun a b ->
         let c = compare (property_count b) (property_count a) in
         if c <> 0 then c
         else compare (Compress.Codec.decompression_cost a) (Compress.Codec.decompression_cost b))

(* Deterministic shuffle (the paper extracts predicates randomly; a seeded
   shuffle keeps runs reproducible). *)
let shuffle ~seed (l : 'a list) : 'a list =
  let arr = Array.of_list l in
  let state = ref (seed * 2654435761 + 1) in
  let next bound =
    state := (!state * 1103515245) + 12345;
    (!state lsr 16) mod bound
  in
  for i = Array.length arr - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Sets are compared structurally: a partition never holds two sets with
   the same container ids. *)
let replace_set config ~old_sets ~new_sets : Cost_model.configuration =
  {
    Cost_model.sets =
      List.filter (fun s -> not (List.mem s old_sets)) config.Cost_model.sets @ new_sets;
  }

(** Run the greedy search over a document's plain values; {!Loader.build}
    applies the chosen configuration. *)
let search ?(seed = 17) ?(weights = Cost_model.default_weights) values (workload : Workload.t) :
    result =
  Xquec_obs.Trace.with_span ~name:"partitioner.search"
    ~attrs:
      [ ("predicates", string_of_int (List.length workload.Workload.predicates)) ]
  @@ fun () ->
  Xquec_obs.Metrics.time_ms "partitioner.search_ms" @@ fun () ->
  let model = Cost_model.create ~weights values workload in
  let queried = Workload.queried_containers workload in
  let initial : Cost_model.configuration =
    { Cost_model.sets = List.map (fun id -> ([ id ], Compress.Codec.Bzip_alg)) queried }
  in
  let initial_cost = Cost_model.cost model initial in
  let config = ref initial in
  let trace = ref [] in
  let try_moves (pred : Workload.predicate) (proposals : Cost_model.configuration list) =
    let before = Cost_model.cost model !config in
    let best =
      List.fold_left
        (fun (bc, bcfg) cfg ->
          let c = Cost_model.cost model cfg in
          if c < bc then (c, cfg) else (bc, bcfg))
        (before, !config) proposals
    in
    let (after, chosen) = best in
    config := chosen;
    if Xquec_obs.is_enabled () then begin
      Xquec_obs.Metrics.incr ~by:(List.length proposals) "partitioner.moves_proposed";
      if after < before then Xquec_obs.Metrics.incr "partitioner.moves_accepted"
    end;
    trace :=
      { predicate = pred; accepted = after < before; cost_before = before; cost_after = after }
      :: !trace
  in
  Xquec_obs.Metrics.set_gauge "partitioner.initial_cost" initial_cost;
  let preds = shuffle ~seed workload.Workload.predicates in
  List.iter
    (fun (pred : Workload.predicate) ->
      let ids = List.sort_uniq compare (pred.Workload.left @ pred.Workload.right) in
      match ids with
      | [] -> ()
      | first :: _ -> (
        let algs = candidates_for pred.Workload.cls in
        let set_of id = List.find (fun (ids', _) -> List.mem id ids') !config.Cost_model.sets in
        let sets = List.sort_uniq compare (List.map set_of ids) in
        match sets with
        | [ ((set_ids, _) as old_set) ] ->
          (* all in one set: propose enabling algorithms for that set *)
          let proposals =
            List.map
              (fun alg -> replace_set !config ~old_sets:[ old_set ] ~new_sets:[ (set_ids, alg) ])
              algs
          in
          ignore first;
          try_moves pred proposals
        | _ :: _ :: _ ->
          let old_sets = sets in
          let others =
            List.map
              (fun (set_ids, alg) -> (List.filter (fun id -> not (List.mem id ids)) set_ids, alg))
              sets
            |> List.filter (fun (set_ids, _) -> set_ids <> [])
          in
          (* s': extract the predicate's containers into a fresh set *)
          let extracts =
            List.map (fun alg -> replace_set !config ~old_sets ~new_sets:((ids, alg) :: others)) algs
          in
          (* s'': merge the sets *)
          let merged_ids = List.concat_map fst sets |> List.sort_uniq compare in
          let merges =
            List.map
              (fun alg -> replace_set !config ~old_sets ~new_sets:[ (merged_ids, alg) ])
              algs
          in
          try_moves pred (extracts @ merges)
        | [] -> ()))
    preds;
  let final_cost = Cost_model.cost model !config in
  Xquec_obs.Metrics.set_gauge "partitioner.final_cost" final_cost;
  { configuration = !config; initial_cost; final_cost; trace = List.rev !trace }

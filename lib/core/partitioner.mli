(** Greedy configuration search (§3.3): starting from all-bzip
    singletons, per workload predicate propose re-algorithm / extract /
    merge moves and keep the cheapest. It chooses algorithms and shared
    models only; block sizes are chosen from observations
    ([Engine.block_targets]), never from the predicted predicates. *)

(** One proposed move of the greedy search: the predicate that motivated
    it, whether it lowered the cost, and the costs either side. *)
type move_trace = {
  predicate : Workload.predicate;
  accepted : bool;
  cost_before : float;
  cost_after : float;
}

(** Outcome of a search: the winning configuration, the costs of the
    initial and final configurations, and the per-move trace. *)
type result = {
  configuration : Cost_model.configuration;
  initial_cost : float;
  final_cost : float;
  trace : move_trace list;
}

(** [search values workload] runs the search; [values id] is container
    [id]'s plain values in record order ({!Loader.values}). The loader
    applies the chosen configuration ({!Loader.build}). *)
val search : ?seed:int -> ?weights:Cost_model.weights -> (int -> string array) -> Workload.t -> result

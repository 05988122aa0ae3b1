(** Greedy configuration search (§3.3): starting from all-bzip
    singletons, per workload predicate propose re-algorithm / extract /
    merge moves and keep the cheapest. It chooses algorithms and shared
    models only; block sizes are chosen from observations
    ([Engine.block_targets]), never from the predicted predicates. *)

open Storage

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

(** Run the search without applying it. *)
val search : ?seed:int -> ?weights:Cost_model.weights -> Repository.t -> Workload.t -> result

(** Apply a configuration: per set, read each container once with
    {!Container.read_all}, train a shared source model on the union of
    values, rebuild each container with {!Container.of_values} (same
    block size and compaction epoch), swap it in with
    {!Repository.replace_container}, and point the tree's value
    pointers at the rebuilt records. Raises [Invalid_argument] when a
    set's algorithm cannot encode its values ({!search} never returns
    such a set: it costs infinity). *)
val apply : Repository.t -> Cost_model.configuration -> unit

(** Analyze, search and apply in one call. *)
val optimize :
  ?seed:int -> ?weights:Cost_model.weights -> Repository.t -> Xquery.Ast.expr list -> result

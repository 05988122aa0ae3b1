(** StructureSummaryAccess (§4, §2.3): paths resolve against the
    structure summary, and a path rooted at a FOR variable evaluates
    once for all of the variable's bindings, by a pre-order interval
    merge against the summary's id lists (the structural join of the
    paper's Fig. 5). *)

open Storage
open Exec_base

(** Apply one summary step from a set of summary nodes, with tags
    looked up in the name dictionary. *)
val advance_snodes : Name_dict.t -> Summary.node list -> Xquery.Ast.step -> Summary.node list

(** Static summary-node resolution for an expression (no data access):
    the document, a variable or the context item ([var] gives their
    summary nodes; the context item is the variable ["."]), and paths
    and [distinct-values] over them; [[]] for anything else. It reads
    only the name dictionary and the summary, so the loader resolves
    workload paths with it before any container exists, and the
    executor types join keys for variables only bound inside a nested
    FLWOR being decorrelated. *)
val static_snodes :
  Name_dict.t -> Summary.t -> var:(string -> Summary.node list) -> Xquery.Ast.expr ->
  Summary.node list

(** {!static_snodes} over the repository of [ctx], each variable
    resolving to the summary nodes [env] binds it to. *)
val env_static_snodes : ctx -> env -> Xquery.Ast.expr -> Summary.node list

(** Binary search of a sorted array. *)
val mem_sorted : int array -> int -> bool

(** [ids_between a lo hi]: the ids of the sorted [a] within [lo, hi],
    in order. *)
val ids_between : int array -> int -> int -> int list

(** Whether a path [$v/R] can evaluate set-at-a-time: child name steps,
    each with at most one positional predicate, optionally ending in
    text() or [@name]. *)
val batchable : Xquery.Ast.step list -> bool

(** The batch of [$v/R] over [v]'s set, computed on first use and kept
    with the set for the rest of the query; [None] when the set is not
    made of stored nodes the summary can place. Under an EXPLAIN profile
    the computation is one [batched path] operator, whatever operator
    triggered it. *)
val set_batch : ctx -> var:string -> bset -> Xquery.Ast.step list -> batch option

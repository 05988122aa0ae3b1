(** What the executor's operators share (§4): the items and bindings
    they pass along, the evaluation context, and the profiling shims
    through which each operator reports to EXPLAIN. *)

open Storage

(** A result item. Values stay compressed ([Cval]) until serialization. *)
type item =
  | Node of int  (** structure-tree node id *)
  | Cval of { cont : Container.t; code : string }  (** compressed value *)
  | Att of string * item  (** attribute node: name + (usually compressed) value *)
  | Str of string
  | Num of float
  | Bool of bool
  | Elem of Xmlkit.Tree.t  (** constructed element *)

(** A sequence with provenance. [All_nodes] means every instance of
    these summary nodes, which lets whole paths evaluate without
    touching instances. *)
type seqv =
  | Mat of item list
  | All_nodes of Summary.node list
  | All_values of Summary.node list
      (** the values of these summary nodes' text containers *)

(** A variable's or subexpression's value: its sequence, the summary
    nodes its items came from (when known) and its place in a binding
    set. *)
type binding = { seq : seqv; snodes : Summary.node list; origin : origin }

(** Where a binding sits in a binding set, so a path rooted at it can
    take its run from the set's batch instead of navigating. *)
and origin =
  | Loose  (** no set: paths rooted here evaluate per tuple *)
  | Member of bset * int  (** the single item at this position of the set *)
  | Run of bset * int
      (** [Mat] items at consecutive positions of the set, from this one *)

(** The items one variable ranges over, shared by all the tuples binding
    it: a FOR source, a join's build side, or the runs of one batched
    path. Created while one query evaluates and dropped with it. *)
and bset = {
  bs_items : item array;
  bs_snodes : Summary.node list;  (** summary nodes the items instantiate *)
  mutable bs_groups : groups;
  mutable bs_memo : (Xquery.Ast.step list * batch) list;  (** per R, keyed physically *)
}

(** A set's positions sorted by the summary node their item
    instantiates, once examined. *)
and groups =
  | Unexamined
  | Per_tuple  (** some item is not a stored node of [bs_snodes] *)
  | Grouped of { slot_of : int array; groups : group list }
      (** each position's slot: its node's rank among the distinct
          nodes of the set, numbered summary node by summary node *)

(** The distinct nodes of a set that instantiate one summary node, in
    document order, at slots [g_base ..]. Instances of one summary node
    never nest, so their subtrees are disjoint pre-order intervals. *)
and group = { g_snode : Summary.node; g_base : int; g_nodes : int array }

(** [$v/R] for every slot of [$v]'s set: its run, and the run's offset
    in [b_union], the runs laid end to end as a binding set of their
    own (when R ends at elements). *)
and batch = {
  b_slot_of : int array;
  b_runs : item list array;
  b_starts : int array;
  b_union : bset option;
}

(** A binding of these items, outside any set. *)
val mat : item list -> binding

(** The binding of position [p] of a set. *)
val member : bset -> int -> binding

(** A fresh, unexamined binding set of these items and summary nodes. *)
val binding_set : item list -> Summary.node list -> bset

(** The evaluation context. *)
type ctx = {
  repo : Repository.t;
  prof : Xquec_obs.Explain.t option;  (** attached EXPLAIN profile, if any *)
  prof_ops : bool;
      (** open operator nodes in the profile; switched off inside
          per-tuple / per-node evaluation so the plan tree mirrors
          operators, not data (cmp counts still accumulate) *)
}

(** A plain evaluation context (no profile attached). *)
val mk_ctx : Repository.t -> ctx

(** Per-item evaluation under an operator: keep the profile (so
    predicate evaluations are still attributed to the innermost open
    operator) but stop opening new operator nodes. *)
val quiet : ctx -> ctx

(** Variable bindings, innermost first. *)
type env = (string * binding) list

(** Raised on semantic errors (re-exported as [Executor.Eval_error]). *)
exception Eval_error of string

(** Raise {!Eval_error} with a formatted message. *)
val err : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {2 Repository helpers} *)

(** The name dictionary's code for a tag ([@name] for attributes). *)
val tag_code : ctx -> string -> int option

(** The tag a name-dictionary code stands for. *)
val tag_name : ctx -> int -> string

(** Whether a name-dictionary code names an attribute. *)
val is_attr_code : ctx -> int -> bool

(** The name a tag code stands for, an attribute's without its [@]. *)
val local_name : ctx -> int -> string

(** The container with this id. *)
val container : ctx -> int -> Container.t

(** {2 Profiling} *)

(** [with_cache_delta node f] stamps the buffer-pool activity of [f]'s
    whole evaluation, as charged to the query's ledger, onto [node]
    (inclusive of child operators, like wall time). *)
val with_cache_delta : Xquec_obs.Explain.node -> (unit -> 'a) -> 'a

(** Run [f] as an operator node: the one place that decides between
    the profiled and the unprofiled path. [rows] extracts the output
    cardinality from the result, [attrs] the decision it records (see
    {!Xquec_obs.Explain.strategy}), and [keep] receives the node with
    the result, for a decision known only once later operators have
    run. The label [op] and the attributes are built only when a
    profile is open: some print an expression, and the unprofiled path
    should not pay for them. A node opens only outside per-item evaluation,
    unless [once]: an operator that runs once for all items (a batched
    path) is one node whatever evaluation triggered it. *)
val prof_rows :
  ctx ->
  ?once:bool ->
  ?attrs:('a -> (string * string) list) ->
  ?keep:(Xquec_obs.Explain.node -> 'a -> unit) ->
  kind:string ->
  (unit -> string) ->
  rows:('a -> int) ->
  (unit -> 'a) ->
  'a

(** [note_cmp ctx ~compressed n]: [n] predicate evaluations decided on
    compressed codes ([compressed]) or after decompression, attributed
    to the innermost open operator and to the global
    [executor.cmp.*] counters. *)
val note_cmp : ctx -> compressed:bool -> int -> unit

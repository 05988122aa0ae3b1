(** ContAccess (§4): comparisons between values, and predicates pushed
    into containers, evaluated on compressed codes wherever the codes
    decide them exactly and on decompressed values otherwise. *)

open Storage
open Exec_base

(** [contains_substring hay needle]: [needle] occurs in [hay]. *)
val contains_substring : string -> string -> bool

(** An item made ready for comparison, attribute wrappers stripped. Its
    string and number are each computed at most once, and only when a
    comparison needs them: a value decompresses at most once however many
    comparisons it takes part in. *)
type atom = { a_item : item; a_str : string Lazy.t; a_num : float option Lazy.t }

(** The item as an {!atom}. *)
val atomize : ctx -> item -> atom

(** The one place that decides whether compressed codes may stand in
    for values in a comparison of class [cls] among the values of
    [conts] and, for a comparison with a constant, [const]. Codes order
    as the codec does (§2.1: ALM keeps value order, Huffman only
    equality), so they are exact when every container shares one source
    model whose codec supports [cls] and, against a constant, when the
    constant compares the way the codes order: a numeric-packed
    container orders numbers, so the constant must be a number; any
    other container orders strings, and only a constant that is not a
    number compares as a string against every value (a number compares
    numerically with each value that parses as one). *)
val codes_replace_values : ?const:atom -> [ `Eq | `Ineq | `Wild ] -> Container.t list -> bool

(** The value order: as numbers when both sides parse as numbers,
    otherwise as strings (the rule of [Galax_like.compare_atoms]); on
    codes only where [codes_replace_values] allows it. *)
val compare_atoms : atom -> atom -> int

(** {!compare_atoms} of two items. *)
val compare_items : ctx -> item -> item -> int

(** Whether [a op b] holds, on codes where they decide it; the
    comparison is counted with {!Exec_base.note_cmp}. *)
val cmp_holds : ctx -> Xquery.Ast.cmp_op -> item -> item -> bool

(** [record_owner ctx cont ~hops parent]: the element [hops] levels
    above the owner of a record of [cont] whose parent pointer is
    [parent] (the element holding the text, or owning the attribute). *)
val record_owner : ctx -> Container.t -> hops:int -> int -> int

(** Resolve a context-relative value path to (container, hops-to-context).
    Supports chains of child element steps ending in text(), @attr, or a
    bare element. A bare-element comparison atomizes the element's whole
    subtree, so it only resolves to the immediate-text container when that
    is provably the complete string value: exactly one text child per
    instance and no text anywhere below. [concat_semantics]: the
    comparison concatenates the text nodes (contains, starts-with), so
    each instance needs exactly one. *)
val resolve_value_path :
  ?concat_semantics:bool ->
  ctx ->
  Summary.node list ->
  Xquery.Ast.step list ->
  (Container.t * int) list option

(** {2 Pushdown} *)

(** A predicate shape that can be pushed into containers. *)
type pushable

(** The pushable shape of a step predicate, if it has one. *)
val recognize_pushable : Xquery.Ast.expr -> pushable option

(** What a pushed-down predicate reads, resolved from the summary. *)
type pushdown

(** The reads for a pushable predicate, or None when it cannot run on
    the containers and must be evaluated per node: [<>], a path that does
    not resolve, or a bare-element comparison whose container would not
    hold the whole string value. *)
val pushdown_reads : ctx -> Summary.node list -> pushable -> pushdown option

(** The pushdown row's record of what it read. *)
val pushdown_attrs : pushdown -> (string * string) list

(** Matched element ids at candidate level, sorted. *)
val pushdown_matches : ctx -> pushdown -> int array

(** {2 Static resolution} *)

(** The containers an expression's values come from, resolved from the
    summary alone (no data access), or None. *)
val static_value_containers : ctx -> env -> Xquery.Ast.expr -> Container.t list option

(** Predicate-mix observation for a general comparison: the FLWOR
    [where] path evaluates comparisons tuple-at-a-time and never reaches
    the pushdown filters, so attribute the comparison to the container
    its value side reads — statically when a side is a resolvable value
    path, else from a compressed operand in the materialized sequences —
    with one candidate per evaluation and whether it held. *)
val note_cmp_obs :
  ctx ->
  env ->
  Xquery.Ast.cmp_op ->
  a:Xquery.Ast.expr ->
  b:Xquery.Ast.expr ->
  xs:item list ->
  ys:item list ->
  holds:bool ->
  unit

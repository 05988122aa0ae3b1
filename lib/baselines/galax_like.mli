(** Galax-like XQuery engine: a deliberately naive interpreter over the
    uncompressed DOM — the Fig. 7 comparator and the semantic reference
    the XQueC engine is differential-tested against. Nested FLWORs are
    re-evaluated per outer binding (what makes XMark Q8/Q9 quadratic). *)

open Xmlkit

type item =
  | N of Tree.t
  | A of string * string  (** attribute node: name, value *)
  | S of string
  | F of float
  | B of bool

exception Eval_error of string

val string_of_item : item -> string

val run : docs:(string * Tree.document) list -> Xquery.Ast.expr -> item list

val serialize : item list -> string

(* Static analysis over XQuery expressions: free variables, conjunct
   splitting and join-predicate detection. The executor's optimizer uses
   these to (a) evaluate uncorrelated FOR/LET sources once, (b) turn
   cross-products + where into hash/merge joins, and (c) decorrelate
   nested FLWORs (the Q8/Q9 pattern). *)

open Xquery

module Sset = Set.Make (String)

let rec free_vars (e : Ast.expr) : Sset.t =
  match e with
  | Ast.Literal_string _ | Ast.Literal_number _ | Ast.Doc _ -> Sset.empty
  | Ast.Var v -> Sset.singleton v
  | Ast.Context -> Sset.singleton "."
  | Ast.Path (src, steps) ->
    List.fold_left
      (fun acc (st : Ast.step) ->
        List.fold_left
          (fun acc p ->
            match p with
            | Ast.Pos _ | Ast.Pos_last -> acc
            | Ast.Cond e ->
              (* "." inside the predicate is bound by the step itself *)
              Sset.union acc (Sset.remove "." (free_vars e)))
          acc st.Ast.predicates)
      (free_vars src) steps
  | Ast.Flwor (clauses, ret) ->
    let rec go bound acc = function
      | [] -> Sset.union acc (Sset.diff (free_vars ret) bound)
      | Ast.For (v, e) :: rest | Ast.Let (v, e) :: rest ->
        let acc = Sset.union acc (Sset.diff (free_vars e) bound) in
        go (Sset.add v bound) acc rest
      | Ast.Where e :: rest -> go bound (Sset.union acc (Sset.diff (free_vars e) bound)) rest
      | Ast.Order_by keys :: rest ->
        let acc =
          List.fold_left
            (fun acc (e, _) -> Sset.union acc (Sset.diff (free_vars e) bound))
            acc keys
        in
        go bound acc rest
    in
    go Sset.empty Sset.empty clauses
  | Ast.If (a, b, c) -> Sset.union (free_vars a) (Sset.union (free_vars b) (free_vars c))
  | Ast.Cmp (_, a, b)
  | Ast.Arith (_, a, b)
  | Ast.And (a, b)
  | Ast.Or (a, b)
  | Ast.Contains (a, b)
  | Ast.Starts_with (a, b) -> Sset.union (free_vars a) (free_vars b)
  | Ast.Ftcontains (a, _)
  | Ast.Not a
  | Ast.Aggregate (_, a)
  | Ast.Empty a
  | Ast.Exists a
  | Ast.Distinct_values a
  | Ast.String_of a
  | Ast.Number_of a
  | Ast.Name_of a -> free_vars a
  | Ast.Some_satisfies (v, e, c) | Ast.Every_satisfies (v, e, c) ->
    Sset.union (free_vars e) (Sset.remove v (free_vars c))
  | Ast.Element (_, attrs, kids) ->
    let from_attrs =
      List.fold_left
        (fun acc (_, v) ->
          match v with
          | Ast.Attr_string _ -> acc
          | Ast.Attr_expr e -> Sset.union acc (free_vars e))
        Sset.empty attrs
    in
    List.fold_left (fun acc k -> Sset.union acc (free_vars k)) from_attrs kids
  | Ast.Sequence es ->
    List.fold_left (fun acc e -> Sset.union acc (free_vars e)) Sset.empty es

(** Split a where-expression into its top-level conjuncts. *)
let rec conjuncts (e : Ast.expr) : Ast.expr list =
  match e with Ast.And (a, b) -> conjuncts a @ conjuncts b | e -> [ e ]

(** A join conjunct [Cmp (op, a, b)] usable when one side depends only on
    [left_vars] (plus outer context) and the other only on [right_vars].
    Returns (op, left-side expr, right-side expr) with the sides oriented
    so the first depends on [left_vars]. *)
let join_conjunct ~(left_vars : Sset.t) ~(right_vars : Sset.t) ~(outer : Sset.t)
    (e : Ast.expr) : (Ast.cmp_op * Ast.expr * Ast.expr) option =
  match e with
  | Ast.Cmp (op, a, b) ->
    let fa = free_vars a and fb = free_vars b in
    let only vars outer s = (not (Sset.is_empty (Sset.inter s vars))) && Sset.subset s (Sset.union vars outer) in
    if only left_vars outer fa && only right_vars outer fb then Some (op, a, b)
    else if only left_vars outer fb && only right_vars outer fa then
      Some (Ast.flip op, b, a)
    else None
  | _ -> None

(** Does [e] mention any variable of [vars]? *)
let mentions vars e = not (Sset.is_empty (Sset.inter vars (free_vars e)))

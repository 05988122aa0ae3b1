(* Query workload analysis (§3): extracts the value-comparison predicates
   of a set of queries and resolves each side to the containers it
   touches, through the executor's summary resolver
   ([Summary_access.static_snodes]). The result feeds the E/I/D matrices
   of the cost model and drives the greedy partitioning search. *)

open Storage
open Xquery

type pred_class = [ `Eq | `Ineq | `Wild ]

(** A predicate between container sets; [right = []] means a constant. *)
type predicate = { cls : pred_class; left : int list; right : int list }

type t = { predicates : predicate list; container_count : int }

(* Static resolution environment: variable -> summary nodes. *)
type senv = (string * Summary.node list) list

(* What the analysis reads of a document: the name dictionary and the
   summary, both complete once the loader's parse is done. *)
type view = { dict : Name_dict.t; summary : Summary.t }

(* Summary nodes reachable by a path expression, or [] when unresolvable:
   the executor's resolver, plus string(...), which it never types. *)
let rec static_snodes view (env : senv) (e : Ast.expr) : Summary.node list =
  match e with
  | Ast.String_of e -> static_snodes view env e
  | e ->
    let var v = Option.value ~default:[] (List.assoc_opt v env) in
    Summary_access.static_snodes view.dict view.summary ~var e

(* Containers holding the values an operand expression compares. *)
let rec operand_containers view (env : senv) (e : Ast.expr) : int list =
  match e with
  | Ast.Path (_, steps) -> (
    let snodes = static_snodes view env e in
    let text_conts snodes =
      List.filter_map (fun (sn : Summary.node) -> sn.Summary.text_container) snodes
    in
    match List.rev steps with
    | { Ast.axis = Ast.Attribute; _ } :: _ | { Ast.test = Ast.Text; _ } :: _ ->
      text_conts snodes
    | _ ->
      (* comparing an element compares its string value: every text
         container in the subtree participates *)
      let subtree = List.concat_map (fun sn -> Summary.descend_all sn []) snodes in
      text_conts subtree)
  | Ast.Arith (_, a, b) -> operand_containers view env a @ operand_containers view env b
  | Ast.Number_of a | Ast.String_of a | Ast.Distinct_values a -> operand_containers view env a
  | _ -> []

let rec collect view (env : senv) (e : Ast.expr) (acc : predicate list ref) : unit =
  let operand env e = operand_containers view env e in
  match e with
  | Ast.Cmp (op, a, b) ->
    let ca = operand env a and cb = operand env b in
    (match ca, cb with
    | [], [] -> ()
    | l, r -> acc := { cls = Cont_access.cmp_class op; left = l; right = r } :: !acc);
    collect view env a acc;
    collect view env b acc
  | Ast.Contains (a, b) | Ast.Starts_with (a, b) ->
    (match operand env a with
    | [] -> ()
    | l -> acc := { cls = `Wild; left = l; right = [] } :: !acc);
    collect view env a acc;
    collect view env b acc
  | Ast.Ftcontains (a, _) ->
    (match operand env a with
    | [] -> ()
    | l -> acc := { cls = `Wild; left = l; right = [] } :: !acc);
    collect view env a acc
  | Ast.Flwor (clauses, ret) ->
    let env = ref env in
    List.iter
      (fun c ->
        match c with
        | Ast.For (v, e) | Ast.Let (v, e) ->
          collect view !env e acc;
          env := (v, static_snodes view !env e) :: !env
        | Ast.Where e -> collect view !env e acc
        | Ast.Order_by keys -> List.iter (fun (k, _) -> collect view !env k acc) keys)
      clauses;
    collect view !env ret acc
  | Ast.Path (src, steps) ->
    collect view env src acc;
    (* predicates inside steps compare relative to the step's element *)
    let snodes = ref (static_snodes view env src) in
    List.iter
      (fun (st : Ast.step) ->
        (match st.Ast.test with
        | Ast.Text -> ()
        | _ -> snodes := Summary_access.advance_snodes view.dict !snodes st);
        List.iter
          (function
            | Ast.Pos _ | Ast.Pos_last -> ()
            | Ast.Cond e -> collect view (("." , !snodes) :: env) e acc)
          st.Ast.predicates)
      steps
  | Ast.Some_satisfies (v, e, cond) | Ast.Every_satisfies (v, e, cond) ->
    collect view env e acc;
    collect view ((v, static_snodes view env e) :: env) cond acc
  | Ast.If (a, b, c) ->
    collect view env a acc;
    collect view env b acc;
    collect view env c acc
  | Ast.And (a, b) | Ast.Or (a, b) | Ast.Arith (_, a, b) ->
    collect view env a acc;
    collect view env b acc
  | Ast.Not a
  | Ast.Aggregate (_, a)
  | Ast.Empty a
  | Ast.Exists a
  | Ast.Distinct_values a
  | Ast.String_of a
  | Ast.Number_of a
  | Ast.Name_of a -> collect view env a acc
  | Ast.Element (_, attrs, kids) ->
    List.iter
      (fun (_, v) -> match v with Ast.Attr_expr e -> collect view env e acc | Ast.Attr_string _ -> ())
      attrs;
    List.iter (fun k -> collect view env k acc) kids
  | Ast.Sequence es -> List.iter (fun e -> collect view env e acc) es
  | Ast.Literal_string _ | Ast.Literal_number _ | Ast.Var _ | Ast.Context | Ast.Doc _ -> ()

(** Analyze a workload of queries against a document's name dictionary
    and summary. Each value-bearing summary node has its own container. *)
let analyze (dict : Name_dict.t) (summary : Summary.t) (queries : Ast.expr list) : t =
  let acc = ref [] in
  List.iter (fun q -> collect { dict; summary } [] q acc) queries;
  { predicates = List.rev !acc;
    container_count =
      List.length
        (List.filter
           (fun (n : Summary.node) -> n.Summary.text_container <> None)
           (Summary.descend_all summary.Summary.root [])) }

(** The E/I/D comparison matrices of §3.2: square matrices of size
    (|C|+1) x (|C|+1) counting, per predicate class (equality /
    inequality / prefix-wildcard), the workload's comparisons between
    containers i and j; row/column |C| stands for comparisons with
    constants. The matrices are symmetric by construction. *)
let matrices (w : t) : int array array * int array array * int array array =
  let n = w.container_count in
  let make () = Array.make_matrix (n + 1) (n + 1) 0 in
  let e = make () and i = make () and d = make () in
  List.iter
    (fun p ->
      let m = match p.cls with `Eq -> e | `Ineq -> i | `Wild -> d in
      let bump a b =
        m.(a).(b) <- m.(a).(b) + 1;
        if a <> b then m.(b).(a) <- m.(b).(a) + 1
      in
      match p.right with
      | [] -> List.iter (fun l -> bump l n) p.left
      | right -> List.iter (fun l -> List.iter (fun r -> bump l r) right) p.left)
    w.predicates;
  (e, i, d)

(** Container ids mentioned by any predicate. *)
let queried_containers (w : t) : int list =
  List.concat_map (fun p -> p.left @ p.right) w.predicates |> List.sort_uniq compare

let pp_predicate ppf (p : predicate) =
  let cls = match p.cls with `Eq -> "eq" | `Ineq -> "ineq" | `Wild -> "wild" in
  Fmt.pf ppf "%s: {%a} vs %s" cls
    Fmt.(list ~sep:comma int)
    p.left
    (if p.right = [] then "const" else Fmt.str "{%a}" Fmt.(list ~sep:comma int) p.right)

(* Galax-like XQuery engine: a straightforward interpreter over the
   uncompressed in-memory DOM — the comparator of the paper's Fig. 7.

   It is deliberately naive in the two ways that matter for the
   experiment's shape: (a) it materializes the full uncompressed document,
   and (b) it re-evaluates nested FLWOR expressions for every outer
   binding (nested-loop semantics), which is what makes XMark Q8/Q9
   catastrophic on it. It doubles as the semantic reference the XQueC
   engine is differential-tested against. *)

open Xmlkit
open Xquery

type item =
  | N of Tree.t             (* element node *)
  | A of string * string    (* attribute node: name, value *)
  | S of string
  | F of float
  | B of bool

type env = { docs : (string * Tree.document) list; vars : (string * item list) list }

exception Eval_error of string

let err fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let make_env ?(docs = []) () = { docs; vars = [] }

let bind env v items = { env with vars = (v, items) :: env.vars }

let lookup env v =
  match List.assoc_opt v env.vars with
  | Some items -> items
  | None -> err "unbound variable $%s" v

(* ------------------------------------------------------------------ *)
(* Atomization and coercions                                           *)
(* ------------------------------------------------------------------ *)

let string_of_item = function
  | N n -> Tree.text_content n
  | A (_, v) -> v
  | S s -> s
  | F f -> if Float.is_integer f then string_of_int (int_of_float f) else Printf.sprintf "%g" f
  | B b -> if b then "true" else "false"

let number_of_item it =
  match it with
  | F f -> Some f
  | N _ | A _ | S _ -> float_of_string_opt (String.trim (string_of_item it))
  | B b -> Some (if b then 1.0 else 0.0)

(* Effective boolean value. *)
let ebv = function
  | [] -> false
  | [ B b ] -> b
  | [ S s ] -> s <> ""
  | [ F f ] -> f <> 0.0 && not (Float.is_nan f)
  | _ -> true (* nonempty node sequence *)

let singleton_number items =
  match items with
  | [ it ] -> (
    match number_of_item it with
    | Some f -> f
    | None -> err "cannot convert %S to a number" (string_of_item it))
  | [] -> Float.nan
  | _ -> err "expected a singleton numeric value"

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let child_elements node =
  match node with
  | N (Tree.Element (_, _, kids)) ->
    List.filter_map (function Tree.Element _ as e -> Some (N e) | Tree.Text _ -> None) kids
  | N (Tree.Text _) | A _ | S _ | F _ | B _ -> []

let apply_test test items =
  List.filter
    (fun it ->
      match test, it with
      | Ast.Any, N _ -> true
      | Ast.Name n, N (Tree.Element (t, _, _)) -> String.equal t n
      | _ -> false)
    items

let axis_child test node =
  match test with
  | Ast.Text -> (
    match node with
    | N (Tree.Element (_, _, kids)) ->
      List.filter_map (function Tree.Text s -> Some (S s) | Tree.Element _ -> None) kids
    | N (Tree.Text _) | A _ | S _ | F _ | B _ -> [])
  | Ast.Name _ | Ast.Any -> apply_test test (child_elements node)

let axis_descendant test node =
  match node with
  | N root ->
    let acc = ref [] in
    let rec go n =
      List.iter
        (fun k ->
          match k with
          | Tree.Element _ ->
            (match test, k with
            | Ast.Any, _ -> acc := N k :: !acc
            | Ast.Name name, Tree.Element (t, _, _) when String.equal t name ->
              acc := N k :: !acc
            | _ -> ());
            go k
          | Tree.Text s -> if test = Ast.Text then acc := S s :: !acc)
        (Tree.children n)
    in
    go root;
    List.rev !acc
  | A _ | S _ | F _ | B _ -> []

let axis_attribute test node =
  match node with
  | N (Tree.Element (_, attrs, _)) ->
    List.filter_map
      (fun (n, v) ->
        match test with
        | Ast.Name name when String.equal n name -> Some (A (n, v))
        | Ast.Any -> Some (A (n, v))
        | Ast.Name _ | Ast.Text -> None)
      attrs
  | N (Tree.Text _) | A _ | S _ | F _ | B _ -> []

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let compare_atoms a b =
  (* numeric when both sides are numbers, else string comparison *)
  match number_of_item a, number_of_item b with
  | Some x, Some y -> compare x y
  | _ -> compare (string_of_item a) (string_of_item b)

let cmp_holds op a b =
  let c = compare_atoms a b in
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let rec eval (env : env) (e : Ast.expr) : item list =
  match e with
  | Ast.Literal_string s -> [ S s ]
  | Ast.Literal_number f -> [ F f ]
  | Ast.Var v -> lookup env v
  | Ast.Context -> lookup env "."
  | Ast.Doc name -> (
    (* a virtual document node whose only child is the root element, so
       that /site from document() selects the root element itself *)
    match List.assoc_opt name env.docs with
    | Some d -> [ N (Tree.Element ("#document", [], [ d.Tree.root ])) ]
    | None -> err "unknown document %S" name)
  | Ast.Path (src, steps) ->
    let ctx = eval env src in
    List.fold_left (eval_step env) ctx steps
  | Ast.Flwor (clauses, ret) ->
    let tuples = List.fold_left (eval_clause ()) [ env ] clauses in
    List.concat_map (fun env' -> eval env' ret) tuples
  | Ast.If (c, t, f) -> if ebv (eval env c) then eval env t else eval env f
  | Ast.Cmp (op, a, b) ->
    let xs = eval env a and ys = eval env b in
    [ B (List.exists (fun x -> List.exists (fun y -> cmp_holds op x y) ys) xs) ]
  | Ast.Arith (op, a, b) ->
    let x = singleton_number (eval env a) and y = singleton_number (eval env b) in
    let v =
      match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | Ast.Mod -> Float.rem x y
    in
    [ F v ]
  | Ast.And (a, b) -> [ B (ebv (eval env a) && ebv (eval env b)) ]
  | Ast.Or (a, b) -> [ B (ebv (eval env a) || ebv (eval env b)) ]
  | Ast.Not a -> [ B (not (ebv (eval env a))) ]
  | Ast.Aggregate (agg, e) -> eval_aggregate env agg e
  | Ast.Contains (a, b) ->
    let hay = String.concat "" (List.map string_of_item (eval env a)) in
    let needle = String.concat "" (List.map string_of_item (eval env b)) in
    [ B (contains_substring ~needle hay) ]
  | Ast.Starts_with (a, b) ->
    let hay = String.concat "" (List.map string_of_item (eval env a)) in
    let needle = String.concat "" (List.map string_of_item (eval env b)) in
    [
      B
        (String.length needle <= String.length hay
        && String.sub hay 0 (String.length needle) = needle);
    ]
  | Ast.Ftcontains (a, words) ->
    let hay = String.lowercase_ascii (String.concat " " (List.map string_of_item (eval env a))) in
    [ B (List.for_all (fun w -> contains_substring ~needle:w hay) words) ]
  | Ast.Empty e -> [ B (eval env e = []) ]
  | Ast.Exists e -> [ B (eval env e <> []) ]
  | Ast.Distinct_values e ->
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun it ->
        let k = string_of_item it in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (S k)
        end)
      (eval env e)
  | Ast.String_of e -> [ S (String.concat "" (List.map string_of_item (eval env e))) ]
  | Ast.Number_of e -> [ F (singleton_number (eval env e)) ]
  | Ast.Name_of e -> (
    match eval env e with
    | N (Tree.Element (t, _, _)) :: _ -> [ S t ]
    | A (n, _) :: _ -> [ S n ]
    | _ -> [ S "" ])
  | Ast.Some_satisfies (v, e, cond) ->
    [ B (List.exists (fun it -> ebv (eval (bind env v [ it ]) cond)) (eval env e)) ]
  | Ast.Every_satisfies (v, e, cond) ->
    [ B (List.for_all (fun it -> ebv (eval (bind env v [ it ]) cond)) (eval env e)) ]
  | Ast.Element (tag, attrs, kids) -> [ N (construct env tag attrs kids) ]
  | Ast.Sequence es -> List.concat_map (eval env) es

and contains_substring ~needle hay =
  let n = String.length needle and h = String.length hay in
  if n = 0 then true
  else begin
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  end

and eval_step env ctx (st : Ast.step) =
  let apply node =
    match st.Ast.axis with
    | Ast.Child -> axis_child st.Ast.test node
    | Ast.Descendant -> axis_descendant st.Ast.test node
    | Ast.Attribute -> axis_attribute st.Ast.test node
  in
  (* Child and attribute steps apply their predicates per context node,
     as XPath does: [$a/b[1]] is the first [b] of every [$a]. *)
  let per_context node = List.fold_left (apply_predicate env) (apply node) st.Ast.predicates in
  match st.Ast.axis with
  | Ast.Child | Ast.Attribute -> List.concat_map per_context ctx
  | Ast.Descendant ->
    (* Steps from several context nodes can surface the same node twice
       via the descendant axis; XQuery de-duplicates. Pointer equality
       is the node identity here. *)
    let dedup items =
      let rec go acc = function
        | [] -> List.rev acc
        | (N n as it) :: rest ->
          if List.exists (function N n' -> n' == n | _ -> false) acc then go acc rest
          else go (it :: acc) rest
        | it :: rest -> go (it :: acc) rest
      in
      go [] items
    in
    List.fold_left (apply_predicate env) (dedup (List.concat_map apply ctx)) st.Ast.predicates

and apply_predicate env items = function
  | Ast.Pos i -> (match List.nth_opt items (i - 1) with Some it -> [ it ] | None -> [])
  | Ast.Pos_last -> (match List.rev items with it :: _ -> [ it ] | [] -> [])
  | Ast.Cond e ->
    List.filter
      (fun it ->
        let env' = bind env "." [ it ] in
        ebv (eval env' e))
      items

and eval_clause () tuples (clause : Ast.clause) =
  match clause with
  | Ast.For (v, e) ->
    List.concat_map (fun env -> List.map (fun it -> bind env v [ it ]) (eval env e)) tuples
  | Ast.Let (v, e) -> List.map (fun env -> bind env v (eval env e)) tuples
  | Ast.Where e -> List.filter (fun env -> ebv (eval env e)) tuples
  | Ast.Order_by keys ->
    let decorated =
      List.map
        (fun env -> (List.map (fun (k, dir) -> (eval env k, dir)) keys, env))
        tuples
    in
    let cmp (ka, _) (kb, _) =
      let rec go = function
        | [] -> 0
        | ((a, dir), (b, _)) :: rest ->
          let c =
            match a, b with
            | [ x ], [ y ] -> compare_atoms x y
            | [], [] -> 0
            | [], _ -> -1
            | _, [] -> 1
            | x :: _, y :: _ -> compare_atoms x y
          in
          let c = match dir with `Asc -> c | `Desc -> -c in
          if c <> 0 then c else go rest
      in
      go (List.combine ka kb)
    in
    List.map snd (List.stable_sort cmp decorated)

and eval_aggregate env agg e =
  let items = eval env e in
  match agg with
  | Ast.Count -> [ F (float_of_int (List.length items)) ]
  | Ast.Sum ->
    [ F (List.fold_left (fun acc it -> acc +. Option.value ~default:0.0 (number_of_item it)) 0.0 items) ]
  | Ast.Avg ->
    if items = [] then []
    else
      [
        F
          (List.fold_left
             (fun acc it -> acc +. Option.value ~default:0.0 (number_of_item it))
             0.0 items
          /. float_of_int (List.length items));
      ]
  | Ast.Min | Ast.Max -> (
    match items with
    | [] -> []
    | first :: rest ->
      let better a b =
        let c = compare_atoms a b in
        match agg with Ast.Min -> c <= 0 | _ -> c >= 0
      in
      let winner = List.fold_left (fun best it -> if better best it then best else it) first rest in
      let atomized =
        match winner with
        | N _ | A _ -> S (string_of_item winner)
        | it -> it
      in
      [ atomized ])

and construct env tag attrs kids : Tree.t =
  let eval_attr (n, v) =
    match v with
    | Ast.Attr_string s -> [ (n, s) ]
    | Ast.Attr_expr e ->
      [ (n, String.concat " " (List.map string_of_item (eval env e))) ]
  in
  let static_attrs = List.concat_map eval_attr attrs in
  let kid_items = List.concat_map (eval env) kids in
  (* Attribute items become attributes of the constructed element;
     adjacent atomic values are joined by spaces per the XQuery rules. *)
  let dyn_attrs =
    List.filter_map (function A (n, v) -> Some (n, v) | _ -> None) kid_items
  in
  let rec content acc pending_atoms = function
    | [] ->
      let acc = flush acc pending_atoms in
      List.rev acc
    | A _ :: rest -> content acc pending_atoms rest
    | N n :: rest -> content (n :: flush acc pending_atoms) [] rest
    | ((S _ | F _ | B _) as it) :: rest ->
      content acc (string_of_item it :: pending_atoms) rest
  and flush acc pending =
    match pending with
    | [] -> acc
    | atoms -> Tree.Text (String.concat " " (List.rev atoms)) :: acc
  in
  Tree.Element (tag, static_attrs @ dyn_attrs, content [] [] kid_items)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Evaluate a query against named documents. *)
let run ~(docs : (string * Tree.document) list) (query : Ast.expr) : item list =
  eval (make_env ~docs ()) query

(** Serialize a result sequence the way the paper's engines emit results. *)
let serialize (items : item list) : string =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char buf '\n';
      match it with
      | N n -> Printer.add_node buf n
      | A (n, v) -> Buffer.add_string buf (Printf.sprintf "%s=\"%s\"" n v)
      | other -> Buffer.add_string buf (string_of_item other))
    items;
  Buffer.contents buf

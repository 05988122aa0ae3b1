(* Abstract syntax for the XQuery subset XQueC evaluates: FLWOR (with
   nesting), path expressions over child / descendant-or-self / attribute
   axes with predicates, value and general comparisons, arithmetic,
   aggregates, quantifiers, conditionals and direct element constructors —
   the constructs exercised by XMark Q1-Q20. *)

type axis = Child | Descendant | Attribute

type node_test =
  | Name of string  (** element or attribute name *)
  | Any             (** * *)
  | Text            (** text() *)

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge

(* The operator with its sides swapped: [a op b] iff [b (flip op) a]. *)
let flip = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

type arith_op = Add | Sub | Mul | Div | Mod

type aggregate = Count | Sum | Avg | Min | Max

type expr =
  | Literal_string of string
  | Literal_number of float
  | Var of string                         (** $x *)
  | Context                               (** . — the context item inside a predicate *)
  | Doc of string                         (** document("...") *)
  | Path of expr * step list              (** e/step/step... *)
  | Flwor of clause list * expr           (** for/let/where/order by + return *)
  | If of expr * expr * expr
  | Cmp of cmp_op * expr * expr
  | Arith of arith_op * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Aggregate of aggregate * expr
  | Contains of expr * expr
  | Starts_with of expr * expr
  | Ftcontains of expr * string list
      (** full-text all-words containment (the paper's §6 future work,
          after the W3C XQuery Full-Text use cases) *)
  | Empty of expr
  | Exists of expr
  | Distinct_values of expr
  | String_of of expr                     (** string(e) *)
  | Number_of of expr                     (** number(e) *)
  | Name_of of expr                       (** name(e) *)
  | Some_satisfies of string * expr * expr  (** some $v in e satisfies e *)
  | Every_satisfies of string * expr * expr
  | Element of string * (string * attr_value) list * expr list
      (** direct constructor <tag a="..">{...}</tag> *)
  | Sequence of expr list                 (** (e1, e2, ...) *)

and attr_value =
  | Attr_string of string
  | Attr_expr of expr

and step = { axis : axis; test : node_test; predicates : predicate list }

and predicate =
  | Pos of int                 (** [3] — positional *)
  | Pos_last                   (** [last()] *)
  | Cond of expr               (** [expr] — boolean / existential *)

and clause =
  | For of string * expr       (** for $v in e *)
  | Let of string * expr       (** let $v := e *)
  | Where of expr
  | Order_by of (expr * [ `Asc | `Desc ]) list

(* ------------------------------------------------------------------ *)

let step ?(predicates = []) axis test = { axis; test; predicates }

let rec pp_expr ppf (e : expr) =
  match e with
  | Literal_string s -> Fmt.pf ppf "%S" s
  | Literal_number f -> Fmt.pf ppf "%g" f
  | Var v -> Fmt.pf ppf "$%s" v
  | Context -> Fmt.pf ppf "."
  | Doc d -> Fmt.pf ppf "document(%S)" d
  | Path (src, steps) ->
    pp_expr ppf src;
    List.iter (pp_step ppf) steps
  | Flwor (clauses, ret) ->
    Fmt.pf ppf "@[<2>";
    List.iter (pp_clause ppf) clauses;
    Fmt.pf ppf "return %a@]" pp_expr ret
  | If (c, t, e) -> Fmt.pf ppf "if (%a) then %a else %a" pp_expr c pp_expr t pp_expr e
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_expr a (cmp_name op) pp_expr b
  | Arith (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_expr a (arith_name op) pp_expr b
  | And (a, b) -> Fmt.pf ppf "(%a and %a)" pp_expr a pp_expr b
  | Or (a, b) -> Fmt.pf ppf "(%a or %a)" pp_expr a pp_expr b
  | Not a -> Fmt.pf ppf "not(%a)" pp_expr a
  | Aggregate (a, e) -> Fmt.pf ppf "%s(%a)" (aggregate_name a) pp_expr e
  | Contains (a, b) -> Fmt.pf ppf "contains(%a, %a)" pp_expr a pp_expr b
  | Starts_with (a, b) -> Fmt.pf ppf "starts-with(%a, %a)" pp_expr a pp_expr b
  | Ftcontains (a, words) ->
    Fmt.pf ppf "ftcontains(%a, %S)" pp_expr a (String.concat " " words)
  | Empty e -> Fmt.pf ppf "empty(%a)" pp_expr e
  | Exists e -> Fmt.pf ppf "exists(%a)" pp_expr e
  | Distinct_values e -> Fmt.pf ppf "distinct-values(%a)" pp_expr e
  | String_of e -> Fmt.pf ppf "string(%a)" pp_expr e
  | Number_of e -> Fmt.pf ppf "number(%a)" pp_expr e
  | Name_of e -> Fmt.pf ppf "name(%a)" pp_expr e
  | Some_satisfies (v, e, c) ->
    Fmt.pf ppf "some $%s in %a satisfies %a" v pp_expr e pp_expr c
  | Every_satisfies (v, e, c) ->
    Fmt.pf ppf "every $%s in %a satisfies %a" v pp_expr e pp_expr c
  | Element (tag, attrs, kids) ->
    Fmt.pf ppf "<%s" tag;
    List.iter
      (fun (n, v) ->
        match v with
        | Attr_string s -> Fmt.pf ppf " %s=%S" n s
        | Attr_expr e -> Fmt.pf ppf " %s={%a}" n pp_expr e)
      attrs;
    Fmt.pf ppf ">";
    List.iter (fun k -> Fmt.pf ppf "{%a}" pp_expr k) kids;
    Fmt.pf ppf "</%s>" tag
  | Sequence es -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp_expr) es

and pp_step ppf (s : step) =
  (match s.axis, s.test with
  | Child, Name n -> Fmt.pf ppf "/%s" n
  | Child, Any -> Fmt.pf ppf "/*"
  | Child, Text -> Fmt.pf ppf "/text()"
  | Descendant, Name n -> Fmt.pf ppf "//%s" n
  | Descendant, Any -> Fmt.pf ppf "//*"
  | Descendant, Text -> Fmt.pf ppf "//text()"
  | Attribute, Name n -> Fmt.pf ppf "/@%s" n
  | Attribute, Any -> Fmt.pf ppf "/@*"
  | Attribute, Text -> Fmt.pf ppf "/@text()");
  List.iter
    (function
      | Pos i -> Fmt.pf ppf "[%d]" i
      | Pos_last -> Fmt.pf ppf "[last()]"
      | Cond e -> Fmt.pf ppf "[%a]" pp_expr e)
    s.predicates

and pp_clause ppf = function
  | For (v, e) -> Fmt.pf ppf "for $%s in %a@ " v pp_expr e
  | Let (v, e) -> Fmt.pf ppf "let $%s := %a@ " v pp_expr e
  | Where e -> Fmt.pf ppf "where %a@ " pp_expr e
  | Order_by keys ->
    Fmt.pf ppf "order by %a@ "
      Fmt.(
        list ~sep:comma (fun ppf (e, dir) ->
            pf ppf "%a %s" pp_expr e (match dir with `Asc -> "ascending" | `Desc -> "descending")))
      keys

and cmp_name = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

and arith_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "div"
  | Mod -> "mod"

and aggregate_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"

let to_string e = Fmt.str "%a" pp_expr e

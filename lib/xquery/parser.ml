(* Recursive-descent parser for the XQuery subset of {!Ast}. It works
   directly on the character stream so that direct element constructors
   (<item>{...}</item>) can be parsed without lexer mode switches. *)

exception Syntax_error of string * int

let error_message msg pos = Printf.sprintf "syntax error at byte %d: %s" pos msg

type state = { src : string; mutable pos : int }

let fail st msg = raise (Syntax_error (msg, st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st = st.pos <- st.pos + 1

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' || c = ':'

let is_digit c = c >= '0' && c <= '9'

let rec skip_ws st =
  match peek st with
  | Some c when is_space c ->
    advance st;
    skip_ws st
  | Some '(' when peek2 st = Some ':' ->
    (* XQuery comment (: ... :), possibly nested *)
    advance st;
    advance st;
    let depth = ref 1 in
    while !depth > 0 do
      match peek st with
      | Some '(' when peek2 st = Some ':' ->
        advance st;
        advance st;
        incr depth
      | Some ':' when peek2 st = Some ')' ->
        advance st;
        advance st;
        decr depth
      | Some _ -> advance st
      | None -> fail st "unterminated comment"
    done;
    skip_ws st
  | Some _ | None -> ()

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

(* Does a keyword appear here (followed by a non-name char)? *)
let keyword_here st kw =
  looking_at st kw
  && (st.pos + String.length kw >= String.length st.src
     || not (is_name_char st.src.[st.pos + String.length kw]))

let eat_keyword st kw =
  skip_ws st;
  if keyword_here st kw then begin
    st.pos <- st.pos + String.length kw;
    true
  end
  else false

let expect_keyword st kw =
  if not (eat_keyword st kw) then fail st (Printf.sprintf "expected %S" kw)

let eat_char st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c ->
    advance st;
    true
  | Some _ | None -> false

let expect_char st c =
  if not (eat_char st c) then fail st (Printf.sprintf "expected '%c'" c)

let read_name st =
  skip_ws st;
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> advance st
  | Some c -> fail st (Printf.sprintf "expected name, found '%c'" c)
  | None -> fail st "expected name, found end of input");
  let rec go () =
    match peek st with
    | Some c when is_name_char c ->
      advance st;
      go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub st.src start (st.pos - start)

let read_var st =
  skip_ws st;
  expect_char st '$';
  read_name st

let read_string_literal st =
  skip_ws st;
  let quote =
    match peek st with
    | Some ('"' as q) | Some ('\'' as q) ->
      advance st;
      q
    | Some _ | None -> fail st "expected string literal"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some c when c = quote ->
      advance st;
      (* doubled quote escapes itself *)
      if peek st = Some quote then begin
        advance st;
        Buffer.add_char buf quote;
        go ()
      end
      else Buffer.contents buf
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
    | None -> fail st "unterminated string literal"
  in
  go ()

let read_number st =
  skip_ws st;
  let start = st.pos in
  let rec digits () =
    match peek st with
    | Some c when is_digit c ->
      advance st;
      digits ()
    | Some _ | None -> ()
  in
  digits ();
  if peek st = Some '.' && (match peek2 st with Some c -> is_digit c | None -> false)
  then begin
    advance st;
    digits ()
  end;
  if st.pos = start then fail st "expected number";
  float_of_string (String.sub st.src start (st.pos - start))

(* ------------------------------------------------------------------ *)
(* Grammar                                                             *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st : Ast.expr =
  skip_ws st;
  if keyword_here st "for" || keyword_here st "let" then parse_flwor st
  else if keyword_here st "if" then parse_if st
  else if keyword_here st "some" then parse_quantified st `Some
  else if keyword_here st "every" then parse_quantified st `Every
  else parse_or st

and parse_flwor st : Ast.expr =
  let clauses = ref [] in
  let rec clause_loop () =
    skip_ws st;
    if eat_keyword st "for" then begin
      let rec bindings () =
        let v = read_var st in
        expect_keyword st "in";
        let e = parse_expr st in
        clauses := Ast.For (v, e) :: !clauses;
        if eat_char st ',' then bindings ()
      in
      bindings ();
      clause_loop ()
    end
    else if eat_keyword st "let" then begin
      let rec bindings () =
        let v = read_var st in
        skip_ws st;
        if looking_at st ":=" then st.pos <- st.pos + 2 else fail st "expected :=";
        let e = parse_expr st in
        clauses := Ast.Let (v, e) :: !clauses;
        if eat_char st ',' then bindings ()
      in
      bindings ();
      clause_loop ()
    end
    else if eat_keyword st "where" then begin
      let e = parse_expr st in
      clauses := Ast.Where e :: !clauses;
      clause_loop ()
    end
    else if eat_keyword st "order" then begin
      expect_keyword st "by";
      let rec keys acc =
        let e = parse_or st in
        let dir =
          if eat_keyword st "descending" then `Desc
          else begin
            ignore (eat_keyword st "ascending");
            `Asc
          end
        in
        if eat_char st ',' then keys ((e, dir) :: acc) else List.rev ((e, dir) :: acc)
      in
      clauses := Ast.Order_by (keys []) :: !clauses;
      clause_loop ()
    end
  in
  clause_loop ();
  expect_keyword st "return";
  let ret = parse_expr st in
  Ast.Flwor (List.rev !clauses, ret)

and parse_if st : Ast.expr =
  expect_keyword st "if";
  expect_char st '(';
  let c = parse_expr st in
  expect_char st ')';
  expect_keyword st "then";
  let t = parse_expr st in
  expect_keyword st "else";
  let e = parse_expr st in
  Ast.If (c, t, e)

and parse_quantified st which : Ast.expr =
  (match which with
  | `Some -> expect_keyword st "some"
  | `Every -> expect_keyword st "every");
  let v = read_var st in
  expect_keyword st "in";
  let e = parse_expr st in
  expect_keyword st "satisfies";
  let c = parse_expr st in
  match which with
  | `Some -> Ast.Some_satisfies (v, e, c)
  | `Every -> Ast.Every_satisfies (v, e, c)

and parse_or st : Ast.expr =
  let a = parse_and st in
  if eat_keyword st "or" then Ast.Or (a, parse_or st) else a

and parse_and st : Ast.expr =
  let a = parse_cmp st in
  if eat_keyword st "and" then Ast.And (a, parse_and st) else a

and parse_cmp st : Ast.expr =
  let a = parse_add st in
  skip_ws st;
  let op =
    if looking_at st "!=" then Some Ast.Neq
    else if looking_at st "<=" then Some Ast.Le
    else if looking_at st ">=" then Some Ast.Ge
    else if looking_at st "=" then Some Ast.Eq
    else if looking_at st "<" then Some Ast.Lt
    else if looking_at st ">" then Some Ast.Gt
    else if keyword_here st "eq" then Some Ast.Eq
    else if keyword_here st "ne" then Some Ast.Neq
    else if keyword_here st "lt" then Some Ast.Lt
    else if keyword_here st "le" then Some Ast.Le
    else if keyword_here st "gt" then Some Ast.Gt
    else if keyword_here st "ge" then Some Ast.Ge
    else None
  in
  match op with
  | None -> a
  | Some op ->
    (match op with
    | Ast.Neq | Ast.Le | Ast.Ge -> st.pos <- st.pos + 2
    | Ast.Eq when looking_at st "=" -> st.pos <- st.pos + 1
    | Ast.Lt when looking_at st "<" -> st.pos <- st.pos + 1
    | Ast.Gt when looking_at st ">" -> st.pos <- st.pos + 1
    | Ast.Eq | Ast.Lt | Ast.Gt -> st.pos <- st.pos + 2 (* word operators *));
    let b = parse_add st in
    Ast.Cmp (op, a, b)

and parse_add st : Ast.expr =
  let rec go a =
    skip_ws st;
    if eat_char st '+' then go (Ast.Arith (Ast.Add, a, parse_mul st))
    else if
      (* '-' must not swallow a name-like context, but after an operand a
         bare '-' is always subtraction in this grammar *)
      eat_char st '-'
    then go (Ast.Arith (Ast.Sub, a, parse_mul st))
    else a
  in
  go (parse_mul st)

and parse_mul st : Ast.expr =
  let rec go a =
    skip_ws st;
    if eat_char st '*' then go (Ast.Arith (Ast.Mul, a, parse_path st))
    else if eat_keyword st "div" then go (Ast.Arith (Ast.Div, a, parse_path st))
    else if eat_keyword st "mod" then go (Ast.Arith (Ast.Mod, a, parse_path st))
    else a
  in
  go (parse_path st)

and parse_path st : Ast.expr =
  let primary = parse_primary st in
  let steps = ref [] in
  let rec go () =
    skip_ws st;
    if looking_at st "//" then begin
      st.pos <- st.pos + 2;
      steps := parse_step st Ast.Descendant :: !steps;
      go ()
    end
    else if looking_at st "/" then begin
      advance st;
      steps := parse_step st Ast.Child :: !steps;
      go ()
    end
    else if looking_at st "[" then begin
      (* predicate attached to the last step (or to the primary) *)
      advance st;
      let p = parse_predicate st in
      expect_char st ']';
      (match !steps with
      | s :: rest -> steps := { s with Ast.predicates = s.Ast.predicates @ [ p ] } :: rest
      | [] ->
        (* predicate on primary: wrap as self-filter via a Flwor *)
        steps := [];
        fail st "predicate on non-path primary is not supported");
      go ()
    end
  in
  go ();
  match List.rev !steps with
  | [] -> primary
  | steps -> Ast.Path (primary, steps)

and parse_step st axis : Ast.step =
  skip_ws st;
  match peek st with
  | Some '@' ->
    advance st;
    let n = read_name st in
    Ast.step Ast.Attribute (Ast.Name n)
  | Some '*' ->
    advance st;
    Ast.step axis Ast.Any
  | Some _ ->
    let n = read_name st in
    skip_ws st;
    if String.equal n "text" && looking_at st "()" then begin
      st.pos <- st.pos + 2;
      Ast.step axis Ast.Text
    end
    else Ast.step axis (Ast.Name n)
  | None -> fail st "expected step"

and parse_predicate st : Ast.predicate =
  skip_ws st;
  if keyword_here st "last" then begin
    let save = st.pos in
    st.pos <- st.pos + 4;
    skip_ws st;
    if looking_at st "()" then begin
      st.pos <- st.pos + 2;
      skip_ws st;
      if peek st = Some ']' then Ast.Pos_last
      else begin
        st.pos <- save;
        Ast.Cond (parse_expr st)
      end
    end
    else begin
      st.pos <- save;
      Ast.Cond (parse_expr st)
    end
  end
  else begin
  (* Pure integer literal => positional predicate. *)
  let save = st.pos in
  match peek st with
  | Some c when is_digit c ->
    let v = read_number st in
    skip_ws st;
    if peek st = Some ']' && Float.is_integer v then Ast.Pos (int_of_float v)
    else begin
      st.pos <- save;
      Ast.Cond (parse_expr st)
    end
  | Some _ | None -> Ast.Cond (parse_expr st)
  end

and parse_primary st : Ast.expr =
  skip_ws st;
  match peek st with
  | Some '$' -> Ast.Var (read_var st)
  | Some '"' | Some '\'' -> Ast.Literal_string (read_string_literal st)
  | Some c when is_digit c -> Ast.Literal_number (read_number st)
  | Some '.' -> (
    match peek2 st with
    | Some c when is_digit c -> Ast.Literal_number (read_number st)
    | Some _ | None ->
      advance st;
      Ast.Context)
  | Some '@' ->
    (* context-relative attribute step, e.g. [@id = "person0"] *)
    advance st;
    let n = read_name st in
    Ast.Path (Ast.Context, [ Ast.step Ast.Attribute (Ast.Name n) ])
  | Some '(' ->
    advance st;
    let e = parse_expr st in
    skip_ws st;
    if eat_char st ',' then begin
      let rec more acc =
        let e = parse_expr st in
        if eat_char st ',' then more (e :: acc) else List.rev (e :: acc)
      in
      let rest = more [ e ] in
      expect_char st ')';
      Ast.Sequence rest
    end
    else begin
      expect_char st ')';
      e
    end
  | Some '<' -> parse_constructor st
  | Some c when is_name_start c -> parse_function_or_name st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)
  | None -> fail st "unexpected end of input"

and parse_function_or_name st : Ast.expr =
  let name = read_name st in
  skip_ws st;
  if peek st = Some '(' then begin
    advance st;
    let args =
      if eat_char st ')' then []
      else begin
        let rec go acc =
          let e = parse_expr st in
          if eat_char st ',' then go (e :: acc)
          else begin
            expect_char st ')';
            List.rev (e :: acc)
          end
        in
        go []
      end
    in
    let arg1 () = match args with [ a ] -> a | _ -> fail st (name ^ " expects 1 argument") in
    let arg2 () =
      match args with [ a; b ] -> (a, b) | _ -> fail st (name ^ " expects 2 arguments")
    in
    match name with
    | "document" | "doc" -> (
      match args with
      | [ Ast.Literal_string s ] -> Ast.Doc s
      | _ -> fail st "document() expects a string literal")
    | "count" -> Ast.Aggregate (Ast.Count, arg1 ())
    | "sum" -> Ast.Aggregate (Ast.Sum, arg1 ())
    | "avg" -> Ast.Aggregate (Ast.Avg, arg1 ())
    | "min" -> Ast.Aggregate (Ast.Min, arg1 ())
    | "max" -> Ast.Aggregate (Ast.Max, arg1 ())
    | "contains" ->
      let (a, b) = arg2 () in
      Ast.Contains (a, b)
    | "starts-with" ->
      let (a, b) = arg2 () in
      Ast.Starts_with (a, b)
    | "ftcontains" -> (
      match arg2 () with
      | (a, Ast.Literal_string phrase) ->
        let words =
          String.split_on_char ' ' (String.lowercase_ascii phrase)
          |> List.filter (fun w -> w <> "")
        in
        Ast.Ftcontains (a, words)
      | _ -> fail st "ftcontains expects a string literal of search words")
    | "not" -> Ast.Not (arg1 ())
    | "empty" -> Ast.Empty (arg1 ())
    | "exists" -> Ast.Exists (arg1 ())
    | "distinct-values" -> Ast.Distinct_values (arg1 ())
    | "string" -> Ast.String_of (arg1 ())
    | "number" -> Ast.Number_of (arg1 ())
    | "name" -> Ast.Name_of (arg1 ())
    | "zero-or-one" | "exactly-one" | "data" -> arg1 ()
    | "text" when args = [] -> Ast.Path (Ast.Context, [ Ast.step Ast.Child Ast.Text ])
    | "position" when args = [] -> Ast.Var "__position"
    | _ -> fail st (Printf.sprintf "unknown function %s" name)
  end
  else if String.equal name "text" && looking_at st "()" then begin
    st.pos <- st.pos + 2;
    Ast.Path (Ast.Context, [ Ast.step Ast.Child Ast.Text ])
  end
  else
    (* A bare name is a context-relative child step — meaningful inside
       predicates, e.g. item[location = "United States"]. *)
    Ast.Path (Ast.Context, [ Ast.step Ast.Child (Ast.Name name) ])

(* <tag a="v" b="{e}">text{e}<nested/>...</tag> *)
and parse_constructor st : Ast.expr =
  expect_char st '<';
  let tag = read_name st in
  let attrs = ref [] in
  let rec attr_loop () =
    skip_ws st;
    match peek st with
    | Some c when is_name_start c ->
      let n = read_name st in
      skip_ws st;
      expect_char st '=';
      skip_ws st;
      (match peek st with
      | Some '{' ->
        advance st;
        let e = parse_expr st in
        expect_char st '}';
        attrs := (n, Ast.Attr_expr e) :: !attrs
      | Some (('"' | '\'') as q) when peek2 st = Some '{' ->
        (* quoted whole-value brace expression: parse the expression
           in place so nested string literals are handled correctly *)
        advance st;
        advance st;
        let e = parse_expr st in
        expect_char st '}';
        expect_char st q;
        attrs := (n, Ast.Attr_expr e) :: !attrs
      | Some '"' | Some '\'' ->
        let raw = read_string_literal st in
        (* whole-value brace expression: a="{$x}" *)
        let len = String.length raw in
        if len >= 2 && raw.[0] = '{' && raw.[len - 1] = '}' then begin
          let inner = { src = String.sub raw 1 (len - 2); pos = 0 } in
          let e = parse_expr inner in
          attrs := (n, Ast.Attr_expr e) :: !attrs
        end
        else attrs := (n, Ast.Attr_string raw) :: !attrs
      | Some _ | None -> fail st "expected attribute value");
      attr_loop ()
    | Some _ | None -> ()
  in
  attr_loop ();
  skip_ws st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Ast.Element (tag, List.rev !attrs, [])
  end
  else begin
    expect_char st '>';
    let kids = ref [] in
    let text_buf = Buffer.create 16 in
    let flush_text () =
      let s = Buffer.contents text_buf in
      Buffer.clear text_buf;
      if String.trim s <> "" then kids := Ast.Literal_string s :: !kids
    in
    let rec content () =
      match peek st with
      | Some '{' ->
        flush_text ();
        advance st;
        let e = parse_expr st in
        expect_char st '}';
        kids := e :: !kids;
        content ()
      | Some '<' ->
        if peek2 st = Some '/' then begin
          flush_text ();
          st.pos <- st.pos + 2;
          let close = read_name st in
          if not (String.equal close tag) then
            fail st (Printf.sprintf "mismatched constructor: <%s> closed by </%s>" tag close);
          skip_ws st;
          expect_char st '>'
        end
        else begin
          flush_text ();
          kids := parse_constructor st :: !kids;
          content ()
        end
      | Some c ->
        advance st;
        Buffer.add_char text_buf c;
        content ()
      | None -> fail st "unterminated element constructor"
    in
    content ();
    Ast.Element (tag, List.rev !attrs, List.rev !kids)
  end

(** Parse a complete query. *)
let parse (src : string) : Ast.expr =
  let st = { src; pos = 0 } in
  let e = parse_expr st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing input after query";
  e
